"""Cross-validation of the simulator's two timing paths.

The analytic path (the segment rule folded over the compiler's exact
block shapes) and the detailed path (every tile iteration, every DMA
descriptor through the access controller) describe the same schedule
and, on a stall-free controller, charge the same cycles.  This module
runs both on every zoo workload and requires them to be equal — the
repository's internal consistency check, runnable as ``python -m repro
validate``.  The detailed leg runs the reference event walk
(:func:`repro.sim.fastpath.reference`): by default ``run_detailed``
prices stall-free layers with the analytic fold itself, and comparing
the fold with itself would prove nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.driver.compiler import TilingCompiler
from repro.memory.dram import DRAMModel
from repro.mmu.base import NoProtection
from repro.npu.config import NPUConfig
from repro.npu.core import NPUCore
from repro.sim import fastpath
from repro.workloads import zoo


@dataclass
class ValidationRow:
    """One workload's analytic-vs-detailed comparison."""

    workload: str
    analytic_cycles: float
    detailed_cycles: float

    @property
    def ratio(self) -> float:
        if self.analytic_cycles == 0:
            return 0.0
        return self.detailed_cycles / self.analytic_cycles

    @property
    def ok(self) -> bool:
        return self.analytic_cycles == self.detailed_cycles

    def __str__(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        return (
            f"{self.workload:12s} analytic={self.analytic_cycles:14,.0f} "
            f"detailed={self.detailed_cycles:14,.0f} ratio={self.ratio:6.3f} "
            f"[{mark}]"
        )


def validate_timing_paths(
    profile: str = "tiny", config: Optional[NPUConfig] = None
) -> List[ValidationRow]:
    """Compare the two timing paths on every zoo workload."""
    config = config or NPUConfig.paper_default()
    compiler = TilingCompiler(config)
    dram = DRAMModel(config.dram_bytes_per_cycle)
    core = NPUCore(config, NoProtection(), dram)
    rows: List[ValidationRow] = []
    for model in zoo.paper_models(profile):
        program = compiler.compile(model)
        analytic = core.run_analytic(program)
        with fastpath.reference():
            detailed = core.run_detailed(program)
        rows.append(
            ValidationRow(
                workload=model.name,
                analytic_cycles=analytic.cycles,
                detailed_cycles=detailed.cycles,
            )
        )
    return rows


def validate_all(profile: str = "tiny") -> bool:
    """Print the validation report; return True when every row passes."""
    rows = validate_timing_paths(profile)
    print(f"timing-path consistency ({profile} profile, exact):")
    for row in rows:
        print(f"  {row}")
    passed = all(row.ok for row in rows)
    print("all consistent" if passed else "INCONSISTENT PATHS")
    return passed


if __name__ == "__main__":
    raise SystemExit(0 if validate_all() else 1)
