"""Unit tests for the NPU core's two timing paths."""

import pytest

from repro.common.types import World
from repro.errors import ConfigError, PrivilegeError
from repro.memory.dram import DRAMModel
from repro.mmu.base import NoProtection
from repro.npu.config import NPUConfig
from repro.npu.core import NPUCore
from repro.workloads.synthetic import synthetic_cnn, synthetic_mlp
from repro.workloads import zoo


@pytest.fixture
def core(config, dram) -> NPUCore:
    return NPUCore(config, NoProtection(), dram)


class TestSecureWorldState:
    def test_starts_normal(self, core):
        assert core.world is World.NORMAL

    def test_secure_instruction_required(self, core):
        with pytest.raises(PrivilegeError):
            core.set_world(World.SECURE, issuer=World.NORMAL)
        core.set_world(World.SECURE, issuer=World.SECURE)
        assert core.world is World.SECURE


class TestAnalyticPath:
    def test_cycles_positive_and_layers_sum(self, core, mlp_program):
        result = core.run_analytic(mlp_program)
        assert result.cycles > 0
        assert result.cycles == pytest.approx(
            sum(l.cycles for l in result.layers)
        )

    def test_utilization_bounded(self, core, cnn_program):
        result = core.run_analytic(cnn_program)
        assert 0.0 < result.utilization < 1.0

    def test_share_slows_memory_bound_runs(self, core, compiler):
        program = compiler.compile(zoo.alexnet(56))
        full = core.run_analytic(program, share=1.0)
        half = core.run_analytic(program, share=0.5)
        assert half.cycles > full.cycles

    def test_flush_ordering(self, core, compiler):
        # Six layers so the five-layer granularity has a boundary to pay.
        program = compiler.compile(synthetic_cnn(depth=6))
        none = core.run_analytic(program).cycles
        tile = core.run_analytic(program, flush="tile").cycles
        layer = core.run_analytic(program, flush="layer").cycles
        layer5 = core.run_analytic(program, flush="layer5").cycles
        assert tile > layer > layer5 > none

    def test_flush_overhead_reported(self, core, cnn_program):
        flushed = core.run_analytic(cnn_program, flush="tile")
        base = core.run_analytic(cnn_program)
        # Boundary costs are a (large) part of the slowdown; the rest is
        # the lost cross-quantum pipelining.
        assert 0 < flushed.flush_overhead_cycles <= flushed.cycles - base.cycles

    def test_unknown_granularity(self, core, cnn_program):
        with pytest.raises(ConfigError):
            core.run_analytic(cnn_program, flush="bogus")

    def test_normalized_to(self, core, cnn_program):
        a = core.run_analytic(cnn_program)
        b = core.run_analytic(cnn_program, flush="tile")
        assert b.normalized_to(a) < 1.0
        assert a.normalized_to(a) == 1.0


class TestDetailedPath:
    def test_matches_analytic_for_stall_free_controller(
        self, config, dram, compiler
    ):
        """The two paths describe the same schedule; under a stall-free
        controller they charge exactly the same cycles."""
        for model in (synthetic_mlp(), synthetic_cnn(), zoo.yololite(56)):
            program = compiler.compile(model)
            core = NPUCore(config, NoProtection(), dram)
            analytic = core.run_analytic(program)
            detailed = core.run_detailed(program)
            assert detailed.cycles == analytic.cycles
            assert detailed.macs == analytic.macs

    def test_detailed_flush_matches_analytic_flush(self, config, dram, compiler):
        program = compiler.compile(synthetic_cnn())
        core = NPUCore(config, NoProtection(), dram)
        for flush in ("tile", "layer", "layer5"):
            analytic = core.run_analytic(program, flush=flush)
            detailed = core.run_detailed(program, flush=flush)
            assert detailed.cycles == analytic.cycles
            assert detailed.flush_overhead_cycles == (
                analytic.flush_overhead_cycles
            )

    def test_detailed_reports_controller_stats(self, config, dram, mlp_program):
        core = NPUCore(config, NoProtection(), dram)
        result = core.run_detailed(mlp_program)
        assert result.dma_requests > 0
        assert result.dma_packets >= result.dma_requests

    def test_stats_reset_between_runs(self, config, dram, mlp_program):
        core = NPUCore(config, NoProtection(), dram)
        first = core.run_detailed(mlp_program)
        second = core.run_detailed(mlp_program)
        assert first.dma_requests == second.dma_requests
