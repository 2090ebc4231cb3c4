"""Benchmark the detailed-timing replay against the reference event walk.

Runs the three most expensive registered experiments (``fig13``,
``table1``, ``fig15``) at the ``eval`` profile twice each — once on the
reference event walk (inside ``fastpath.reference()``) and once on the
default engine, which prices every provably exact layer from the
compiled schedule — and writes ``BENCH_fastpath.json`` at the repo root
in the two-section schema ``repro bench diff`` understands:

* ``metrics.deterministic`` — figure-row identity between the two legs
  (the fast path's whole contract is bit-identical output), the result
  and row counts of each experiment, and fig13's fast-path routing
  counters (``fig13.fast_layers``, ``fig13.fallbacks`` and each
  ``fig13.fallbacks.<reason>``), so a layer that silently drops back to
  the event walk shows up as a bit-exact counter diff.
* ``metrics.timing`` — host wall-clock per experiment per leg and the
  ``<exp>_speedup`` ratios.  ``speedup`` in the metric name makes
  ``repro bench diff`` treat regressions as drops, not rises.

Both legs compile through the same tiling compiler, and each starts with
the compiler's blocking memo cleared, so the ratio isolates the timing
engine.  Only ``fig13`` spends its time in
``run_detailed``; ``table1`` and ``fig15`` barely call it and are timed
for the record only.

The script self-gates: it exits non-zero if any leg pair disagrees on
figure data or if a gated speedup (``SPEEDUP_FLOORS``: fig13 at 5x)
lands below its floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_fastpath.py [profile]

Regenerate the committed baseline with the same command and commit the
result whenever the fast path or the experiments deliberately change.
"""

from __future__ import annotations

import contextlib
import sys
import time

from _common import write_bench
from repro.driver import compiler
from repro.experiments import export
from repro.experiments.all import run_one
from repro.sim import fastpath

EXPERIMENTS = ("fig13", "table1", "fig15")
#: Minimum event-walk / replay wall-clock ratio per gated experiment.
SPEEDUP_FLOORS = {"fig13": 5.0}
#: Experiments whose fast-path routing counters are recorded.
COUNTED = ("fig13",)


def _figure_data(results) -> list:
    """Figure payloads only (rows/columns/notes), no telemetry metrics."""
    payloads = []
    for result in results:
        payload = export.to_dict(result)
        payload.pop("metrics", None)
        payloads.append(payload)
    return payloads


def _fast_counters(exp_id: str, results) -> dict:
    """``<exp>.fast_layers`` / ``<exp>.fallbacks[.<reason>]`` from the
    experiment's metrics snapshot (every result carries the same one)."""
    prefix = fastpath.GROUP_PREFIX + "."
    snapshot = results[0].metrics
    counters = {f"{exp_id}.fast_layers": 0, f"{exp_id}.fallbacks": 0}
    for key, value in snapshot.items():
        if key.startswith(prefix):
            counters[f"{exp_id}.{key[len(prefix):]}"] = value
    return counters


def _timed_run(exp_id: str, profile: str, fast: bool):
    compiler._BLOCKINGS.clear()
    with contextlib.nullcontext() if fast else fastpath.reference():
        start = time.perf_counter()
        results = run_one(exp_id, profile, outdir=None)
        elapsed = time.perf_counter() - start
    return results, elapsed


def main(profile: str = "eval") -> int:
    deterministic = {}
    timing = {}
    failures = []
    for exp_id in EXPERIMENTS:
        event_results, event_s = _timed_run(exp_id, profile, fast=False)
        fast_results, fast_s = _timed_run(exp_id, profile, fast=True)
        event_rows = _figure_data(event_results)
        fast_rows = _figure_data(fast_results)
        identical = event_rows == fast_rows
        speedup = event_s / fast_s if fast_s > 0 else float("inf")
        deterministic[f"{exp_id}.rows_identical"] = int(identical)
        deterministic[f"{exp_id}.result_count"] = len(event_rows)
        deterministic[f"{exp_id}.row_count"] = sum(
            len(p["rows"]) for p in event_rows
        )
        if exp_id in COUNTED:
            deterministic.update(_fast_counters(exp_id, fast_results))
        timing[f"{exp_id}_event_seconds"] = round(event_s, 4)
        timing[f"{exp_id}_fast_seconds"] = round(fast_s, 4)
        timing[f"{exp_id}_speedup"] = round(speedup, 2)
        print(
            f"{exp_id:8s} event {event_s:7.2f}s  fast {fast_s:7.2f}s  "
            f"speedup {speedup:6.2f}x  rows identical: {identical}"
        )
        if not identical:
            failures.append(f"{exp_id}: fast-path figure data diverged")
        floor = SPEEDUP_FLOORS.get(exp_id)
        if floor is not None and speedup < floor:
            failures.append(
                f"{exp_id}: speedup {speedup:.2f}x below the "
                f"{floor:.0f}x floor"
            )

    out = write_bench("fastpath", {
        "benchmark": "detailed-timing replay vs reference event walk "
                     "(fig13/table1/fig15)",
        "profile": profile,
        "speedup_floors": SPEEDUP_FLOORS,
        "metrics": {"deterministic": deterministic, "timing": timing},
    })
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
