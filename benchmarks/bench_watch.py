"""Benchmark the streaming-observability overhead of a serving run.

Three legs, each timed as ``PAIRS`` back-to-back pairs of the two
configurations, after one warm-up run of each that fills the compile
caches (so the first timed run does not pay the tiling compile).  Each
overhead ratio is the median of the per-pair ratios: a neighbour's load
burst inflates one pair, not the median, where best-of-3 over runs of
0.05-0.2 s swung by +-0.25:

* **Windowed** — the ``nlp-mix`` scenario under ``snpu`` over a 20 s
  horizon (about 4k requests), plain and with ``window_ms`` set
  (tumbling counters, per-window latency reservoirs, the audit
  subscriber, exact reconciliation at close).  ``watch_overhead_ratio``
  (windowed / plain) has a budget of **<= 1.30**: windowing must stay
  under a 30 % tax on the serving simulation before it is worth
  shipping on by default.
* **Flows** — the ``default`` scenario under ``snpu`` at 250 rps over a
  20 s horizon (about 5k requests), per-request flow tracking off and
  on.  ``flow_overhead_ratio`` has a budget of **<= 2.0**, and every
  completion must leave exactly one flow record.
* **Audit** — the ``default`` scenario under ``flush-layer`` at 250 rps
  over a 20 s horizon (about 37k world switches), the security audit
  ledger off and on.  ``audit_overhead_ratio`` has a budget of
  **<= 1.35**, and the ledger must hold exactly one record per world
  switch plus one per secure-world admission.

``BENCH_watch.json`` at the repo root uses the two-section schema
``repro bench diff`` understands:

* ``metrics.deterministic`` — simulated results (completions, window
  count, per-window sums, SLO verdicts, flow and audit record counts).
  Bit-identical run to run; a change means the serving, windowing or
  ledger model changed and the committed baseline must move in the
  same PR.
* ``metrics.timing`` — median host seconds of each leg's two
  configurations and the three median pair ratios.

The script exits 1 when a ratio exceeds its budget or a record count
is off.

Usage::

    PYTHONPATH=src python benchmarks/bench_watch.py [duration_ms]
"""

from __future__ import annotations

import statistics
import sys
import time

from _common import write_bench
from repro import telemetry
from repro.serving.queueing import ServeSimulator
from repro.serving.workload import SCENARIOS
from repro.telemetry.slo import default_spec, evaluate

SCENARIO = "nlp-mix"
MECHANISM = "snpu"
SEED = 7
WINDOW_MS = 50.0
#: The windowed leg's horizon: long enough that the per-request path,
#: not start-up, dominates both runs.
DURATION_MS = 20_000.0
#: Alternated (off, on) pairs timed per leg.
PAIRS = 15
#: Streaming-layer overhead budget (windowed / plain host seconds).
OVERHEAD_BUDGET = 1.30
#: The flow leg: enough requests that the per-request path dominates.
FLOW_SCENARIO = "default"
FLOW_RPS = 250.0
FLOW_DURATION_MS = 20_000.0
#: Flow-tracking overhead budget (flows on / off host seconds).
FLOW_OVERHEAD_BUDGET = 2.0
#: The audit leg: the flush baseline ledgers every world switch.
AUDIT_MECHANISM = "flush-layer"
#: Audit-ledger overhead budget (ledger on / off host seconds).
AUDIT_OVERHEAD_BUDGET = 1.35


def _serve(scenario: str, duration_ms: float, mechanism: str = MECHANISM,
           window_ms=None, rps=None, flow: bool = False,
           audit_log: bool = True):
    """One timed serving run: ``(outcome, scope counts, seconds)``."""
    with telemetry.scoped(
        trace=False, profile=False, flow=flow, audit_log=audit_log
    ) as scope:
        sim = ServeSimulator(
            SCENARIOS[scenario], mechanism=mechanism, seed=SEED, rps=rps,
            duration_ms=duration_ms, window_ms=window_ms,
        )
        started = time.perf_counter()
        outcome = sim.run()
        elapsed = time.perf_counter() - started
        counts = {"flows": len(scope.flows), "audit": len(scope.audit),
                  "audit_dropped": scope.audit.dropped}
    return outcome, counts, elapsed


def _leg(base: dict, off: dict, on: dict):
    """Time PAIRS alternated runs of *base* updated with *off* and with
    *on*, after a warm-up of each.  Returns ``(off seconds, on seconds,
    on/off ratio, off run, on run)``: the medians over the pairs, and
    the last pair's ``(outcome, scope counts)``."""
    for extra in (off, on):
        _serve(**{**base, **extra, "duration_ms": 200.0})
    seconds = {"off": [], "on": []}
    runs = {}
    for _ in range(PAIRS):
        for side, extra in (("off", off), ("on", on)):
            outcome, counts, elapsed = _serve(**base, **extra)
            seconds[side].append(elapsed)
            runs[side] = (outcome, counts)
    median = statistics.median
    ratio = median(on_s / off_s
                   for off_s, on_s in zip(seconds["off"], seconds["on"]))
    return (median(seconds["off"]), median(seconds["on"]), ratio,
            runs["off"], runs["on"])


def main(duration_ms: float = DURATION_MS) -> int:
    plain_s, windowed_s, ratio, (outcome, _), (windowed, _) = _leg(
        {"scenario": SCENARIO, "duration_ms": duration_ms},
        {}, {"window_ms": WINDOW_MS},
    )
    flows_off, flows_on, flow_ratio, _, (flowed, flow_counts) = _leg(
        {"scenario": FLOW_SCENARIO, "duration_ms": FLOW_DURATION_MS,
         "rps": FLOW_RPS},
        {}, {"flow": True},
    )
    flow_records = flow_counts["flows"]
    flows_match = flow_records == len(flowed.completed)
    audit_off, audit_on, audit_ratio, _, (audited, audit_counts) = _leg(
        {"scenario": FLOW_SCENARIO, "duration_ms": FLOW_DURATION_MS,
         "rps": FLOW_RPS, "mechanism": AUDIT_MECHANISM},
        {"audit_log": False}, {"audit_log": True},
    )
    audit_records = audit_counts["audit"]
    # One ``serve.world_switch`` per world switch, one ``serve.admit``
    # per secure-world request (every admitted request completes).
    audit_expected = audited.world_switches + sum(
        1 for c in audited.completed if c.request.world == "secure"
    )
    audit_match = (audit_records == audit_expected
                   and not audit_counts["audit_dropped"])

    windows = windowed.windows
    timeline = windows.timeline()
    scenario = SCENARIOS[SCENARIO]
    spec = default_spec(
        SCENARIO, {t.name: t.sla_ms for t in scenario.tenants},
        window_ms=WINDOW_MS,
    )
    slo = evaluate(spec, timeline)

    deterministic = {
        "completed": len(windowed.completed),
        "completed_matches_plain": float(
            len(windowed.completed) == len(outcome.completed)),
        "windows": len(timeline),
        "window_completions_sum": float(sum(
            t["completions"] for rec in timeline
            for t in rec["tenants"].values())),
        "window_sla_ok_sum": float(sum(
            t["sla_ok"] for rec in timeline
            for t in rec["tenants"].values())),
        "flushes": float(windowed.flushes),
        "world_switches": float(windowed.world_switches),
        "slo_alerts_fired": float(len(slo.fired)),
        "slo_window_breaches": float(len(slo.breaches)),
        "flow_completed": len(flowed.completed),
        "flow_records": flow_records,
        "flow_records_match_completed": float(flows_match),
        "audit_world_switches": audited.world_switches,
        "audit_records": audit_records,
        "audit_records_match_decisions": float(audit_match),
    }
    timing = {
        "plain_serve_seconds": round(plain_s, 4),
        "windowed_serve_seconds": round(windowed_s, 4),
        "watch_overhead_ratio": round(ratio, 4),
        "flows_off_serve_seconds": round(flows_off, 4),
        "flows_on_serve_seconds": round(flows_on, 4),
        "flow_overhead_ratio": round(flow_ratio, 4),
        "audit_off_serve_seconds": round(audit_off, 4),
        "audit_on_serve_seconds": round(audit_on, 4),
        "audit_overhead_ratio": round(audit_ratio, 4),
    }

    out = write_bench("watch", {
        "benchmark": "streaming observability overhead (repro watch path)",
        "scenario": SCENARIO,
        "mechanism": MECHANISM,
        "seed": SEED,
        "duration_ms": duration_ms,
        "window_ms": WINDOW_MS,
        "pairs": PAIRS,
        "overhead_budget": OVERHEAD_BUDGET,
        "flow_leg": {
            "scenario": FLOW_SCENARIO,
            "rps": FLOW_RPS,
            "duration_ms": FLOW_DURATION_MS,
        },
        "flow_overhead_budget": FLOW_OVERHEAD_BUDGET,
        "audit_leg": {
            "scenario": FLOW_SCENARIO,
            "mechanism": AUDIT_MECHANISM,
            "rps": FLOW_RPS,
            "duration_ms": FLOW_DURATION_MS,
        },
        "audit_overhead_budget": AUDIT_OVERHEAD_BUDGET,
        "metrics": {
            "deterministic": deterministic,
            "timing": timing,
        },
    })
    print(
        f"plain {plain_s:.3f}s  windowed {windowed_s:.3f}s  "
        f"overhead x{ratio:.3f} (budget x{OVERHEAD_BUDGET:g})"
    )
    print(
        f"flows off {flows_off:.3f}s  flows on {flows_on:.3f}s  "
        f"overhead x{flow_ratio:.3f} (budget x{FLOW_OVERHEAD_BUDGET:g}); "
        f"{flow_records} flow records for {len(flowed.completed)} completions"
    )
    print(
        f"audit off {audit_off:.3f}s  audit on {audit_on:.3f}s  "
        f"overhead x{audit_ratio:.3f} (budget x{AUDIT_OVERHEAD_BUDGET:g}); "
        f"{audit_records} audit records for {audit_expected} decisions"
    )
    print(f"wrote {out}")
    failures = []
    if ratio > OVERHEAD_BUDGET:
        failures.append(
            f"windowing overhead x{ratio:.3f} exceeds the "
            f"x{OVERHEAD_BUDGET:g} budget")
    if flow_ratio > FLOW_OVERHEAD_BUDGET:
        failures.append(
            f"flow-tracking overhead x{flow_ratio:.3f} exceeds the "
            f"x{FLOW_OVERHEAD_BUDGET:g} budget")
    if not flows_match:
        failures.append(
            f"{flow_records} flow records for "
            f"{len(flowed.completed)} completions")
    if audit_ratio > AUDIT_OVERHEAD_BUDGET:
        failures.append(
            f"audit-ledger overhead x{audit_ratio:.3f} exceeds the "
            f"x{AUDIT_OVERHEAD_BUDGET:g} budget")
    if not audit_match:
        failures.append(
            f"{audit_records} audit records ({audit_counts['audit_dropped']} "
            f"dropped) for {audit_expected} world switches + secure "
            f"admissions")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    ms = float(sys.argv[1]) if len(sys.argv) > 1 else DURATION_MS
    raise SystemExit(main(ms))
