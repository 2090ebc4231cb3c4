"""Every served request leaves one exact flow record.

``repro serve`` tracks a flow per request but only counts them unless a
trace is written; the span chains are built when first read.  This
checks, over a real serving run, that the records still cover every
completion and that each one decomposes its latency exactly once its
spans are built.
"""

from fractions import Fraction

import pytest

from repro import telemetry
from repro.analysis.flows import FlowReport, verify_decomposition
from repro.serving.queueing import ServeSimulator
from repro.serving.workload import SCENARIOS


@pytest.mark.parametrize("mechanism", ["snpu", "flush-layer"])
def test_serve_flows_cover_every_request_exactly(mechanism):
    with telemetry.scoped(trace=False, profile=False, flow=True) as scope:
        outcome = ServeSimulator(
            SCENARIOS["default"], mechanism=mechanism, seed=3,
            duration_ms=400.0,
        ).run()
        records = scope.flows.records
    assert outcome.completed
    assert len(records) == len(outcome.completed)
    verify_decomposition(records)
    assert FlowReport(records).total == sum(
        (Fraction(done.latency) for done in outcome.completed), Fraction(0))
