"""Unit tests for the flow tracker and the flow-analysis report."""

import json
from fractions import Fraction

import pytest

from repro import telemetry
from repro.analysis.flows import FlowReport, verify_decomposition
from repro.telemetry.flow import FlowTracker


def _complete(tracker, flow_id, total, parts, **kw):
    kw.setdefault("kind", "dma")
    kw.setdefault("issue_ts", 0.0)
    return tracker.complete(
        flow_id, kw.pop("kind"), kw.pop("issue_ts"), total,
        parts=parts, residual=("memory", "service"), **kw,
    )


class TestFlowTracker:
    def test_disabled_allocates_nothing(self):
        tracker = FlowTracker()
        assert tracker.allocate() is None
        assert _complete(tracker, 0, 10.0, [("issue", "service", 4.0)]) is None
        assert tracker.records == []

    def test_ids_are_sequential(self):
        tracker = FlowTracker(enabled=True)
        assert [tracker.allocate() for _ in range(3)] == [0, 1, 2]

    def test_decomposition_is_exact(self):
        tracker = FlowTracker(enabled=True)
        fid = tracker.allocate()
        record = _complete(
            tracker, fid, 100.0,
            [("issue", "service", 4.0), ("security", "security", 7.0),
             ("memory", "service", 123.0)],  # over-claims; clamped
        )
        assert record.total == Fraction(100)
        assert sum((s.total for s in record.stages), Fraction(0)) == 100
        verify_decomposition([record])

    def test_fraction_total_keeps_its_exact_value(self):
        # The record's total is the exact value the split partitions, so a
        # non-dyadic total still decomposes exactly.
        tracker = FlowTracker(enabled=True)
        record = tracker.complete(
            tracker.allocate(), "dma", 0.0, Fraction(10, 3),
            parts=[("issue", "service", 1.0)], residual=("memory", "service"),
        )
        assert record.total == Fraction(10, 3)
        assert record.stage("memory").service == Fraction(7, 3)
        verify_decomposition([record])

    def test_stages_are_built_once_on_first_read(self):
        tracker = FlowTracker(enabled=True)
        record = _complete(
            tracker, tracker.allocate(), 10.0, [("issue", "service", 4.0)],
        )
        assert record.claims == (
            10.0, (("issue", "service", 4.0),), ("memory", "service"))
        assert record._stages is None
        stages = record.stages
        assert [s.stage for s in stages] == ["issue", "memory"]
        assert record.stages is stages

    def test_residual_absorbs_unclaimed_cycles(self):
        tracker = FlowTracker(enabled=True)
        record = _complete(
            tracker, tracker.allocate(), 50.0,
            [("issue", "service", 4.0)],
        )
        memory = record.stage("memory")
        assert memory is not None and memory.service == Fraction(46)

    def test_zero_total_stages_are_skipped(self):
        tracker = FlowTracker(enabled=True)
        record = _complete(
            tracker, tracker.allocate(), 10.0,
            [("issue", "service", 4.0), ("security", "security", 0.0)],
        )
        assert record.stage("security") is None
        verify_decomposition([record])

    def test_span_timestamps_are_back_to_back(self):
        tracker = FlowTracker(enabled=True)
        record = _complete(
            tracker, tracker.allocate(), 20.0,
            [("issue", "service", 4.0), ("memory", "service", 16.0)],
            issue_ts=1000.0,
        )
        assert record.stages[0].enter == 1000.0
        assert record.stages[0].exit == record.stages[1].enter
        assert record.stages[-1].exit == record.end_ts == 1020.0

    def test_accumulate_before_and_after_completion(self):
        tracker = FlowTracker(enabled=True)
        fid = tracker.allocate()
        tracker.accumulate(fid, "walk_cycles", 12.0)
        record = _complete(tracker, fid, 10.0, [("issue", "service", 4.0)])
        tracker.accumulate(fid, "walk_cycles", 3.0)
        assert record.meta["walk_cycles"] == 15.0

    def test_abort_drops_pending_meta(self):
        tracker = FlowTracker(enabled=True)
        fid = tracker.allocate()
        tracker.accumulate(fid, "walk_cycles", 12.0)
        tracker.abort(fid)
        record = _complete(tracker, fid, 10.0, [("issue", "service", 4.0)])
        assert "walk_cycles" not in record.meta

    def test_cap_counts_dropped(self):
        tracker = FlowTracker(enabled=True, max_flows=2)
        for _ in range(4):
            _complete(tracker, tracker.allocate(), 10.0,
                      [("issue", "service", 4.0)])
        assert len(tracker.records) == 2
        assert tracker.dropped == 2

    def test_scoped_swaps_state_in_and_out(self):
        assert not telemetry.flows.enabled
        with telemetry.scoped(trace=False, flow=True) as scope:
            fid = scope.flows.allocate()
            _complete(scope.flows, fid, 10.0, [("issue", "service", 4.0)])
            assert len(scope.flows.records) == 1
        assert not telemetry.flows.enabled
        assert telemetry.flows.records == []

    def test_chrome_trace_flow_arrows(self):
        with telemetry.scoped(trace=True, flow=True) as scope:
            fid = scope.flows.allocate()
            _complete(
                scope.flows, fid, 10.0,
                [("issue", "service", 4.0), ("memory", "service", 6.0)],
                track="npu.dma",
            )
            payload = json.loads(scope.tracer.to_chrome_trace())
        phases = [e["ph"] for e in payload["traceEvents"]
                  if e.get("cat") == "flow"]
        assert phases.count("s") == 1 and phases.count("f") == 1
        assert phases.count("t") == 2  # one per recorded stage
        spans = [e for e in payload["traceEvents"]
                 if e["ph"] == "X" and e["name"] in ("issue", "memory")]
        assert len(spans) == 2


class TestFlowReport:
    def _records(self):
        tracker = FlowTracker(enabled=True)
        for i, (total, security, context) in enumerate(
            [(100.0, 20.0, "conv1"), (50.0, 0.0, "conv1"),
             (300.0, 250.0, "fc"), (10.0, 0.0, "fc")]
        ):
            _complete(
                tracker, tracker.allocate(), total,
                [("issue", "service", 4.0),
                 ("security", "security", security)],
                context=context,
            )
        return tracker.records

    def test_totals_decompose_exactly(self):
        report = FlowReport(self._records())
        assert report.total == Fraction(460)
        assert report.queueing + report.service + report.security == 460
        assert float(report.security) == 270.0

    def test_slowest_ranking_is_deterministic(self):
        report = FlowReport(self._records(), top=2)
        assert [r.flow_id for r in report.slowest()] == [2, 0]

    def test_slowest_decile_is_at_least_one(self):
        report = FlowReport(self._records())
        decile = report.slowest_decile()
        assert len(decile) == 1 and decile[0].flow_id == 2
        assert report.decile_security_share() == pytest.approx(250 / 300)

    def test_stage_filter_ranks_by_stage(self):
        report = FlowReport(self._records(), top=5, stage="security")
        assert all(r.stage("security") for r in report.records)
        assert [r.flow_id for r in report.slowest()] == [2, 0]

    def test_layer_critical_paths(self):
        report = FlowReport(self._records())
        assert report.layers["fc"].critical_stage == "security"
        assert report.layers["conv1"].critical_stage == "memory"

    def test_render_formats(self):
        report = FlowReport(self._records())
        assert "Per-stage decomposition" in report.render("table")
        assert report.render("md").startswith("# Flow latency")
        payload = json.loads(report.render("json"))
        assert payload["flows"] == 4
        assert payload["total_cycles"] == 460.0
        assert {s["stage"] for s in payload["stages"]} >= {"issue", "memory"}
        for stat in payload["stages"]:
            assert {"p50", "p95", "p99"} <= set(stat)

    def test_verify_decomposition_raises_on_breach(self):
        records = self._records()
        records[0].total += 1  # corrupt the invariant
        with pytest.raises(AssertionError, match="stage components"):
            verify_decomposition(records)
