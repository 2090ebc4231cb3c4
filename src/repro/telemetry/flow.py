"""Causal request-flow tracing: one record per DMA/NoC request.

The aggregate telemetry (metrics, profiler) answers *how much* time each
mechanism cost in total; the :class:`FlowTracker` answers *which request*
paid it.  Every :class:`~repro.common.types.DmaRequest` the DMA engine
issues (and every NoC packet the fabric injects) is assigned a **flow
ID** that rides the request/flit through the access controllers, the NoC
and the memory hierarchy.  When the request completes, the issuing
engine hands the tracker the end-to-end latency plus an ordered list of
``(stage, component, cycles)`` claims, and the tracker turns them into a
:class:`FlowRecord` — a span chain whose per-stage *queueing*, *service*
and *security* components **sum exactly to the end-to-end latency**.

Exactness reuses the profiler's :func:`~repro.telemetry.profiler.split_exact`
discipline: claims are clamped in order against the cycles still
unaccounted for and the remainder lands on a designated residual stage.
The arithmetic is integer: every claim is lifted onto one common
denominator (:func:`~repro.telemetry.profiler.split_scaled`) and only the
resulting span components become exact rationals
(:class:`fractions.Fraction`) — so ``sum(stage.queueing + stage.service +
stage.security) == record.total`` holds bit-for-bit, by construction, for
every completed flow (property-tested over the model zoo × protection
configs).

Completing a flow is cheap: :meth:`FlowTracker.complete` stores the
claims on the :class:`FlowRecord`, and the span chain is built from them
on the first read of :attr:`FlowRecord.stages` and cached.  Every reader
(reports, ``verify_decomposition``, the Chrome-trace export, which reads
eagerly while the tracer is live) sees the same values; a serving run that
only counts its flows never builds a span.

Components along the path that *see* a flow but do not own its timeline
(the IOMMU walker, the L2, the DRAM channel) annotate it instead via
:meth:`FlowTracker.accumulate` — per-flow walk counts, hit/miss bytes —
without touching the partition.

Like every telemetry singleton the tracker is **disabled by default**;
``telemetry.scoped(flow=True)`` turns it on for a block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

# ``repro.telemetry`` imports this module while it initialises; the
# partially-initialised package is enough here, because its ``tracer`` is
# only read when a flow completes.
from repro import telemetry as _telemetry
from repro.telemetry.profiler import _exact, split_scaled

_ZERO = Fraction(0)

#: Decomposition components of one stage span.
COMPONENTS = ("queueing", "service", "security")


@dataclass
class StageSpan:
    """One stage of a flow: a named interval with an exact decomposition."""

    stage: str
    enter: float
    exit: float
    queueing: Fraction = _ZERO
    service: Fraction = _ZERO
    security: Fraction = _ZERO

    @property
    def total(self) -> Fraction:
        return self.queueing + self.service + self.security

    def component(self, name: str) -> Fraction:
        return getattr(self, name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "enter": self.enter,
            "exit": self.exit,
            "queueing": float(self.queueing),
            "service": float(self.service),
            "security": float(self.security),
        }


#: ``(total, parts, residual)`` as handed to :meth:`FlowTracker.complete`.
Claims = Tuple[Any, Tuple[Tuple[str, str, Any], ...], Tuple[str, str]]


def build_stages(issue_ts: float, claims: Claims) -> List[StageSpan]:
    """The exact span chain of one flow's *claims*.

    Stages appear in first-claim order (the residual stage last unless it
    was claimed earlier) with back-to-back timestamps from *issue_ts*; a
    stage left with zero cycles is skipped.
    """
    total, parts, residual = claims
    scale, scaled = split_scaled(
        total, [((stage, comp), cycles) for stage, comp, cycles in parts],
        residual,
    )
    spans: List[StageSpan] = []
    cursor = issue_ts
    for stage in dict.fromkeys([part[0] for part in parts] + [residual[0]]):
        nums = [scaled.get((stage, comp), 0) for comp in COMPONENTS]
        width = sum(nums)
        if not width:
            continue
        queueing, service, security = (
            Fraction(num, scale) if num else _ZERO for num in nums
        )
        # ``width / scale`` is the correctly rounded float of the span's
        # exact total, as ``float(span.total)`` would be.
        exit_ts = cursor + width / scale
        spans.append(StageSpan(stage, cursor, exit_ts,
                               queueing, service, security))
        cursor = exit_ts
    return spans


@dataclass
class FlowRecord:
    """One completed request flow: identity, span chain, annotations."""

    flow_id: int
    kind: str  # "dma" | "noc"
    issue_ts: float
    end_ts: float
    #: Exact end-to-end latency; ``sum(span totals) == total`` always.
    total: Fraction
    #: The stage claims the span chain is built from on first read.
    claims: Claims
    world: str = ""
    stream: str = ""
    nbytes: int = 0
    #: Issuing context (the NPU layer name for DMA flows).
    context: str = ""
    #: Free-form accumulated annotations (walk counts, hit bytes, ...).
    meta: Dict[str, float] = field(default_factory=dict)
    _stages: Optional[List[StageSpan]] = field(
        default=None, init=False, repr=False, compare=False,
    )

    @property
    def stages(self) -> List[StageSpan]:
        """The span chain, built from :attr:`claims` on first read."""
        if self._stages is None:
            self._stages = build_stages(self.issue_ts, self.claims)
        return self._stages

    @property
    def security_cycles(self) -> Fraction:
        return sum((s.security for s in self.stages), _ZERO)

    @property
    def queueing_cycles(self) -> Fraction:
        return sum((s.queueing for s in self.stages), _ZERO)

    @property
    def service_cycles(self) -> Fraction:
        return sum((s.service for s in self.stages), _ZERO)

    def stage(self, name: str) -> Optional[StageSpan]:
        for span in self.stages:
            if span.stage == name:
                return span
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "flow": self.flow_id,
            "kind": self.kind,
            "world": self.world,
            "stream": self.stream,
            "bytes": self.nbytes,
            "context": self.context,
            "issue_ts": self.issue_ts,
            "end_ts": self.end_ts,
            "total": float(self.total),
            "stages": [s.to_dict() for s in self.stages],
            "meta": dict(sorted(self.meta.items())),
        }


class FlowTracker:
    """Allocates flow IDs and assembles exact per-request span chains."""

    def __init__(self, enabled: bool = False, max_flows: int = 200_000):
        self.enabled = enabled
        #: Hard cap on retained records; completions beyond it are counted
        #: in ``dropped`` (IDs keep allocating so audit stamps stay valid).
        self.max_flows = max_flows
        self.dropped = 0
        self._records: Dict[int, FlowRecord] = {}
        #: Annotations accumulated before the flow completes.
        self._pending_meta: Dict[int, Dict[str, float]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._records.clear()
        self._pending_meta.clear()
        self._next_id = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def allocate(self) -> Optional[int]:
        """Hand out the next flow ID (None while disabled)."""
        if not self.enabled:
            return None
        flow_id = self._next_id
        self._next_id += 1
        return flow_id

    def accumulate(self, flow_id: Optional[int], key: str, amount: float) -> None:
        """Add *amount* to annotation *key* of a (possibly in-flight) flow."""
        if not self.enabled or flow_id is None:
            return
        record = self._records.get(flow_id)
        meta = (
            record.meta
            if record is not None
            else self._pending_meta.setdefault(flow_id, {})
        )
        meta[key] = meta.get(key, 0.0) + amount

    def complete(
        self,
        flow_id: Optional[int],
        kind: str,
        issue_ts: float,
        total: float,
        parts: Sequence[Tuple[str, str, float]],
        residual: Tuple[str, str],
        world: str = "",
        stream: str = "",
        nbytes: int = 0,
        context: str = "",
        track: str = "",
    ) -> Optional[FlowRecord]:
        """Close a flow with an exact stage decomposition.

        *parts* is an ordered list of ``(stage, component, cycles)``
        claims (component ∈ ``COMPONENTS``); whatever the claims leave
        unaccounted lands on the *residual* ``(stage, component)``.  Stage
        spans get back-to-back timestamps starting at *issue_ts*, in
        first-claim order; they are built from the stored claims when
        :attr:`FlowRecord.stages` is first read.  Emits Chrome-trace flow
        arrows (``ph s/t/f``) when the tracer is live so Perfetto links the
        causal chain across tracks.
        """
        if not self.enabled or flow_id is None:
            return None
        record = FlowRecord(
            flow_id=flow_id,
            kind=kind,
            issue_ts=issue_ts,
            end_ts=issue_ts + float(total),
            total=_exact(total),
            claims=(total, tuple(parts), residual),
            world=world,
            stream=stream,
            nbytes=nbytes,
            context=context,
        )
        record.meta.update(self._pending_meta.pop(flow_id, {}))
        if len(self._records) >= self.max_flows:
            self.dropped += 1
            return None
        self._records[flow_id] = record
        if _telemetry.tracer.enabled:
            self._emit_trace(record, track or kind)
        return record

    def abort(self, flow_id: Optional[int]) -> None:
        """Drop an in-flight flow (e.g. its request was denied)."""
        if flow_id is not None:
            self._pending_meta.pop(flow_id, None)

    # ------------------------------------------------------------------
    def _emit_trace(self, record: FlowRecord, issue_track: str) -> None:
        """Chrome-trace spans + flow arrows for one completed flow."""
        tracer = _telemetry.tracer
        flow_track = f"flow.{record.kind}"
        name = f"flow#{record.flow_id}"
        tracer.flow_point(
            name, "flow", "s", record.flow_id, ts=record.issue_ts,
            track=issue_track,
        )
        for span in record.stages:
            tracer.span(
                span.stage, "flow", ts=span.enter,
                dur=span.exit - span.enter, track=flow_track,
                flow=record.flow_id,
                security=float(span.security), queueing=float(span.queueing),
            )
            tracer.flow_point(
                name, "flow", "t", record.flow_id, ts=span.enter,
                track=flow_track,
            )
        tracer.flow_point(
            name, "flow", "f", record.flow_id, ts=record.end_ts,
            track=flow_track,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[FlowRecord]:
        """Completed flows in allocation order."""
        return [self._records[k] for k in sorted(self._records)]

    def get(self, flow_id: int) -> Optional[FlowRecord]:
        return self._records.get(flow_id)

    # -- scoped-state plumbing (used by ``telemetry.scoped``) ----------
    def _export_state(
        self,
    ) -> Tuple[bool, Dict[int, FlowRecord], Dict[int, Dict[str, float]],
               int, int]:
        return (self.enabled, self._records, self._pending_meta,
                self._next_id, self.dropped)

    def _restore_state(
        self,
        state: Tuple[bool, Dict[int, FlowRecord], Dict[int, Dict[str, float]],
                     int, int],
    ) -> None:
        (self.enabled, self._records, self._pending_meta,
         self._next_id, self.dropped) = state
