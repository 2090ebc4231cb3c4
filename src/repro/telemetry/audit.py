"""Append-only security audit ledger.

TEE deployments need more than counters: they need a **replayable record
of every access-control decision** — which Guarder register denied which
request, when the device switched worlds, which router channel was
granted to whom.  The :class:`AuditLedger` collects those decisions as
append-only records stamped with the simulated cycle, the requesting
world and the flow ID of the request being judged (when one exists), and
serialises them to deterministic JSONL.

Record kinds emitted by the instrumented components::

    guarder.deny        Guarder translation/checking denial (reason in detail)
    guarder.program     checking/translation register programmed
    iommu.deny          IOMMU translation fault or permission/world violation
    smmu.world_switch   TrustZone device NS-bit flip (+ IOTLB shootdown)
    noc.grant           peephole authentication locked a receive channel
    noc.release         a receive channel was released
    noc.deny            peephole rejected a packet (NoCAuthError)
    spad.deny           scratchpad isolation / partition violation
    monitor.submit      secure-task verification verdict (allow/deny)
    monitor.schedule    secure-task scheduling verdict (allow/deny)
    monitor.complete    secure-task teardown
    privilege.deny      a normal-world agent attempted a secure instruction

Determinism: :meth:`to_jsonl` sorts records by ``(origin, seq)`` and
dumps them with sorted keys and compact separators, so a ledger merged
from per-task sub-ledgers (each ingested under a stable *origin* such as
the attack name) renders to an **identical byte sequence regardless of
how many worker processes produced it** — the property ``repro audit
--jobs 1`` vs ``--jobs 4`` is tested on.

Storage: each appended decision is one compact row, the flat tuple
``(seq, origin, cycle, kind, decision, world, flow, *detail keys,
*detail values)``; the record dicts that :attr:`records`, :meth:`find`,
:meth:`sorted_records` and :meth:`to_jsonl` return are built on read
(detail keys sorted).  A row of plain strings and numbers holds no
container, so the garbage collector stops tracking it at its first
collection instead of re-scanning every ledgered decision in each full
collection.  While a subscriber wants a record (every record, or the
decisions it subscribed to) the dict is also built at record time and
handed to it.  Ingested foreign records are kept as the dicts they arrive
as.  Detail values that are not JSON primitives are converted with
``str`` when recorded, so a later mutation of the caller's object
cannot change the ledger.

The ledger is disabled by default; ``telemetry.scoped()`` enables it
(records are cheap: only decisions are recorded, never per-packet
traffic, unless a caller opts into ``verbose`` allow records).
"""

from __future__ import annotations

import json
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union,
)

#: A compact row (own appends) or a record dict (ingested).
Row = Union[Tuple[Any, ...], Dict[str, Any]]
#: An observer and the decisions it subscribed to (None = all).
Subscriber = Tuple[Callable[[Dict[str, Any]], None], Optional[FrozenSet[str]]]


class AuditLedger:
    """Append-only, deterministic record of access-control decisions."""

    def __init__(self, enabled: bool = False, max_records: int = 500_000):
        self.enabled = enabled
        #: Also record per-request *allow* decisions on the hot path
        #: (``repro audit`` turns this on; perf runs leave it off).
        self.verbose = False
        #: Hard cap; records beyond it are counted in ``dropped``.
        self.max_records = max_records
        self.dropped = 0
        #: Timebase hint: issuing engines set this to their cycle cursor
        #: before driving downstream components, so a denial raised deep
        #: in an access controller is stamped with the request's time.
        self.clock = 0.0
        self._rows: List[Row] = []
        self._next_seq = 0
        self._origin = ""
        #: Streaming observers (e.g. the security sentinel) and the
        #: decisions each wants (None = all), notified on every
        #: *appended* record — never on ingest (those records were
        #: already observed live in the worker that produced them) and
        #: never when the ledger is disabled or dropping.
        self._subscribers: List[Subscriber] = []

    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.verbose = False

    def reset(self) -> None:
        self._rows.clear()
        self._next_seq = 0
        self._origin = ""
        self.dropped = 0
        self.clock = 0.0
        self.verbose = False
        self._subscribers.clear()

    # ------------------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[Dict[str, Any]], None],
        decisions: Optional[Iterable[str]] = None,
    ) -> None:
        """Register a streaming observer called with each appended record.

        Callbacks run synchronously inside :meth:`record`, in
        subscription order, and must not append to the ledger themselves
        (a detector reacting to a decision is an *observer*, not a new
        decision source).  With *decisions*, the callback sees only
        records whose decision is one of them, and a record no
        subscriber wants is not built into a dict at record time."""
        if all(subscribed != callback for subscribed, _ in self._subscribers):
            self._subscribers.append(
                (callback, None if decisions is None else frozenset(decisions))
            )

    def unsubscribe(self, callback: Callable[[Dict[str, Any]], None]) -> None:
        self._subscribers[:] = [
            (subscribed, wanted) for subscribed, wanted in self._subscribers
            if subscribed != callback
        ]

    def __len__(self) -> int:
        return len(self._rows)

    def set_origin(self, origin: str) -> None:
        """Stable partition key for records appended from now on (used by
        parallel runners to keep the merged ledger order-independent)."""
        self._origin = origin

    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        decision: str,
        cycle: Optional[float] = None,
        world: str = "",
        flow: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Append one decision record.

        *decision* is ``"allow"``, ``"deny"`` or ``"event"`` (state
        changes like world switches that are neither).  *cycle* defaults
        to the ledger's :attr:`clock`.  *flow* is the flow ID of the
        request being judged, or None when the decision is not tied to a
        request (register programming, scratchpad port accesses).
        """
        if not self.enabled:
            return
        if len(self._rows) >= self.max_records:
            self.dropped += 1
            return
        for value in detail.values():
            if not (value is None or isinstance(value, _PRIMITIVES)):
                detail = {k: _jsonable(v) for k, v in detail.items()}
                break
        row = (self._next_seq, self._origin,
               float(self.clock if cycle is None else cycle),
               kind, decision, world, flow, *detail, *detail.values())
        self._next_seq += 1
        self._rows.append(row)
        entry = None
        for callback, wanted in self._subscribers:
            if wanted is None or decision in wanted:
                if entry is None:
                    entry = _build(row)
                callback(entry)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[Dict[str, Any]]:
        return [_build(row) for row in self._rows]

    def find(
        self,
        kind: Optional[str] = None,
        decision: Optional[str] = None,
        world: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Records matching every given criterion (None = wildcard)."""
        out = []
        for row in self._rows:
            record = _build(row)
            if kind is not None and record["kind"] != kind:
                continue
            if decision is not None and record["decision"] != decision:
                continue
            if world is not None and record["world"] != world:
                continue
            out.append(record)
        return out

    def kinds(self) -> Dict[str, int]:
        """``kind -> record count`` over the ledger."""
        out: Dict[str, int] = {}
        for row in self._rows:
            kind = row["kind"] if type(row) is dict else row[3]
            out[kind] = out.get(kind, 0) + 1
        return dict(sorted(out.items()))

    def ingest(
        self, records: Iterable[Dict[str, Any]], origin: Optional[str] = None
    ) -> None:
        """Fold a foreign sub-ledger (e.g. from a worker process) in.

        When *origin* is given it overrides each record's origin, giving
        the sub-ledger a stable identity independent of which worker ran
        it; the per-record ``seq`` is preserved so ordering *within* one
        origin survives the merge.
        """
        if not self.enabled:
            return
        for record in records:
            record = dict(record)
            if origin is not None:
                record["origin"] = origin
            if len(self._rows) >= self.max_records:
                self.dropped += 1
                continue
            self._rows.append(record)

    def sorted_records(self) -> List[Dict[str, Any]]:
        """Records in the deterministic replay order ``(origin, seq)``."""
        return sorted(
            (_build(row) for row in self._rows),
            key=lambda r: (r["origin"], r["seq"]),
        )

    def to_jsonl(self) -> str:
        """Deterministic JSONL rendering (one record per line).

        Identical input records produce identical bytes regardless of
        append/ingest order — the replay-determinism contract.
        """
        lines = [
            json.dumps(r, sort_keys=True, separators=(",", ":"), default=str)
            for r in self.sorted_records()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- scoped-state plumbing (used by ``telemetry.scoped``) ----------
    def _export_state(
        self,
    ) -> Tuple[bool, bool, List[Row], int, str, int, float,
               List[Subscriber]]:
        return (self.enabled, self.verbose, self._rows, self._next_seq,
                self._origin, self.dropped, self.clock, self._subscribers)

    def _restore_state(
        self,
        state: Tuple[bool, bool, List[Row], int, str, int, float,
                     List[Subscriber]],
    ) -> None:
        (self.enabled, self.verbose, self._rows, self._next_seq,
         self._origin, self.dropped, self.clock, self._subscribers) = state


_PRIMITIVES = (str, int, float, bool)


def _jsonable(value: Any) -> Any:
    """Coerce a detail value to a JSON-stable primitive."""
    if isinstance(value, _PRIMITIVES) or value is None:
        return value
    return str(value)


def _build(row: Row) -> Dict[str, Any]:
    """A fresh record dict for *row* (detail keys sorted; the values were
    made JSON-stable when the row was recorded)."""
    if type(row) is dict:
        return dict(row)
    half = (len(row) - 7) // 2  # detail keys, then as many values
    return {
        "seq": row[0], "origin": row[1], "cycle": row[2], "kind": row[3],
        "decision": row[4], "world": row[5], "flow": row[6],
        "detail": dict(sorted(zip(row[7:7 + half], row[7 + half:]))),
    }
