"""Differential test: the compact audit ledger against the eager-dict one.

:class:`~repro.telemetry.audit.AuditLedger` stores each decision as a
tuple row and builds the record dict on read.  :class:`EagerLedger`
below is the ledger it replaced — one sorted dict per record, built at
record time — kept as the oracle.  Hypothesis drives both with the same
stream of appends (enum, ``World`` and mutable detail values),
subscribers (one of them filtered to denials) attached and detached
mid-stream, foreign-dict ingests and origin changes, under a cap small
enough to be reached, and requires every read to agree.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import Permission, World
from repro.noc.router import NoCPolicy
from repro.telemetry.audit import AuditLedger


class EagerLedger:
    """The eager-dict ledger: every record built and sorted on append."""

    def __init__(self, max_records: int):
        self.max_records = max_records
        self.dropped = 0
        self.clock = 0.0
        self._records: List[Dict[str, Any]] = []
        self._next_seq = 0
        self._origin = ""
        self._subscribers: List[Callable[[Dict[str, Any]], None]] = []

    def subscribe(self, callback) -> None:
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def set_origin(self, origin: str) -> None:
        self._origin = origin

    def __len__(self) -> int:
        return len(self._records)

    def record(self, kind, decision, cycle=None, world="", flow=None,
               **detail) -> None:
        if len(self._records) >= self.max_records:
            self.dropped += 1
            return
        entry = {
            "seq": self._next_seq,
            "origin": self._origin,
            "cycle": float(self.clock if cycle is None else cycle),
            "kind": kind,
            "decision": decision,
            "world": world,
            "flow": flow,
            "detail": {k: _jsonable(v) for k, v in sorted(detail.items())},
        }
        self._records.append(entry)
        self._next_seq += 1
        for callback in self._subscribers:
            callback(entry)

    @property
    def records(self) -> List[Dict[str, Any]]:
        return [dict(r) for r in self._records]

    def find(self, kind=None, decision=None, world=None):
        out = []
        for record in self._records:
            if kind is not None and record["kind"] != kind:
                continue
            if decision is not None and record["decision"] != decision:
                continue
            if world is not None and record["world"] != world:
                continue
            out.append(dict(record))
        return out

    def kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self._records:
            out[record["kind"]] = out.get(record["kind"], 0) + 1
        return dict(sorted(out.items()))

    def ingest(self, records, origin: Optional[str] = None) -> None:
        for record in records:
            record = dict(record)
            if origin is not None:
                record["origin"] = origin
            if len(self._records) >= self.max_records:
                self.dropped += 1
                continue
            self._records.append(record)

    def sorted_records(self):
        return sorted(self._records, key=lambda r: (r["origin"], r["seq"]))

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(r, sort_keys=True, separators=(",", ":"), default=str)
            for r in self.sorted_records()
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


KINDS = ("guarder.deny", "noc.grant", "serve.admit", "serve.world_switch")
DECISIONS = ("allow", "deny", "event")
WORLDS = ("", "normal", "secure", World.NORMAL, World.SECURE)

detail_values = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 2**40),
    st.floats(allow_nan=False), st.text(max_size=4),
    st.sampled_from(list(World) + list(NoCPolicy)
                    + [Permission.RW]),
    st.lists(st.integers(0, 9), max_size=3),
)
details = st.dictionaries(
    st.sampled_from(["tenant", "rid", "reason", "addr", "slot", "zz", "a"]),
    detail_values, max_size=4,
)
appends = st.tuples(
    st.just("record"), st.sampled_from(KINDS), st.sampled_from(DECISIONS),
    st.one_of(st.none(), st.floats(0, 1e9)), st.sampled_from(WORLDS),
    st.one_of(st.none(), st.integers(0, 50)), details,
)
foreign = st.fixed_dictionaries({
    "seq": st.integers(0, 20), "origin": st.sampled_from(["w0", "w1", ""]),
    "cycle": st.floats(0, 1e6), "kind": st.sampled_from(KINDS),
    "decision": st.sampled_from(DECISIONS), "world": st.sampled_from(WORLDS),
    "flow": st.one_of(st.none(), st.integers(0, 9)),
    "detail": st.dictionaries(st.sampled_from(["b", "a"]),
                              st.integers(0, 9), max_size=2),
})
operations = st.lists(st.one_of(
    appends, appends, appends,
    st.tuples(st.just("subscribe")),
    st.tuples(st.just("unsubscribe")),
    st.tuples(st.just("subscribe-denials")),
    st.tuples(st.just("unsubscribe-denials")),
    st.tuples(st.just("origin"), st.sampled_from(["", "a/x", "b/y"])),
    st.tuples(st.just("clock"), st.floats(0, 1e6)),
    st.tuples(st.just("ingest"), st.lists(foreign, max_size=3),
              st.one_of(st.none(), st.just("merged"))),
), max_size=40)


def _drive(ledger, ops) -> List[str]:
    """Apply *ops*; return what the subscribers saw, serialised on arrival
    (so a later change to a delivered dict cannot hide a difference).

    ``observer`` sees every record; ``denials`` subscribes to ``deny``
    decisions only — on the eager oracle, which has no decision filter,
    it subscribes to everything and filters itself."""
    seen: List[str] = []

    def observer(record):
        seen.append(json.dumps(record, sort_keys=True, default=str))

    def denials(record):
        if record["decision"] == "deny":
            seen.append("deny " + json.dumps(record, sort_keys=True,
                                             default=str))

    for op in ops:
        if op[0] == "record":
            _, kind, decision, cycle, world, flow, detail = op
            # Fresh mutable values per ledger, mutated after the append:
            # the ledger must have converted them already.
            detail = {k: list(v) if isinstance(v, list) else v
                      for k, v in detail.items()}
            ledger.record(kind, decision, cycle=cycle, world=world,
                          flow=flow, **detail)
            for value in detail.values():
                if isinstance(value, list):
                    value.append(99)
        elif op[0] == "subscribe":
            ledger.subscribe(observer)
        elif op[0] == "unsubscribe":
            ledger.unsubscribe(observer)
        elif op[0] == "subscribe-denials":
            if isinstance(ledger, EagerLedger):
                ledger.subscribe(denials)
            else:
                ledger.subscribe(denials, decisions=("deny",))
        elif op[0] == "unsubscribe-denials":
            ledger.unsubscribe(denials)
        elif op[0] == "origin":
            ledger.set_origin(op[1])
        elif op[0] == "clock":
            ledger.clock = op[1]
        else:
            ledger.ingest([dict(r) for r in op[1]], origin=op[2])
    return seen


@settings(max_examples=300, deadline=None)
@given(ops=operations, cap=st.integers(1, 25))
def test_compact_ledger_matches_eager_oracle(ops, cap):
    compact = AuditLedger(enabled=True, max_records=cap)
    eager = EagerLedger(max_records=cap)
    assert _drive(compact, ops) == _drive(eager, ops)
    assert len(compact) == len(eager)
    assert compact.dropped == eager.dropped
    assert compact.records == eager.records
    assert compact.sorted_records() == eager.sorted_records()
    assert compact.kinds() == eager.kinds()
    assert compact.to_jsonl() == eager.to_jsonl()
    for kind in (None,) + KINDS:
        for decision in (None,) + DECISIONS:
            for world in (None, "normal", World.SECURE):
                assert compact.find(kind, decision, world) == eager.find(
                    kind, decision, world
                )
    # Record dicts keep the eager key order (detail keys sorted too).
    for built, eager_record in zip(compact.records, eager.records):
        assert list(built) == list(eager_record)
        assert list(built["detail"]) == list(eager_record["detail"])
