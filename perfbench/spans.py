"""In-memory span recorder wrapped around the program's public entry points.

A traced op imports this module inside the op's own interpreter (see
``shim.py``), wraps every entry point in :data:`ENTRY_POINTS` and keeps one
span per call in memory: ``[span_id, parent_id, name, start, end]``.  The
spans are written out once, when the op ends, and aggregated by the
benchmark process with :func:`aggregate`.

An entry point that no longer exists (its module or attribute is gone) is
reported as ``absent`` instead of failing the op, so the benchmark keeps
running after a change that deletes a code path.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(layer metric name, module, attribute path)``.  Two entries may share
#: a name; their spans then count as one layer.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("compiler.compile", "repro.driver.compiler", "TilingCompiler.compile"),
    ("workloads.cache_key", "repro.workloads.model", "ModelGraph.cache_key"),
    ("scheduler.run", "repro.driver.scheduler", "MultiTaskScheduler.run"),
    ("core.run_detailed", "repro.npu.core", "NPUCore.run_detailed"),
    ("core.run_analytic", "repro.npu.core", "NPUCore.run_analytic"),
    ("serving.simulate", "repro.serving.queueing", "ServeSimulator.run"),
    ("serving.generate", "repro.serving.workload", "generate"),
    ("serving.report", "repro.serving.report", "ServeReport.build"),
    ("serving.report", "repro.serving.report", "ServeReport.render"),
    ("telemetry.flow_complete", "repro.telemetry.flow", "FlowTracker.complete"),
    ("telemetry.audit_record", "repro.telemetry.audit", "AuditLedger.record"),
    ("store.ingest", "repro.store.store", "ingest_quietly"),
    ("experiments.export", "repro.experiments.export", "write"),
    ("experiments.run_one", "repro.experiments.all", "run_one"),
    ("cluster.run", "repro.serving.cluster", "ClusterSimulator.run"),
)

#: Span = ``[span_id, parent_id, name, start_s, end_s]``; parent -1 = root.
Span = List[Any]


def _experiment_span_name(args: tuple, kwargs: dict) -> str:
    exp_id = args[0] if args else kwargs.get("exp_id", "unknown")
    return f"experiments.{exp_id}"


#: Entry points whose span name depends on the call (one span name per
#: experiment, so the trace says which experiment moved ``wall_s``).
SPAN_NAMERS: Dict[str, Callable[[tuple, dict], str]] = {
    "experiments.run_one": _experiment_span_name,
}


class Recorder:
    """Records spans of the wrapped entry points for one op."""

    def __init__(self, op_id: str, clock: Callable[[], float] = time.perf_counter):
        self.op_id = op_id
        self.clock = clock
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.originals: Dict[str, Any] = {}
        #: compile calls whose (model key, budget) this process had compiled.
        self.compile_repeats = 0
        self._compiled: set = set()
        #: id(AuditLedger) -> its ``dropped`` count after the latest record.
        self._audit_dropped: Dict[int, int] = {}
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    def install(self, entry_points: Iterable[Tuple[str, str, str]] = ENTRY_POINTS) -> None:
        """Wrap each entry point; note the ones that cannot be found."""
        for name, module_name, path in entry_points:
            try:
                module = importlib.import_module(module_name)
                owner, leaf = _owner(module, path)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._patch(name, module, owner, leaf, raw)

    def _patch(self, name: str, module, owner, leaf: str, raw: Any) -> None:
        if isinstance(raw, property):
            self.originals[name] = raw.fget
            wrapped: Any = property(
                self.wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__
            )
        elif isinstance(raw, (classmethod, staticmethod)):
            self.originals[name] = raw.__func__
            wrapped = type(raw)(self.wrap(name, raw.__func__))
        else:
            self.originals[name] = raw
            wrapped = self.wrap(name, raw)
        setattr(owner, leaf, wrapped)
        if owner is module:
            # ``from module import fn`` copies made before the patch.
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", {})
                if other is not module and namespace.get(leaf) is raw:
                    setattr(other, leaf, wrapped)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return *fn* recording one span per call under *name*."""
        spans, stack, clock = self.spans, self._stack, self.clock
        namer = SPAN_NAMERS.get(name)
        before = self._before_compile if name == "compiler.compile" else None
        after = self._after_audit if name == "telemetry.audit_record" else None
        signature = _signature(fn) if before else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(signature, args, kwargs)
            span_id = len(spans)
            span = [span_id, stack[-1] if stack else -1,
                    namer(args, kwargs) if namer else name, clock(), 0.0]
            spans.append(span)
            stack.append(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if after is not None:
                    after(args)

        return traced

    # ------------------------------------------------------------------
    def _before_compile(self, signature, args: tuple, kwargs: dict) -> None:
        """Count a compile of a (model key, budget) already compiled here."""
        key_of = self.originals.get("workloads.cache_key")
        if signature is None or key_of is None:
            return
        try:
            bound = signature.bind(*args, **kwargs)
            compiler = bound.arguments["self"]
            budget = (bound.arguments.get("spad_budget_bytes")
                      or compiler.config.spad_bytes)
            key = (key_of(bound.arguments["model"]), budget)
        except (TypeError, KeyError, AttributeError):
            return
        if key in self._compiled:
            self.compile_repeats += 1
        self._compiled.add(key)

    def _after_audit(self, args: tuple) -> None:
        if args:
            self._audit_dropped[id(args[0])] = getattr(args[0], "dropped", 0)

    def dump(self) -> Dict[str, Any]:
        """The op's trace as plain JSON data."""
        return {
            "op": self.op_id,
            "spans": self.spans,
            "absent": self.absent,
            "compile_repeats": self.compile_repeats,
            "audit_dropped": sum(self._audit_dropped.values()),
        }


def _owner(module, path: str):
    owner = module
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


def _signature(fn: Callable) -> Optional[inspect.Signature]:
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


# ----------------------------------------------------------------------
# Aggregation (benchmark process)
# ----------------------------------------------------------------------
def covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ()))
        for sid, _, _, start, end in spans
    }


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``total_s``.

    ``total_s`` sums the durations of outermost spans only, so a recursive
    call is not counted twice.
    """
    by_id = {span[0]: span for span in spans}
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for sid, parent, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[sid]
        while parent >= 0 and by_id[parent][2] != name:
            parent = by_id[parent][1]
        if parent < 0:
            row["total_s"] += end - start
    return out
