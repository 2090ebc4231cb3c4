"""Fast path behind :meth:`repro.npu.core.NPUCore.run_detailed`.

The event walk pushes every DMA descriptor through the access
controller.  For most layers nothing on it can perturb timing: no flush,
world switch, attacker, tracer or functional copy, and a controller that
is stall-free (Guarder / NoProtection) or whose page walks follow from
the page-touch sequence and IOTLB state alone.  Those layers are
computed from the compiled schedule, bit-identical to the walk by
construction:

* **Stall-free layers: the segment fold.**
  :meth:`~repro.npu.core.NPUCore._layer_fold` (the analytic rule over
  the block shapes) prices the layer; the DMA cursor, stream/issue
  totals, systolic busy time, audit clock and transfer histogram advance
  by its totals.
* **The exactness gate.**  With D the largest power-of-two denominator
  (``float.as_integer_ratio``) among the operands — ``ISSUE_CYCLES``,
  each distinct stream time, each compute, the accumulators' starting
  values — every partial sum is an exact multiple of ``1/D`` while the
  accumulators stay below ``2**53 / D``, so the fold's ``count * max``
  products and reordered sums equal the walk's sequential ones.  A layer
  failing the gate (most at bandwidth share 0.3) takes the event walk.
* **Paging layers: sequential replay.**  :func:`_replay_paging` replays
  the IOTLB and every float accumulator in the walk's order.
* **Conservative eligibility.**  Only what the predicates below *prove*
  clean runs here (pages mapped with sufficient permissions, transfers
  covered by an allowing Guarder register pair, no flush, world switch,
  attacker or per-transfer telemetry); anything else takes the event
  walk and bumps ``sim.fastpath.fallbacks`` plus a per-reason counter.

Integer counters are batched (exact below 2**53) and the DMA transfer
histogram is an order-free ``{value: count}`` multiset.  The schedule
fold both engines read is cached on the layer object.  :func:`reference`
forces the event walk for a ``with`` block (tests, benchmarks).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import contextmanager
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.common.types import Permission, World
from repro.memory.pagetable import PageTable
from repro.mmu.base import NoProtection
from repro.mmu.guarder import NPUGuarder
from repro.mmu.iommu import IOMMU
from repro.mmu.smmu import TrustZoneSMMU

#: Metric group holding the fast-path counters
#: (``sim.fastpath.fast_layers``, ``sim.fastpath.fallbacks``, ...).
GROUP_PREFIX = "sim.fastpath"

_REFERENCE = False

_FOLD_ATTR = "_fastpath_fold"

_READ = Permission.READ
_WRITE = Permission.WRITE
# Raw int masks for the page-need union: the fold and the paging
# precheck run over hundreds of thousands of pages, where IntFlag
# __or__/__and__ dominate — plain ints carry the same lattice.
_READ_I = int(Permission.READ)
_WRITE_I = int(Permission.WRITE)
#: IntFlag member -> raw mask without the enum ``.value`` descriptor.
_PERM_MASK = {member: int(member) for member in Permission}


# ----------------------------------------------------------------------
# Reference switch
# ----------------------------------------------------------------------
@contextmanager
def reference() -> Iterator[None]:
    """Run every ``run_detailed`` in the block on the reference event walk
    (test / benchmark helper)."""
    global _REFERENCE
    saved = _REFERENCE
    _REFERENCE = True
    try:
        yield
    finally:
        _REFERENCE = saved


# ----------------------------------------------------------------------
# Telemetry counters
# ----------------------------------------------------------------------
def _metric_group():
    """The live ``sim.fastpath`` metric set of the current scope.

    ``MetricsRegistry.group`` registers a *fresh* group per call, so the
    already-registered set is reused when the current registry state has
    one; otherwise one is registered into the active scope.  Returns None
    while metrics are disabled (counting would be invisible anyway).
    """
    reg = telemetry.metrics
    if not reg.enabled:
        return None
    current = reg._groups.get(GROUP_PREFIX)
    if current is not None:
        return current
    return reg.group(GROUP_PREFIX)


def _count(name: str, n: int = 1) -> None:
    group = _metric_group()
    if group is not None:
        group.counter(name).inc(n)


def _fallback(reason: str) -> None:
    """Record one routing decision to the event simulator."""
    _count("fallbacks")
    _count(f"fallbacks.{reason}")


# ----------------------------------------------------------------------
# Schedule fold (once per layer object)
# ----------------------------------------------------------------------
class _Fold:
    """Everything the replay needs, extracted from one factory walk."""

    __slots__ = (
        "iters", "subreq", "packets", "bytes_in", "bytes_out", "macs",
        "page_need", "worlds", "hulls", "distinct", "pte_cache",
        "last_size",
    )

    def __init__(self) -> None:
        #: Per iteration: (loads, stores, compute_cycles, macs) where each
        #: transfer is (size, pages) — all the replay reads.
        self.iters: List[tuple] = []
        self.subreq = 0
        self.packets = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.macs = 0
        #: vpage -> union of required permission masks (IOMMU precheck).
        self.page_need: Dict[int, int] = {}
        self.worlds: set = set()
        #: (is_write, world) -> [min_vaddr, max_end] (Guarder hull check).
        self.hulls: Dict[tuple, list] = {}
        #: (span, is_write, world) -> distinct vaddrs, in first-touch
        #: order (Guarder precheck).
        self.distinct: Dict[tuple, Dict[int, None]] = {}
        #: (id(table), table.version, enforce, eff_worlds) -> (table,
        #: pte_map): proven-safe PTE bundles, invalidated by the page
        #: table's mutation counter.  The table reference pins its id.
        self.pte_cache: Dict[tuple, tuple] = {}
        #: Size of the layer's last transfer (None: no transfers).
        self.last_size: Optional[int] = None


def _fold_transfer(fold: _Fold, transfer, seqs: Dict[tuple, tuple]) -> tuple:
    req = transfer.request
    size = req.size
    is_write = req.is_write
    world = req.world
    if req.rows > 1:
        span = (req.rows - 1) * req.row_stride + req.row_bytes
    else:
        span = size
    pages = tuple(IOMMU._page_sequence(req))
    # Re-streamed blocks touch the same pages: share one tuple per layer.
    pages = seqs.setdefault(pages, pages)
    need = _WRITE_I if is_write else _READ_I
    page_need = fold.page_need
    for page in pages:
        prior = page_need.get(page)
        page_need[page] = need if prior is None else (prior | need)
    fold.worlds.add(world)
    fold.subreq += req.sub_requests
    fold.packets += req.num_packets
    if is_write:
        fold.bytes_out += size
    else:
        fold.bytes_in += size
    group = fold.distinct.get((span, is_write, world))
    if group is None:
        group = fold.distinct[(span, is_write, world)] = {}
    group[req.vaddr] = None
    hull = fold.hulls.get((is_write, world))
    end = req.vaddr + span
    if hull is None:
        fold.hulls[(is_write, world)] = [req.vaddr, end]
    else:
        if req.vaddr < hull[0]:
            hull[0] = req.vaddr
        if end > hull[1]:
            hull[1] = end
    fold.last_size = size
    return (size, pages)


def _fold_layer(layer) -> _Fold:
    fold = getattr(layer, _FOLD_ATTR, None)
    if fold is not None:
        return fold
    fold = _Fold()
    seqs: Dict[tuple, tuple] = {}
    for it in layer.iterations():
        loads = tuple(_fold_transfer(fold, t, seqs) for t in it.loads)
        stores = tuple(_fold_transfer(fold, t, seqs) for t in it.stores)
        fold.iters.append((loads, stores, it.compute_cycles, it.macs))
        fold.macs += it.macs
    try:
        setattr(layer, _FOLD_ATTR, fold)
    except (AttributeError, TypeError):  # pragma: no cover - frozen layer
        pass
    return fold


# ----------------------------------------------------------------------
# Eligibility prechecks
# ----------------------------------------------------------------------
def _guarder_provable(ctrl: NPUGuarder, hulls, distinct) -> bool:
    """True when every transfer provably passes the Guarder's datapath."""
    tregs = [r for r in ctrl.translation if r is not None]
    cregs = [c for c in ctrl.checking if c is not None]
    if not tregs or not cregs:
        return False
    if len(tregs) == 1 and len(cregs) == 1:
        # One register pair: first-covering == only-covering, so the
        # per-group hull decides for every transfer inside it.
        treg, creg = tregs[0], cregs[0]
        for (is_write, world), (lo, hi) in hulls.items():
            span = hi - lo
            if not treg.covers(lo, span):
                return False
            pbase = treg.translate(lo)
            need = _WRITE if is_write else _READ
            if not (creg.covers(pbase, span) and creg.allows(need, world)):
                return False
        return True
    translation = ctrl.translation
    checking = ctrl.checking
    for (span, is_write, world), vaddrs in distinct.items():
        need = _WRITE if is_write else _READ
        for vaddr in vaddrs:
            reg = None
            for r in translation:
                if r is not None and r.covers(vaddr, span):
                    reg = r
                    break
            if reg is None:
                return False
            pbase = reg.translate(vaddr)
            allowed = False
            for c in checking:
                if c is not None and c.covers(pbase, span):
                    allowed = c.allows(need, world)
                    break
            if not allowed:
                return False
    return True


def _paging_provable(ctrl: IOMMU, fold: _Fold, eff_worlds) -> Optional[dict]:
    """PTEs for every touched page iff the IOMMU provably never faults."""
    table = ctrl.page_table
    # The flat table's lookup is a dict get; bypass the wrapper for the
    # exact type only (subclasses may override lookup()).
    if type(table) is PageTable:
        lookup = table._entries.get
    else:
        lookup = table.lookup
    enforce = ctrl.enforce_world
    secure = World.SECURE
    perm_mask = _PERM_MASK
    pte_map: Dict[int, object] = {}
    for vpage, need in fold.page_need.items():
        pte = lookup(vpage)
        if pte is None:
            return None
        # need is a raw int mask; IntFlag.allows == (perm & need) == need.
        mask = perm_mask.get(pte.perm)
        if mask is None:
            mask = pte.perm.value
        if mask & need != need:
            return None
        if enforce and pte.world is secure:
            for world in eff_worlds:
                if world is not secure:
                    return None
        pte_map[vpage] = pte
    return pte_map


# ----------------------------------------------------------------------
# Layer engines
# ----------------------------------------------------------------------
def _denominator_bits(value: float) -> int:
    """log2 of *value*'s power-of-two denominator (0 for integers)."""
    return float(value).as_integer_ratio()[1].bit_length() - 1


def _exact_fold(core, layer, share: float) -> Optional[tuple]:
    """``(cycles, info)`` of *layer*'s segment fold when the exactness
    gate (see the module docstring) proves it equals the event walk's
    sequential float sums; None otherwise."""
    cycles, _flush, _runs, info = core._layer_fold(layer, share, False)
    dma = core.dma
    stats = dma.stats
    starts = (dma.cursor, stats.stream_cycles, stats.issue_cycles,
              core.systolic.busy_cycles)
    operands = chain(
        (dma.ISSUE_CYCLES,), info["streams"], starts,
        (step.compute for shape in layer.block_shapes for step in shape.steps),
    )
    try:
        bits = max(_denominator_bits(value) for value in operands)
    except (OverflowError, ValueError):  # an infinite or NaN operand
        return None
    dma_busy = info["dma_busy"]  # bounds the stream total too
    finals = (abs(starts[0]) + dma_busy, abs(starts[1]) + dma_busy,
              abs(starts[2]) + info["issue_cycles"],
              abs(starts[3]) + info["compute_busy"], cycles)
    if max(finals) >= math.ldexp(1.0, 53 - bits):
        return None
    return cycles, info


def _advance_stall_free(core, fold: _Fold, info: dict, share: float) -> None:
    """Advance the core's accumulators by one stall-free layer's fold
    totals — what the event walk's per-transfer updates sum to."""
    dma = core.dma
    stats = dma.stats
    issue = dma.ISSUE_CYCLES
    streams = info["streams"]
    dma.cursor += info["dma_busy"]
    stats.stream_cycles += info["dma_busy"] - info["issue_cycles"]
    stats.issue_cycles += info["issue_cycles"]
    stats.requests += fold.subreq
    stats.packets += fold.packets
    stats.bytes_in += fold.bytes_in
    stats.bytes_out += fold.bytes_out
    # A stall-free transfer costs issue + 0.0 + stream on the walk.
    dma._h_transfer.observe_counts(
        (issue + stream, count) for stream, count in streams.items()
    )
    systolic = core.systolic
    systolic.busy_cycles += info["compute_busy"]
    systolic.macs_done += fold.macs
    audit = telemetry.audit
    if audit.enabled and fold.last_size is not None:
        # Each transfer stamps the cursor it starts at on the ledger.
        last = issue + dma.dram.transfer_cycles(fold.last_size, share)
        audit.clock = dma.cursor - last


def _replay_paging(core, fold: _Fold, pte_map, share: float,
                   ctrl: IOMMU) -> Tuple[float, float]:
    """Replay one layer under a precheck-proven IOMMU/sMMU.

    The IOTLB is replayed on an ``OrderedDict`` copy (``move_to_end`` /
    ``popitem(last=False)`` — the cache's own LRU primitives) swapped
    back in at layer end; walk stalls replay sequentially with the exact
    sequential-overlap rule of :meth:`IOMMU._translate_page`.  Transfer
    latencies are counted locally and added to the DMA transfer
    histogram at layer end — this loop runs once per page of every
    transfer and dominates the fast path's cost.
    """
    dma = core.dma
    stats = dma.stats
    latencies: Dict[float, int] = {}
    latencies_get = latencies.get
    issue = dma.ISSUE_CYCLES
    cursor = dma.cursor
    stream_acc = stats.stream_cycles
    issue_acc = stats.issue_cycles
    stall_acc = stats.stall_cycles
    systolic = core.systolic
    busy = systolic.busy_cycles
    cstats = ctrl.stats
    iotlb = ctrl.iotlb
    tlb = OrderedDict(iotlb._cache)
    entries = iotlb.entries
    walk_cost = ctrl.walk_cycles
    walk_seq = walk_cost * ctrl.SEQUENTIAL_OVERLAP
    last_vpage = ctrl._last_vpage
    walk_cycles_acc = cstats.walk_cycles
    walk_cursor = ctrl._walk_cursor
    hits = 0
    walks = 0
    pending = ctrl._pending_walk_cycles
    transfer_cycles = dma.dram.transfer_cycles
    stream_cache: Dict[int, float] = {}
    seg_sum = 0.0
    seg_first = None
    seg_last = 0.0
    comp_sum = 0.0
    clock = None  # cursor value stamped on the audit ledger's clock
    tlb_move_end = tlb.move_to_end
    tlb_pop_first = tlb.popitem
    tlb_len = len(tlb)
    stream_get = stream_cache.get
    for loads, stores, compute, macs in fold.iters:
        load = store = 0
        for is_store, transfers in ((False, loads), (True, stores)):
            phase = 0
            for transfer in transfers:
                clock = cursor
                pending = 0.0
                for vpage in transfer[1]:
                    if vpage in tlb:
                        tlb_move_end(vpage)
                        hits += 1
                    else:
                        walks += 1
                        stall = (walk_seq if vpage == last_vpage + 1
                                 else walk_cost)
                        walk_cycles_acc += stall
                        pending += stall
                        walk_cursor += stall
                        if tlb_len >= entries:
                            tlb_pop_first(False)
                        else:
                            tlb_len += 1
                        tlb[vpage] = None
                    last_vpage = vpage
                stall_acc += pending
                size = transfer[0]
                stream = stream_get(size)
                if stream is None:
                    stream = transfer_cycles(size, share)
                    stream_cache[size] = stream
                cycles = issue + pending + stream
                issue_acc += issue
                stream_acc += stream
                cursor += cycles
                latencies[cycles] = latencies_get(cycles, 0) + 1
                phase = phase + cycles
            if is_store:
                store = phase
            else:
                load = phase
        busy += compute
        comp_sum += compute
        if seg_first is None:
            seg_first = load
        seg_sum += max(load, compute, store)
        seg_last = store
    layer_cycles = seg_sum + (seg_first or 0.0) + seg_last
    audit = telemetry.audit
    if audit.enabled and clock is not None:
        audit.clock = clock
    dma.cursor = cursor
    stats.stream_cycles = stream_acc
    stats.issue_cycles = issue_acc
    stats.stall_cycles = stall_acc
    stats.requests += fold.subreq
    stats.packets += fold.packets
    stats.bytes_in += fold.bytes_in
    stats.bytes_out += fold.bytes_out
    systolic.busy_cycles = busy
    systolic.macs_done += fold.macs
    cstats.translations += fold.packets
    cstats.checks += fold.packets
    cstats.misses += walks
    cstats.page_walks += walks
    cstats.walk_cycles = walk_cycles_acc
    iotlb.hits += hits
    iotlb.misses += walks
    # Pages inserted during replay carry a None sentinel (the PTE value is
    # never read while replaying); resolve them from pte_map on swap-in.
    # Carried-over entries keep their original PTE objects.
    iotlb._cache = OrderedDict(
        (p, v if v is not None else pte_map[p]) for p, v in tlb.items()
    )
    dma._h_transfer.observe_counts(latencies.items())
    ctrl._pending_walk_cycles = pending
    ctrl._last_vpage = last_vpage
    ctrl._walk_cursor = walk_cursor
    if walks:
        telemetry.profiler.count("iotlb.walks", walks)
    return layer_cycles, comp_sum


# ----------------------------------------------------------------------
# Run-level dispatch
# ----------------------------------------------------------------------
_KINDS = {NoProtection: "none", NPUGuarder: "guarder",
          IOMMU: "iommu", TrustZoneSMMU: "smmu"}


class FastRun:
    """Per-``run_detailed``-call fast-path context (one per eligible run)."""

    __slots__ = ("core", "share", "ctrl", "kind", "switches0")

    def __init__(self, core, share, ctrl, kind) -> None:
        self.core = core
        self.share = share
        self.ctrl = ctrl
        self.kind = kind
        self.switches0 = getattr(ctrl, "world_switches", 0)

    def layer(self, layer) -> Optional[Tuple[float, float]]:
        """(layer_cycles, comp_sum) on the fast path, else None."""
        if layer.iteration_factory is None:
            _fallback("no_iterations")
            return None
        kind = self.kind
        ctrl = self.ctrl
        core = self.core
        try:
            fold = _fold_layer(layer)
        except Exception:
            _fallback("fold_error")
            return None
        if kind in ("none", "guarder"):
            if kind == "guarder" and not _guarder_provable(
                ctrl, fold.hulls, fold.distinct
            ):
                _fallback("guarder_unprovable")
                return None
            exact = _exact_fold(core, layer, self.share)
            if exact is None:
                _fallback("inexact")
                return None
            cycles, info = exact
            _advance_stall_free(core, fold, info, self.share)
            if kind == "guarder":
                subreq = fold.subreq
                ctrl.stats.translations += subreq
                ctrl.stats.checks += subreq
                telemetry.profiler.count("guarder.checks", subreq)
            _count("fast_layers")
            return cycles, info["compute_busy"]

        # Paging controllers (IOMMU / TrustZone sMMU).
        if kind == "smmu":
            if ctrl.world_switches != self.switches0:
                _fallback("world_switch")
                return None
            if fold.worlds != {ctrl.device_world}:
                # A pending device/world transition (including the
                # secure-task-on-normal-device fault) is the event
                # simulator's business.
                _fallback("world_switch")
                return None
            eff_worlds = (ctrl.device_world,)
        else:
            eff_worlds = tuple(fold.worlds)
        # The precheck result is a pure function of (page table state,
        # enforce flag, worlds); the table's mutation counter keys a
        # cache so repeated runs skip the per-page walk.
        table = ctrl.page_table
        version = getattr(table, "version", None)
        pte_map = None
        if version is not None:
            cache_key = (id(table), version, ctrl.enforce_world, eff_worlds)
            hit = fold.pte_cache.get(cache_key)
            if hit is not None:
                pte_map = hit[1]
        if pte_map is None:
            pte_map = _paging_provable(ctrl, fold, eff_worlds)
            if pte_map is not None and version is not None:
                cache = fold.pte_cache
                if len(cache) >= 8:
                    cache.pop(next(iter(cache)))
                cache[cache_key] = (table, pte_map)
        if pte_map is None:
            _fallback("iommu_unprovable")
            return None
        result = _replay_paging(core, fold, pte_map, self.share, ctrl)
        _count("fast_layers")
        return result


def begin_run(core, share: float, flush: Optional[str]
              ) -> Optional[FastRun]:
    """Run-level eligibility gate; None (counted) when the whole run
    must take the event path.  Inside :func:`reference` it is always None
    and nothing is counted."""
    if _REFERENCE:
        return None
    if flush is not None:
        _fallback("flush")
        return None
    if not share > 0:
        _fallback("share")
        return None
    if telemetry.tracer.enabled or telemetry.flows.enabled:
        # Both observe every individual transfer.  The audit ledger does
        # not: clean requests only stamp its clock (replayed below), and
        # the fast path proves no denial records can occur.
        _fallback("telemetry")
        return None
    dma = core.dma
    if dma.functional:
        _fallback("functional")
        return None
    if dma.encryption is not None:
        _fallback("encryption")
        return None
    if dma.l2 is not None:
        _fallback("l2")
        return None
    if dma.trace is not None:
        _fallback("dma_trace")
        return None
    if getattr(core, "attacker", None) is not None:
        _fallback("attacker")
        return None
    ctrl = core.controller
    kind = _KINDS.get(type(ctrl))
    if kind is None:
        # Unknown controller subclass: its handle() may do anything.
        _fallback("controller")
        return None
    return FastRun(core, share, ctrl, kind)
