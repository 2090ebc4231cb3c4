"""Replay engine behind :meth:`repro.npu.core.NPUCore.run_detailed`.

The event simulator (:meth:`repro.npu.core.NPUCore.run_detailed`) walks
every tile iteration and pushes every DMA descriptor through the access
controller.  For the vast majority of layers nothing on that walk can
perturb timing: the controller is stall-free (Guarder / NoProtection) or
its page walks are a pure function of the page-touch sequence and the
current IOTLB state, no flush boundary interrupts the pipeline, no world
switch is in flight, and no attacker, tracer or functional data movement
observes individual packets.  This module computes those layers directly
from the tiling compiler's schedule — once — and *replays* every mutated
accumulator in the exact operation order of the event path, so the result
is bit-identical by construction, not merely close.

Design rules that make the equivalence hold exactly:

* **Sequential replay, not closed-form sums.**  Float accumulators
  (``dma.cursor``, ``stats.stream_cycles``, IOTLB walk stalls, systolic
  busy cycles, the per-layer segment pipeline) are replayed as local
  variables updated with the same operand values in the same order as
  the event path, then written back at layer end.  Only integer-valued
  quantities (request/packet/byte counters) are batched, which is exact
  below 2**53.
* **Conservative eligibility.**  A layer runs on the fast path only when
  the predicate below *proves* the event path would take no data-dependent
  branch the replay does not model: every page mapped with sufficient
  permissions (IOMMU/sMMU), every transfer covered by an allowing register
  pair (Guarder), no flush granularity, no world switch in flight, no
  attacker attached, telemetry collectors that observe per-transfer events
  disabled.  Anything unprovable routes to the event simulator and bumps
  the ``sim.fastpath.fallbacks`` counter (plus a per-reason counter).
* **Memoisation.**  Per-(layer, NPUConfig, protection, share) timing
  bundles for stall-free controllers are memoised across runs, keyed by a
  digest that includes the compiler-source digest — so one BERT layer is
  costed once instead of once per experiment, and any change to the
  simulator source, the NPU configuration or the protection mechanism
  invalidates the memo.  Paging controllers are never memoised across
  runs (their cost depends on mutable IOTLB state); their schedule fold
  is still cached on the layer object itself.

Every ``run_detailed`` call goes through :func:`begin_run`; the event
walk remains the fallback for whatever the predicate cannot prove, and
:func:`reference` forces it for a ``with`` block so tests and
``benchmarks/bench_fastpath.py`` can compare the two.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.common.types import Permission, World
from repro.memory.pagetable import PageTable
from repro.mmu.base import NoProtection
from repro.mmu.guarder import NPUGuarder
from repro.mmu.iommu import IOMMU
from repro.mmu.smmu import TrustZoneSMMU
from repro.telemetry.metrics import NULL_HISTOGRAM

#: Metric group holding the fast-path counters
#: (``sim.fastpath.fast_layers``, ``sim.fastpath.fallbacks``, ...).
GROUP_PREFIX = "sim.fastpath"

_REFERENCE = False

#: Compiler/simulator source digest baked into every memo key (lazily the
#: same digest the experiment result cache uses).  Tests monkeypatch this
#: to prove the memo invalidates on source changes.
_SOURCE_DIGEST: Optional[str] = None

_FOLD_ATTR = "_fastpath_fold"
_SIG_ATTR = "_fastpath_sig"

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


def source_digest() -> str:
    """Source digest folded into memo keys (see module docstring)."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        from repro.experiments.cache import source_digest as _sd

        _SOURCE_DIGEST = _sd()
    return _SOURCE_DIGEST


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
# Cross-run memo (stall-free controllers only)
# ----------------------------------------------------------------------
class _MemoEntry:
    __slots__ = ("per_iter", "agg", "hulls", "distinct")

    def __init__(self, per_iter, agg, hulls, distinct) -> None:
        self.per_iter = per_iter
        self.agg = agg
        self.hulls = hulls
        self.distinct = distinct


_MEMO: "Dict[str, _MemoEntry]" = {}
_MEMO_MAX = 1024


def clear_memo() -> None:
    """Drop every memoised layer timing bundle (test/bench helper)."""
    _MEMO.clear()


def _memo_put(key: str, entry: _MemoEntry) -> None:
    if len(_MEMO) >= _MEMO_MAX:
        _MEMO.pop(next(iter(_MEMO)))
    _MEMO[key] = entry


def _program_sig(program) -> str:
    sig = getattr(program, _SIG_ATTR, None)
    if sig is None:
        chunks = json.dumps(
            {name: (rng.base, rng.size)
             for name, rng in sorted(program.chunks.items())}
        )
        sig = program.measurement().hex() + "|" + chunks
        try:
            setattr(program, _SIG_ATTR, sig)
        except (AttributeError, TypeError):  # pragma: no cover
            pass
    return sig


def memo_key(config, program, layer_index: int, share: float,
             kind: str) -> str:
    """Memo key for one (layer, NPUConfig, protection, share) bundle.

    Covers every NPUConfig field, the protection kind, the program's
    schedule measurement + virtual chunk layout, and the simulator source
    digest — any change to one of them misses the memo.
    """
    cfg = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    digest = hashlib.sha256()
    for part in (cfg, source_digest(), _program_sig(program),
                 str(layer_index), repr(share), kind):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _per_iter_streams(fold: _Fold, dram, share: float) -> list:
    """Per-iteration (load_streams, store_streams, compute, macs).

    Stream cycles are a pure function of (size, share); sizes repeat
    across tiles, so they are computed once per distinct size.  Equal
    rows (every full block of a layer) share one tuple: the memo keeps
    these lists alive across runs.
    """
    cache: Dict[int, float] = {}
    rows: Dict[tuple, tuple] = {}
    transfer_cycles = dram.transfer_cycles
    out = []
    for loads, stores, compute, macs in fold.iters:
        load_streams = []
        for t in loads:
            size = t[0]
            s = cache.get(size)
            if s is None:
                s = transfer_cycles(size, share)
                cache[size] = s
            load_streams.append(s)
        store_streams = []
        for t in stores:
            size = t[0]
            s = cache.get(size)
            if s is None:
                s = transfer_cycles(size, share)
                cache[size] = s
            store_streams.append(s)
        row = (tuple(load_streams), tuple(store_streams), compute, macs)
        out.append(rows.setdefault(row, row))
    return out


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
# Replay kernels
# ----------------------------------------------------------------------
def _replay_stall_free(core, per_iter, agg) -> Tuple[float, float]:
    """Replay one layer under a stall-free controller.

    Mirrors, per transfer: ``cycles = ISSUE + 0.0 + stream`` and the DMA
    engine's accumulator updates; per iteration: the segment pipeline of
    ``run_detailed``.  All float state is carried in locals updated in
    event order and written back once.
    """
    dma = core.dma
    stats = dma.stats
    observe = dma._h_transfer.observe
    issue = dma.ISSUE_CYCLES
    cursor = dma.cursor
    stream_acc = stats.stream_cycles
    issue_acc = stats.issue_cycles
    systolic = core.systolic
    busy = systolic.busy_cycles
    seg_sum = 0.0
    seg_first = None
    seg_last = 0.0
    comp_sum = 0.0
    clock = None  # cursor value stamped on the audit ledger's clock
    extra = 0.0  # stall-free: outcome.extra_cycles is always 0.0
    for load_streams, store_streams, compute, macs in per_iter:
        load = 0
        for stream in load_streams:
            cycles = issue + extra + stream
            issue_acc += issue
            stream_acc += stream
            clock = cursor
            cursor += cycles
            observe(cycles, cycle=cursor)
            load = load + cycles
        store = 0
        for stream in store_streams:
            cycles = issue + extra + stream
            issue_acc += issue
            stream_acc += stream
            clock = cursor
            cursor += cycles
            observe(cycles, cycle=cursor)
            store = store + cycles
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
    stats.requests += agg[0]
    stats.packets += agg[1]
    stats.bytes_in += agg[2]
    stats.bytes_out += agg[3]
    systolic.busy_cycles = busy
    systolic.macs_done += agg[4]
    return layer_cycles, comp_sum


def _replay_paging(core, fold: _Fold, pte_map, share: float,
                   ctrl: IOMMU) -> Tuple[float, float]:
    """Replay one layer under a precheck-proven IOMMU/sMMU.

    The IOTLB is replayed on an ``OrderedDict`` copy (``move_to_end`` /
    ``popitem(last=False)`` — the cache's own LRU primitives) swapped
    back in at layer end; walk stalls replay sequentially with the exact
    sequential-overlap rule of :meth:`IOMMU._translate_page`.  The DMA
    transfer histogram's ``observe`` is inlined field for field (same
    accumulator order, same reservoir RNG draws) — this loop runs once
    per page of every transfer and dominates the fast path's cost.
    """
    dma = core.dma
    stats = dma.stats
    hist = dma._h_transfer
    h_count = hist.count
    h_epoch = hist._epoch_count
    h_total = hist.total
    h_min = hist.min
    h_max = hist.max
    samples = hist.samples
    samples_append = samples.append
    max_samples = hist.max_samples
    getrandbits = hist._rng.getrandbits
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
        load = 0
        for transfer in loads:
            clock = cursor
            pending = 0.0
            for vpage in transfer[1]:
                if vpage in tlb:
                    tlb_move_end(vpage)
                    hits += 1
                else:
                    walks += 1
                    stall = walk_seq if vpage == last_vpage + 1 else walk_cost
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
            # Inlined hist.observe(cycles, cycle=cursor):
            h_count += 1
            h_epoch += 1
            h_total += cycles
            if h_min is None or cycles < h_min:
                h_min = cycles
            if h_max is None or cycles > h_max:
                h_max = cycles
            if len(samples) < max_samples:
                samples_append((cursor, cycles))
            elif max_samples > 0:
                # Inlined Random.randrange -> _randbelow_with_getrandbits:
                # identical getrandbits call sequence, identical draws.
                k = h_epoch.bit_length()
                slot = getrandbits(k)
                while slot >= h_epoch:
                    slot = getrandbits(k)
                if slot < max_samples:
                    samples[slot] = (cursor, cycles)
            load = load + cycles
        store = 0
        for transfer in stores:
            clock = cursor
            pending = 0.0
            for vpage in transfer[1]:
                if vpage in tlb:
                    tlb_move_end(vpage)
                    hits += 1
                else:
                    walks += 1
                    stall = walk_seq if vpage == last_vpage + 1 else walk_cost
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
            # Inlined hist.observe(cycles, cycle=cursor):
            h_count += 1
            h_epoch += 1
            h_total += cycles
            if h_min is None or cycles < h_min:
                h_min = cycles
            if h_max is None or cycles > h_max:
                h_max = cycles
            if len(samples) < max_samples:
                samples_append((cursor, cycles))
            elif max_samples > 0:
                # Inlined Random.randrange -> _randbelow_with_getrandbits:
                # identical getrandbits call sequence, identical draws.
                k = h_epoch.bit_length()
                slot = getrandbits(k)
                while slot >= h_epoch:
                    slot = getrandbits(k)
                if slot < max_samples:
                    samples[slot] = (cursor, cycles)
            store = store + cycles
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
    if hist is not NULL_HISTOGRAM:
        # The null histogram's observe() is a no-op: leave the shared
        # singleton untouched, exactly like the event path does.
        hist.count = h_count
        hist._epoch_count = h_epoch
        hist.total = h_total
        hist.min = h_min
        hist.max = h_max
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

    __slots__ = ("core", "program", "share", "ctrl", "kind", "switches0")

    def __init__(self, core, program, share, ctrl, kind) -> None:
        self.core = core
        self.program = program
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
        if kind in ("none", "guarder"):
            key = memo_key(core.config, self.program, layer.index,
                           self.share, kind)
            entry = _MEMO.get(key)
            if entry is None:
                _count("memo_misses")
                try:
                    fold = _fold_layer(layer)
                except Exception:
                    _fallback("fold_error")
                    return None
                agg = (fold.subreq, fold.packets, fold.bytes_in,
                       fold.bytes_out, fold.macs)
                entry = _MemoEntry(
                    _per_iter_streams(fold, core.dma.dram, self.share),
                    agg, dict(fold.hulls),
                    {group: tuple(vaddrs)
                     for group, vaddrs in fold.distinct.items()},
                )
                _memo_put(key, entry)
            else:
                _count("memo_hits")
            if kind == "guarder":
                if not _guarder_provable(ctrl, entry.hulls, entry.distinct):
                    _fallback("guarder_unprovable")
                    return None
            result = _replay_stall_free(core, entry.per_iter, entry.agg)
            if kind == "guarder":
                subreq = entry.agg[0]
                ctrl.stats.translations += subreq
                ctrl.stats.checks += subreq
                telemetry.profiler.count("guarder.checks", subreq)
            _count("fast_layers")
            return result

        # Paging controllers (IOMMU / TrustZone sMMU).
        try:
            fold = _fold_layer(layer)
        except Exception:
            _fallback("fold_error")
            return None
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


def begin_run(core, program, share: float, flush: Optional[str]
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
    return FastRun(core, program, share, ctrl, kind)
