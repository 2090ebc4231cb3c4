"""Differential tests for the single stall-free timing model.

The compiler describes every layer as a run-length list of distinct
block shapes (:class:`~repro.npu.isa.BlockShape`) plus their schedule
order; :meth:`~repro.npu.core.NPUCore.run_analytic` folds that list with
the detailed path's segment rule.  These properties pin the three links
of that chain on drawn GEMM blockings (edge blocks in every dimension,
halos, packed repeats) and vector kernels:

* the block-shape list is exactly the grouping of ``layer.iterations()``
  by output block — counts, per-step transfer sizes, compute, first and
  last block;
* ``run_analytic`` equals the reference event walk (``==``) for every
  flush granularity at bandwidth shares 1.0 and 0.5, under NoProtection
  and a permissive Guarder (share 0.3: relative error <= 1e-12);
* each per-block quantum equals the event walk's segment for that block,
  and the quanta sum to the layer's cycles.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import AddressRange, Permission, World
from repro.driver.compiler import Blocking, TilingCompiler
from repro.memory.dram import DRAMModel
from repro.mmu.base import NoProtection
from repro.mmu.guarder import NPUGuarder
from repro.npu.config import NPUConfig
from repro.npu.core import FLUSH_GRANULARITIES, NPUCore
from repro.sim import fastpath
from repro.workloads.model import GemmSpec, ModelGraph, VectorSpec

CFG = NPUConfig.paper_default()


class _Kernel:
    """A model layer that lowers to one fixed kernel."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def lower(self):
        return [self.kernel]


class _FixedBlocking(TilingCompiler):
    """Compiles every GEMM with one drawn blocking instead of searching."""

    def __init__(self, config: NPUConfig, blocking: Blocking) -> None:
        super().__init__(config)
        self.blocking = blocking

    def _choose_blocking(self, spec, budget, acc_budget):
        return Blocking(
            mb=self.blocking.mb, kb=self.blocking.kb, nb=self.blocking.nb,
            pack=min(self.blocking.pack, spec.repeat),
        )


@st.composite
def _gemm_and_blocking(draw):
    """A GemmSpec plus a legal Blocking with at most ~6 blocks per
    dimension (keeps the reference event walk small)."""
    m = draw(st.integers(1, 300))
    k = draw(st.integers(1, 300))
    n = draw(st.integers(1, 300))
    repeat = draw(st.sampled_from([1, 1, 2, 3, 5]))
    spec = GemmSpec(
        "g", m=m, k=k, n=n, repeat=repeat,
        input_bytes_per_pass=draw(st.sampled_from([m, m * k, 9 * m * k])),
        input_halo_bytes=draw(st.sampled_from([0, 1, 64, 4096])),
    )
    blocking = Blocking(
        mb=draw(st.integers(max(1, m // 6), m + 64)),
        kb=draw(st.integers(max(1, k // 6), k + 64)),
        nb=draw(st.integers(max(1, n // 6), n + 64)),
        pack=draw(st.integers(1, repeat)),
    )
    return spec, blocking


@st.composite
def _vector_spec(draw):
    elements = draw(st.integers(1, 200_000))
    return VectorSpec(
        "v", elements=elements,
        in_bytes=draw(st.integers(1, 300_000)),
        out_bytes=draw(st.sampled_from([0, 1, 7, elements, 3 * elements])),
        ops_per_element=draw(st.sampled_from([1, 9])),
    )


@st.composite
def _programs(draw):
    """A five-layer program (so ``layer5`` charges a boundary) mixing a
    drawn GEMM and a drawn vector kernel, plus the compiler's budget."""
    spec, blocking = draw(_gemm_and_blocking())
    vector = draw(_vector_spec())
    budget = draw(st.sampled_from([16 * 1024, 64 * 1024, CFG.spad_bytes]))
    model = ModelGraph(
        "drawn", [_Kernel(k) for k in (spec, vector, spec, vector, spec)]
    )
    return _FixedBlocking(CFG, blocking).compile(
        model, spad_budget_bytes=budget
    )


def _permissive_guarder() -> NPUGuarder:
    guarder = NPUGuarder()
    guarder.set_checking_register(
        0, AddressRange(0, 1 << 40), Permission.RW, World.NORMAL,
        issuer=World.SECURE,
    )
    guarder.set_translation_register(0, vbase=0, pbase=0, size=1 << 40)
    return guarder


def _core(controller) -> NPUCore:
    return NPUCore(CFG, controller, DRAMModel(CFG.dram_bytes_per_cycle))


def _factory_blocks(layer) -> List[tuple]:
    """The factory's iterations grouped by output block."""
    blocks, steps = [], []
    for it in layer.iterations():
        steps.append((
            tuple(t.request.size for t in it.loads),
            tuple(t.request.size for t in it.stores),
            it.compute_cycles,
        ))
        if it.end_of_block:
            blocks.append(tuple(steps))
            steps = []
    assert not steps, "iterations must end on a block boundary"
    return blocks


def _shape_blocks(layer) -> List[tuple]:
    """The block-shape list expanded to per-block steps, schedule order."""
    expanded = [
        tuple(
            (run.loads, run.stores, run.compute)
            for run in shape.steps
            for _ in range(run.count)
        )
        for shape in layer.block_shapes
    ]
    return [expanded[i] for i, count in layer.block_runs for _ in range(count)]


def _event_segments(core, layer, share, tile) -> List[float]:
    """Per-block cycles by the event walk's own rule, block by block."""
    out: List[float] = []
    seg_sum, first, last = 0.0, None, 0.0
    for it in layer.iterations():
        load = sum(core.dma.execute(t, share) for t in it.loads)
        store = sum(core.dma.execute(t, share) for t in it.stores)
        if first is None:
            first = load
        seg_sum += max(load, it.compute_cycles, store)
        last = store
        if it.end_of_block:
            if tile:
                out.append(
                    seg_sum + first + last + core._boundary_cost(layer, share)
                )
                first = None
            else:
                out.append(seg_sum + (first if not out else 0.0))
            seg_sum = 0.0
    if not tile:
        out[-1] += last
    return out


@given(_programs())
@settings(max_examples=60, deadline=None)
def test_block_shapes_are_the_grouped_iterations(program):
    for layer in program.layers:
        blocks = _factory_blocks(layer)
        assert _shape_blocks(layer) == blocks
        assert len(blocks) == layer.n_blocks
        # Distinct shapes, each counted exactly.
        keys = [
            tuple((r.count, r.loads, r.stores, r.compute) for r in s.steps)
            for s in layer.block_shapes
        ]
        assert len(set(keys)) == len(keys)
        for i, shape in enumerate(layer.block_shapes):
            assert shape.count == sum(c for j, c in layer.block_runs if j == i)
        # Adjacent runs never repeat a shape (the runs are merged).
        ids = [i for i, _ in layer.block_runs]
        assert all(a != b for a, b in zip(ids, ids[1:]))


@pytest.mark.parametrize("protection", ["none", "guarder"])
@given(program=_programs())
@settings(max_examples=25, deadline=None)
def test_analytic_equals_reference_event_walk(protection, program):
    controller = (
        NoProtection() if protection == "none" else _permissive_guarder()
    )
    for share in (1.0, 0.5, 0.3):
        for flush in (None,) + FLUSH_GRANULARITIES:
            analytic = _core(controller).run_analytic(
                program, share=share, flush=flush
            )
            with fastpath.reference():
                detailed = _core(controller).run_detailed(
                    program, share=share, flush=flush
                )
            pairs = [(analytic.cycles, detailed.cycles)] + [
                (a.cycles, d.cycles)
                for a, d in zip(analytic.layers, detailed.layers)
            ] + [(analytic.flush_overhead_cycles,
                  detailed.flush_overhead_cycles)]
            for a, d in pairs:
                if share == 0.3:
                    assert a == pytest.approx(d, rel=1e-12, abs=0.0)
                else:
                    assert a == d, (share, flush)


@given(_programs(), st.sampled_from([1.0, 0.5]))
@settings(max_examples=40, deadline=None)
def test_block_quanta_are_the_event_segments(program, share):
    for tile in (False, True):
        result = _core(NoProtection()).run_analytic(
            program, share=share, flush="tile" if tile else None
        )
        walker = _core(NoProtection())
        for lr, layer in zip(result.layers, program.layers):
            quanta = lr.block_cycles
            assert quanta == _event_segments(walker, layer, share, tile)
            assert sum(quanta) == lr.cycles


@given(_programs())
@settings(max_examples=20, deadline=None)
def test_layer_boundaries_close_the_last_block(program):
    for flush in ("layer", "layer5"):
        result = _core(NoProtection()).run_analytic(program, flush=flush)
        for lr in result.layers:
            assert sum(lr.block_cycles) == lr.cycles


@pytest.mark.parametrize("flushed", [False, True])
def test_scheduler_tile_quanta_are_the_blocks(flushed):
    """The flush baseline's tile quanta are the analytic per-block cycles
    in schedule order, not a layer's cycles split evenly over its
    blocks."""
    from repro.driver.scheduler import MultiTaskScheduler
    from repro.workloads.synthetic import synthetic_cnn

    scheduler = MultiTaskScheduler(CFG)
    model = synthetic_cnn()
    result = scheduler.run(model, flush="tile" if flushed else None)
    quanta = scheduler.quanta(model, "tile", flushed=flushed)
    assert quanta == [q for lr in result.layers for q in lr.block_cycles]
    assert sum(quanta) == result.cycles
    assert len(set(quanta)) > len(result.layers)  # edge blocks differ
    if not flushed:
        stats = scheduler.preemption_stats(model, "tile")
        assert stats.worst_wait_cycles == max(quanta)
        assert stats.n_boundaries == len(quanta)
