"""Warm-run correctness for the fast path's per-layer fold cache.

The first detailed run on a program folds each layer's schedule once and
caches the fold on the layer object; later runs read it back.  A warm
run must be bit-identical to the cold one and to the reference event
walk, and must still take the fast path on every layer.
"""

from __future__ import annotations

from repro import telemetry
from repro.common.types import AddressRange, Permission, World
from repro.memory.dram import DRAMModel
from repro.mmu.guarder import NPUGuarder
from repro.npu.core import NPUCore
from repro.sim import fastpath
from repro.workloads.synthetic import synthetic_mlp


def _permissive_guarder() -> NPUGuarder:
    guarder = NPUGuarder()
    guarder.set_checking_register(
        0, AddressRange(0, 1 << 40), Permission.RW, World.NORMAL,
        issuer=World.SECURE,
    )
    guarder.set_translation_register(0, vbase=0, pbase=0, size=1 << 40)
    return guarder


def _run(program, config, guarder=None):
    """One default detailed run; returns (result, fastpath counters)."""
    with telemetry.scoped(trace=False) as scope:
        ctrl = guarder if guarder is not None else _permissive_guarder()
        core = NPUCore(config, ctrl, DRAMModel(config.dram_bytes_per_cycle))
        result = core.run_detailed(program)
        snapshot = scope.metrics.snapshot()
    prefix = fastpath.GROUP_PREFIX + "."
    counters = {
        str(key)[len(prefix):]: value
        for key, value in snapshot.items()
        if str(key).startswith(prefix)
    }
    return result, counters


def _cached_folds(program):
    return [getattr(layer, fastpath._FOLD_ATTR, None) for layer in program.layers]


class TestWarmCache:
    def test_warm_timing_bit_identical_to_cold(self, config, compiler):
        program = compiler.compile(synthetic_mlp())
        assert all(fold is None for fold in _cached_folds(program))
        cold, cold_counts = _run(program, config)
        folds = _cached_folds(program)
        assert all(fold is not None for fold in folds)
        warm, warm_counts = _run(program, config)
        # The warm run reads the cached folds instead of re-folding.
        assert all(a is b for a, b in zip(_cached_folds(program), folds))
        assert warm.cycles == cold.cycles
        assert [lay.cycles for lay in warm.layers] == [
            lay.cycles for lay in cold.layers
        ]
        n_layers = len(cold.layers)
        assert cold_counts == warm_counts == {"fast_layers": n_layers}

    def test_warm_equals_event_simulator(self, config, compiler):
        program = compiler.compile(synthetic_mlp())
        _run(program, config)  # populate the per-layer fold cache
        warm, _ = _run(program, config)
        with fastpath.reference():
            with telemetry.scoped(trace=False):
                core = NPUCore(
                    config, _permissive_guarder(),
                    DRAMModel(config.dram_bytes_per_cycle),
                )
                event = core.run_detailed(program)
        assert warm.cycles == event.cycles
        assert [lay.cycles for lay in warm.layers] == [
            lay.cycles for lay in event.layers
        ]
