"""Memo-cache correctness for the analytic fast path.

Follows the ``test_experiment_cache`` pattern: key stability/uniqueness
first, then behavioural guarantees — warm-cache timing bit-identical to
cold simulation, and memo keys that invalidate on any NPUConfig field,
the protection kind, the share, the program, or the compiler-source
digest (monkeypatched exactly like ``cache_mod._SOURCE_DIGEST``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import telemetry
from repro.common.types import AddressRange, Permission, World
from repro.memory.dram import DRAMModel
from repro.mmu.guarder import NPUGuarder
from repro.npu.config import NPUConfig
from repro.npu.core import NPUCore
from repro.sim import fastpath
from repro.workloads.synthetic import synthetic_mlp


@pytest.fixture(autouse=True)
def _fresh_memo():
    fastpath.clear_memo()
    yield
    fastpath.clear_memo()


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


class TestKey:
    def test_stable_within_process(self, compiler, config, mlp_program):
        key = fastpath.memo_key(config, mlp_program, 0, 1.0, "guarder")
        assert key == fastpath.memo_key(config, mlp_program, 0, 1.0, "guarder")

    def test_varies_with_every_config_field(self, config, mlp_program):
        base = fastpath.memo_key(config, mlp_program, 0, 1.0, "guarder")
        for field in dataclasses.fields(NPUConfig):
            value = getattr(config, field.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            # Bypass __post_init__ validation: the memo key must react to
            # the raw field value, whatever the invariants say.
            bumped = object.__new__(NPUConfig)
            bumped.__dict__.update(config.__dict__)
            bumped.__dict__[field.name] = value + 1
            key = fastpath.memo_key(bumped, mlp_program, 0, 1.0, "guarder")
            assert key != base, f"NPUConfig.{field.name} not in the memo key"

    def test_varies_with_protection_share_layer_and_program(
        self, config, mlp_program, cnn_program
    ):
        keys = {
            fastpath.memo_key(config, mlp_program, 0, 1.0, "guarder"),
            fastpath.memo_key(config, mlp_program, 0, 1.0, "none"),
            fastpath.memo_key(config, mlp_program, 0, 0.5, "guarder"),
            fastpath.memo_key(config, mlp_program, 1, 1.0, "guarder"),
            fastpath.memo_key(config, cnn_program, 0, 1.0, "guarder"),
        }
        assert len(keys) == 5

    def test_varies_with_source_digest(self, config, mlp_program, monkeypatch):
        base = fastpath.memo_key(config, mlp_program, 0, 1.0, "guarder")
        monkeypatch.setattr(fastpath, "_SOURCE_DIGEST", "0" * 64)
        patched = fastpath.memo_key(config, mlp_program, 0, 1.0, "guarder")
        assert patched != base


class TestWarmCache:
    def test_warm_timing_bit_identical_to_cold(self, config, compiler):
        program = compiler.compile(synthetic_mlp())
        cold, cold_counts = _run(program, config)
        warm, warm_counts = _run(program, config)
        assert warm.cycles == cold.cycles
        assert [lay.cycles for lay in warm.layers] == [
            lay.cycles for lay in cold.layers
        ]
        n_layers = len(cold.layers)
        assert cold_counts.get("memo_misses", 0) == n_layers
        assert cold_counts.get("memo_hits", 0) == 0
        assert warm_counts.get("memo_hits", 0) == n_layers
        assert warm_counts.get("memo_misses", 0) == 0

    def test_warm_equals_event_simulator(self, config, compiler):
        program = compiler.compile(synthetic_mlp())
        _run(program, config)  # populate the memo
        warm, _ = _run(program, config)
        with fastpath.reference():
            with telemetry.scoped(trace=False):
                core = NPUCore(
                    config, _permissive_guarder(),
                    DRAMModel(config.dram_bytes_per_cycle),
                )
                event = core.run_detailed(program)
        assert warm.cycles == event.cycles

    def test_config_change_misses_the_memo(self, config, compiler):
        program = compiler.compile(synthetic_mlp())
        _, cold = _run(program, config)
        assert cold.get("memo_misses", 0) > 0
        other = dataclasses.replace(
            config, dram_bytes_per_cycle=config.dram_bytes_per_cycle * 2
        )
        _, counts = _run(program, other)
        assert counts.get("memo_hits", 0) == 0
        assert counts.get("memo_misses", 0) > 0

    def test_source_digest_change_misses_the_memo(
        self, config, compiler, monkeypatch
    ):
        program = compiler.compile(synthetic_mlp())
        _run(program, config)
        monkeypatch.setattr(fastpath, "_SOURCE_DIGEST", "f" * 64)
        _, counts = _run(program, config)
        assert counts.get("memo_hits", 0) == 0
        assert counts.get("memo_misses", 0) > 0

    def test_memo_hit_still_rechecks_current_registers(
        self, config, compiler
    ):
        """A memo entry proves nothing about the *current* Guarder state:
        a hit must re-run the precheck and fall back when the registers
        no longer allow the schedule."""
        program = compiler.compile(synthetic_mlp())
        _run(program, config)  # memo populated under permissive registers
        denying = NPUGuarder()
        denying.set_checking_register(
            0, AddressRange(0, 1 << 40), Permission.READ, World.NORMAL,
            issuer=World.SECURE,
        )
        denying.set_translation_register(0, vbase=0, pbase=0, size=1 << 40)
        with telemetry.scoped(trace=False) as scope:
            core = NPUCore(
                config, denying, DRAMModel(config.dram_bytes_per_cycle)
            )
            with pytest.raises(Exception):
                core.run_detailed(program)
            snapshot = scope.metrics.snapshot()
        assert snapshot.get(
            f"{fastpath.GROUP_PREFIX}.fallbacks.guarder_unprovable", 0
        ) >= 1

    def test_memo_capacity_is_bounded(self, config, mlp_program):
        for index in range(fastpath._MEMO_MAX + 10):
            key = fastpath.memo_key(config, mlp_program, index, 1.0, "none")
            fastpath._memo_put(key, object())
        assert len(fastpath._MEMO) <= fastpath._MEMO_MAX
