"""Unit tests for the SoC facade."""

import pytest

from repro import SoC, SoCConfig
from repro.common.types import World
from repro.errors import ConfigError
from repro.mmu.guarder import NPUGuarder
from repro.mmu.smmu import TrustZoneSMMU
from repro.mmu.base import NoProtection
from repro.workloads.synthetic import synthetic_cnn, synthetic_mlp


class TestConstruction:
    def test_protection_selects_controller(self):
        assert isinstance(SoC(SoCConfig(protection="none")).controller, NoProtection)
        assert isinstance(
            SoC(SoCConfig(protection="trustzone")).controller, TrustZoneSMMU
        )
        assert isinstance(SoC(SoCConfig(protection="snpu")).controller, NPUGuarder)

    def test_snpu_boots_monitor(self):
        soc = SoC(SoCConfig(protection="snpu"))
        assert soc.monitor is not None and soc.monitor.booted

    def test_others_have_no_monitor(self):
        assert SoC(SoCConfig(protection="none")).monitor is None

    def test_unknown_protection(self):
        with pytest.raises(ConfigError):
            SoCConfig(protection="tinfoil")

    def test_iotlb_entries_respected(self):
        soc = SoC(SoCConfig(protection="trustzone", iotlb_entries=4))
        assert soc.controller.iotlb.entries == 4


class TestNonSecureFlow:
    @pytest.mark.parametrize("protection", ["none", "trustzone", "snpu"])
    def test_run_model(self, protection):
        soc = SoC(SoCConfig(protection=protection))
        result = soc.run_model(synthetic_mlp())
        assert result.cycles > 0
        assert 0 < result.utilization < 1

    def test_release_frees_heap(self):
        soc = SoC(SoCConfig(protection="snpu"))
        before = soc.heap.used_bytes
        handle = soc.submit(synthetic_cnn())
        assert soc.heap.used_bytes > before
        soc.run(handle)
        soc.release(handle)
        assert soc.heap.used_bytes == before

    def test_detailed_run_close_to_analytic(self):
        soc = SoC(SoCConfig(protection="snpu"))
        analytic = soc.run_model(synthetic_mlp())
        detailed = soc.run_model(synthetic_mlp(), detailed=True)
        assert detailed.cycles == analytic.cycles


class TestSecureFlow:
    def test_snpu_secure_lifecycle(self):
        soc = SoC(SoCConfig(protection="snpu"))
        handle = soc.submit(synthetic_mlp(), secure=True)
        assert handle.task_id is not None
        result = soc.run(handle)
        assert result.cycles > 0
        # Teardown downgraded the core.
        assert soc.cores[0].world is World.NORMAL
        assert soc.monitor.allocator.secure_bytes_used == 0

    def test_trustzone_secure_charges_world_switch(self):
        soc = SoC(SoCConfig(protection="trustzone"))
        plain = soc.run_model(synthetic_mlp())
        handle = soc.submit(synthetic_mlp(), secure=True)
        secure = soc.run(handle)
        soc.release(handle)
        assert secure.cycles > plain.cycles
        assert soc.controller.world_switches == 2  # enter + exit

    def test_normal_npu_rejects_secure_tasks(self):
        soc = SoC(SoCConfig(protection="none"))
        with pytest.raises(ConfigError):
            soc.submit(synthetic_mlp(), secure=True)

    def test_world_mismatch_rejected(self):
        soc = SoC(SoCConfig(protection="snpu"))
        program = soc.compile(synthetic_mlp(), secure=True)
        with pytest.raises(ConfigError):
            soc.submit(program, secure=False)

    def test_secure_detailed_run_moves_through_guarder(self):
        soc = SoC(SoCConfig(protection="snpu"))
        handle = soc.submit(synthetic_mlp(), secure=True)
        result = soc.run(handle, detailed=True)
        assert result.check_stats.translations > 0
        assert result.check_stats.violations == 0
