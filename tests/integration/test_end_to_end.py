"""Integration tests: full-system behaviour on the tiny zoo profile.

These assert the paper's qualitative *shapes* end-to-end (who wins, by
roughly what factor) on fast reduced-size workloads; the benchmark suite
repeats them at the eval profile.
"""

import pytest

from repro import SoC, SoCConfig
from repro.common.types import World
from repro.driver.scheduler import MultiTaskScheduler
from repro.experiments import fig13
from repro.npu.config import NPUConfig
from repro.workloads import zoo


@pytest.fixture(scope="module")
def tiny_models():
    return zoo.paper_models("tiny")


@pytest.fixture(scope="module")
def scheduler():
    return MultiTaskScheduler(NPUConfig.paper_default())


class TestAccessControlShape:
    @pytest.fixture(scope="class")
    def fig13_results(self):
        return fig13.run(profile="tiny", entries=(4, 32))

    def test_guarder_is_the_baseline(self, fig13_results):
        perf, _ = fig13_results
        assert all(row["guarder"] == 1.0 for row in perf.rows)

    def test_iommu_always_slower(self, fig13_results):
        perf, _ = fig13_results
        for row in perf.rows:
            assert row["iotlb-4"] < 1.0
            assert row["iotlb-32"] < 1.0

    def test_more_entries_never_slower(self, fig13_results):
        perf, _ = fig13_results
        for row in perf.rows:
            assert row["iotlb-32"] >= row["iotlb-4"] - 1e-9

    def test_loss_in_paper_band(self, fig13_results):
        perf, _ = fig13_results
        mean4 = sum(r["iotlb-4"] for r in perf.rows) / len(perf.rows)
        assert 0.70 < mean4 < 0.97

    def test_request_ratio_small(self, fig13_results):
        _, reqs = fig13_results
        mean_ratio = sum(r["ratio"] for r in reqs.rows) / len(reqs.rows)
        assert mean_ratio < 0.12  # paper: ~5%

    def test_every_model_present(self, fig13_results):
        perf, _ = fig13_results
        assert len(perf.rows) == 6


class TestFlushShape:
    def test_tile_flush_hurts_most(self, scheduler, tiny_models):
        for model in tiny_models:
            tile = scheduler.flush_slowdown(model, "tile")
            layer5 = scheduler.flush_slowdown(model, "layer5")
            assert tile < layer5

    def test_mean_tile_slowdown_double_digit(self, scheduler, tiny_models):
        mean = sum(
            scheduler.flush_slowdown(m, "tile") for m in tiny_models
        ) / len(tiny_models)
        assert mean < 0.92  # >= 8% average slowdown

    def test_coarse_flush_cheap(self, scheduler, tiny_models):
        for model in tiny_models:
            assert scheduler.flush_slowdown(model, "layer5") > 0.97


class TestSpatialShape:
    def test_dynamic_at_least_as_good_as_static(self, scheduler, tiny_models):
        by = {m.name: m for m in tiny_models}
        for a, b in (("googlenet", "yololite"), ("resnet", "bert")):
            statics = [
                scheduler.spatial_pair(by[a], by[b], "partition", s).total_norm
                for s in (0.25, 0.5, 0.75)
            ]
            dyn = scheduler.spatial_pair(by[a], by[b], "dynamic").total_norm
            assert dyn <= min(statics) + 1e-9


class TestProtectionsEndToEnd:
    @pytest.mark.parametrize("protection", ["none", "trustzone", "snpu"])
    def test_mixed_secure_and_nonsecure_tasks(self, protection, tiny_models):
        soc = SoC(SoCConfig(protection=protection))
        model = tiny_models[2]  # yololite
        plain = soc.run_model(model)
        assert plain.cycles > 0
        if protection == "none":
            return
        handle = soc.submit(model, secure=True)
        secure = soc.run(handle)
        soc.release(handle)
        assert secure.cycles >= plain.cycles  # protection never speeds up

    def test_snpu_secure_overhead_negligible(self, tiny_models):
        """The headline claim: sNPU's runtime security cost is ~0."""
        soc = SoC(SoCConfig(protection="snpu"))
        model = tiny_models[2]
        plain = soc.run_model(model)
        handle = soc.submit(model, secure=True)
        secure = soc.run(handle)
        assert secure.cycles == pytest.approx(plain.cycles, rel=0.01)

    def test_trustzone_secure_overhead_visible(self, tiny_models):
        soc = SoC(SoCConfig(protection="trustzone"))
        model = tiny_models[2]
        plain = soc.run_model(model)
        handle = soc.submit(model, secure=True)
        secure = soc.run(handle)
        soc.release(handle)
        assert secure.cycles > plain.cycles * 1.005

    def test_sequential_secure_tasks_reuse_resources(self, tiny_models):
        soc = SoC(SoCConfig(protection="snpu"))
        model = tiny_models[2]
        for _ in range(3):
            handle = soc.submit(model, secure=True)
            soc.run(handle)
        assert soc.monitor.allocator.secure_bytes_used == 0

    def test_detailed_and_analytic_agree_across_zoo(self, tiny_models):
        soc = SoC(SoCConfig(protection="snpu"))
        for model in tiny_models:
            analytic = soc.run_model(model)
            detailed = soc.run_model(model, detailed=True)
            assert detailed.cycles == analytic.cycles, model.name
