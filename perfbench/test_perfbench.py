"""Tests of the benchmark's own code.

Run from the checkout root::

    python3 -m unittest perfbench.test_perfbench
"""

import json
import os
import sys
import tempfile
import types
import unittest

from perfbench import run, spans, stats, workloads


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        t = stats.tail([float(v) for v in range(1, 41)])
        self.assertEqual(t, stats.Tail(30.0, 75.0, 10, 40))
        t = stats.tail([float(v) for v in range(100, 0, -1)])
        self.assertEqual((t.value, t.percentile, t.beyond), (90.0, 90.0, 10))

    def test_twenty_values_give_the_median(self):
        t = stats.tail([float(v) for v in range(20)])
        self.assertEqual((t.value, t.percentile, t.beyond), (9.0, 50.0, 10))

    def test_fewer_than_ten_beyond_any_percentile_reports_the_median(self):
        t = stats.tail([5.0, 1.0, 4.0, 2.0, 3.0])
        self.assertEqual((t.value, t.percentile, t.beyond, t.samples),
                         (3.0, 60.0, 2, 5))
        # 15 values: the rank with ten beyond (5) is below the median.
        t = stats.tail([float(v) for v in range(1, 16)])
        self.assertEqual((t.value, t.beyond), (8.0, 7))
        self.assertEqual(stats.tail([2.5]), stats.Tail(2.5, 100.0, 0, 1))

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class FailedShareTest(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.failed_share(4, 0), 0.0)
        self.assertEqual(stats.failed_share(4, 1), 0.25)
        for attempted, failed in ((0, 0), (2, 3), (2, -1)):
            with self.assertRaises(ValueError):
                stats.failed_share(attempted, failed)

    def test_end_to_end_counts_ops_with_problems(self):
        op = workloads.Op("x", ("serve",), "default")
        runs = [run.OpRun(op, 1.0, 10.0, 0.3, []),
                run.OpRun(op, 2.0, 12.0, 0.3, ["exit code 1"]),
                run.OpRun(op, 3.0, 11.0, None, ["tenants missing"]),
                run.OpRun(op, 4.0, 9.0, 0.3, [], requests=100)]
        metrics = run.end_to_end(runs, [0.2, 0.3])
        self.assertEqual(metrics["failed_share"][0], 0.5)
        self.assertEqual(metrics["wall_s"][0], 10.0)
        self.assertEqual(metrics["requests_per_s"][0], 10.0)
        self.assertEqual(metrics["peak_rss_mb"][0], 12.0)


class SpeedTest(unittest.TestCase):
    def test_factor_is_calibration_rate_over_reference(self):
        speed = run.Speed.__new__(run.Speed)
        speed.start = (0, 0)
        rate = run.REFERENCE_RATE
        self.assertAlmostEqual(speed.factor((10, 10**9), (10 + rate, 2 * 10**9)), 1.0)
        self.assertAlmostEqual(
            speed.factor((0, 0), (rate, 2 * 10**9)), 0.5)
        # No calibration sample inside the op: fall back to the whole run.
        self.assertAlmostEqual(
            speed.factor((2 * rate, 10**9), (2 * rate, 10**9)), 2.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_with_overlap(self):
        trace = [
            [0, -1, "a", 0.0, 10.0],
            [1, 0, "b", 1.0, 4.0],
            [2, 0, "c", 3.0, 6.0],   # overlaps b: a's children cover 1..6
            [3, 1, "d", 2.0, 3.0],
        ]
        self.assertEqual(spans.self_times(trace), {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})

    def test_recursive_spans_are_not_counted_twice(self):
        trace = [
            [0, -1, "f", 0.0, 10.0],
            [1, 0, "f", 2.0, 8.0],
            [2, 1, "g", 2.5, 3.0],
            [3, 1, "f", 3.0, 5.0],
        ]
        agg = spans.aggregate(trace)
        self.assertEqual(agg["f"], {"calls": 3, "self_s": 9.5, "total_s": 10.0})
        self.assertEqual(agg["g"], {"calls": 1, "self_s": 0.5, "total_s": 0.5})

    def test_recorder_links_recursive_calls_to_their_parent(self):
        ticks = iter(range(100))
        recorder = spans.Recorder("op-1", clock=lambda: float(next(ticks)))

        def fact(n):
            return 1 if n <= 1 else n * traced(n - 1)

        traced = recorder.wrap("fact", fact)
        self.assertEqual(traced(3), 6)
        self.assertEqual([s[:3] for s in recorder.spans],
                         [[0, -1, "fact"], [1, 0, "fact"], [2, 1, "fact"]])
        agg = spans.aggregate(recorder.spans)["fact"]
        # Six ticks: 0..5 outer, 1..4 middle, 2..3 inner.
        self.assertEqual(agg, {"calls": 3, "self_s": 5.0, "total_s": 5.0})


class FakeModule:
    """A throwaway module with a class, a property, a classmethod and a
    function that another module imported by name."""

    def __enter__(self):
        self.module = types.ModuleType("perfbench_fake")

        class Thing:
            @property
            def key(self):
                return "k"

            @classmethod
            def make(cls):
                return cls()

            def go(self, x):
                return x + 1

        def helper():
            return Thing().go(1)

        self.module.Thing, self.module.helper = Thing, helper
        self.alias = types.ModuleType("perfbench_fake_alias")
        self.alias.helper = helper
        sys.modules["perfbench_fake"] = self.module
        sys.modules["perfbench_fake_alias"] = self.alias
        return self

    def __exit__(self, *exc):
        del sys.modules["perfbench_fake"], sys.modules["perfbench_fake_alias"]


class RecorderInstallTest(unittest.TestCase):
    def test_absent_entry_points_are_reported_not_raised(self):
        with FakeModule() as fake:
            recorder = spans.Recorder("op-1")
            recorder.install([
                ("fake.go", "perfbench_fake", "Thing.go"),
                ("fake.gone_module", "perfbench_no_such_module", "f"),
                ("fake.gone_attr", "perfbench_fake", "Thing.missing"),
                ("fake.gone_class", "perfbench_fake", "Missing.go"),
            ])
            self.assertEqual(recorder.absent,
                             ["fake.gone_module", "fake.gone_attr", "fake.gone_class"])
            self.assertEqual(fake.module.Thing().go(1), 2)
        self.assertEqual([s[2] for s in recorder.spans], ["fake.go"])

    def test_property_classmethod_and_imported_alias(self):
        with FakeModule() as fake:
            recorder = spans.Recorder("op-1")
            recorder.install([
                ("fake.key", "perfbench_fake", "Thing.key"),
                ("fake.make", "perfbench_fake", "Thing.make"),
                ("fake.helper", "perfbench_fake", "helper"),
            ])
            thing = fake.module.Thing.make()
            self.assertEqual(thing.key, "k")
            self.assertEqual(fake.alias.helper(), 2)
        self.assertEqual([s[2] for s in recorder.spans],
                         ["fake.make", "fake.key", "fake.helper"])

    def test_absent_layer_reads_absent_in_per_layer_metrics(self):
        op = workloads.Op("serve-00", ("serve",), "default")
        trace = {"spans": [[0, -1, "serving.simulate", 0.0, 2.0]],
                 "absent": ["telemetry.flow_complete"],
                 "compile_repeats": 0, "audit_dropped": 0}
        traced = [run.OpRun(op, 3.0, 10.0, 0.3, [], requests=100, trace=trace)]
        layer, _ = run.per_layer(traced, 0.5)
        self.assertEqual(layer["telemetry.flow_complete.self_s"], (0.0, "s", "absent"))
        self.assertEqual(layer["serving.simulate.self_s"][0], 2.0)
        self.assertEqual(layer["serving.us_per_request"][0], 20000.0)
        self.assertEqual(layer["trace.overhead_s"][0], 0.5)


class ChecksTest(unittest.TestCase):
    GOLD = {"exp_id": "figx", "title": "t", "columns": ["name", "v"],
            "notes": [], "rows": [{"name": "a", "v": 1.0}]}

    def test_golden_rule(self):
        same = json.loads(json.dumps(self.GOLD))
        same["rows"][0]["v"] = 1.0 + 5e-10
        self.assertEqual(workloads.compare_result(self.GOLD, same), [])
        drift = json.loads(json.dumps(self.GOLD))
        drift["rows"][0]["v"] = 1.0 + 1e-8
        self.assertEqual(len(workloads.compare_result(self.GOLD, drift)), 1)
        renamed = json.loads(json.dumps(self.GOLD))
        renamed["rows"][0]["name"] = "b"
        self.assertEqual(len(workloads.compare_result(self.GOLD, renamed)), 1)
        short = dict(self.GOLD, rows=[])
        self.assertEqual(len(workloads.compare_result(self.GOLD, short)), 1)

    def test_incomplete_serve_report(self):
        op = workloads.Op("serve-00", ("serve", "default", "--mechanism", "snpu"),
                          "default")
        report = {"scenario": "default", "mechanism": "snpu", "completed": 5,
                  "tenants": {"cam": {"n": 3}, "nlp": {"n": 2}}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.json")
            with open(path, "w") as fh:
                json.dump(report, fh)
            ok = workloads.check_serve(op, path, ["cam", "nlp"])
            self.assertEqual((ok.problems, ok.requests), ([], 5))
            self.assertEqual(len(workloads.check_serve(op, path, ["cam", "nlp", "batch"])
                                 .problems), 1)
            report["completed"] = 6
            with open(path, "w") as fh:
                json.dump(report, fh)
            self.assertEqual(len(workloads.check_serve(op, path, ["cam", "nlp"])
                                 .problems), 1)
            self.assertEqual(len(workloads.check_serve(op, path + "x", []).problems), 1)

    def test_counts_fold_instance_numbers(self):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "a.metrics.json"), "w") as fh:
                json.dump({"npu.dma.packets": 3, "npu.dma#2.packets": 4,
                           "npu.dma.transfer_cycles.p50": 9.5,
                           "serving#1.completed": 7}, fh)
            counts = workloads.summed_counts(tmp)
        self.assertEqual(counts, {"npu.dma.packets": 7, "serving.completed": 7})


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_report(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
        with open(path) as fh:
            doc = json.load(fh)
        self.assertEqual([(w["name"], w["why"]) for w in doc["workloads"]],
                         [(w.name, w.why) for w in workloads.WORKLOADS.values()])
        op = workloads.Op("x", ("serve",), "default")
        e2e = run.end_to_end([run.OpRun(op, 1.0, 10.0, 0.3, [], requests=1)], [0.3])
        self.assertEqual({(m["name"], m["unit"]) for m in doc["end_to_end"]},
                         {(k, v[1]) for k, v in e2e.items() if k != "failed_share"})
        layer, _ = run.per_layer([], 0.0)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         [(k, v[1]) for k, v in layer.items()])


class WorkloadTest(unittest.TestCase):
    def test_ops_depend_only_on_seed_and_seconds(self):
        for workload in workloads.WORKLOADS.values():
            self.assertEqual(workload.ops(1, 40), workload.ops(1, 40))
        serve = workloads.WORKLOADS["serve"]
        self.assertNotEqual(serve.ops(1, 40), serve.ops(7, 40))
        self.assertEqual(len(serve.ops(1, 40)), 60)
        self.assertEqual(len(serve.ops(1, 5)), 20)
        long_ops = workloads.WORKLOADS["serve-long"].ops(1, 40)
        self.assertTrue(all("120000" in op.argv for op in long_ops))


if __name__ == "__main__":
    unittest.main()
