"""Host-cost benchmark of the sNPU simulator's ``repro`` command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 40 --trace 0

Workloads are defined in ``perfbench/workloads.py``.  Each op is one
``repro`` invocation in a fresh interpreter; a single client runs them one
at a time.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same ops once untraced and once traced and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The default seed is 1; seed 7 is held out for checking a claimed gain.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import mmap
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

if __name__ == "__main__":
    # Run as a script: import the benchmark's modules from the checkout root.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import calibrate, spans, stats  # noqa: E402
from perfbench.workloads import FIGURE_IDS, WORKLOADS, Op, check  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "shim.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: ``setup_s`` is a median of at least this many set-ups: the ops' plus
#: import-only interpreters started before them.
SETUP_SAMPLES = 15
#: Every op must have ended this long after the run started.
RUN_DEADLINE_S = 170.0
#: ``calibrate.py`` chunks per CPU second that define one reference second:
#: about the loop's median rate on a shared 2-CPU x86 container.
REFERENCE_RATE = 6000.0
#: stderr lines that make an op count as failed.
FAILURE_MARKS = ("Traceback (most recent call last)",
                 "warning: run archive ingest failed")


@dataclass
class OpRun:
    op: Op
    #: Host seconds at the reference CPU speed (see :class:`Speed`).
    seconds: float
    rss_mb: float
    #: Spawn to ``repro.cli`` imported, at the reference speed; None if the
    #: import never finished.
    setup_s: Optional[float]
    problems: List[str]
    digest: str = ""
    requests: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    trace: Optional[dict] = None
    #: Reference seconds per elapsed second during this op.
    speed: float = 1.0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


class Speed:
    """How fast the shared CPU runs right now, from ``calibrate.py``.

    The machine this benchmark runs on may be shared: its CPU can run at
    half speed for seconds at a time as neighbours come and go.  The benchmark
    therefore pins itself, its ops and a nice-10 calibration loop to one
    CPU.  The loop takes about 10% of the CPU while an op runs, and its
    chunks per CPU second say how fast that CPU ran during the op.  An op's
    elapsed time times that rate over :data:`REFERENCE_RATE` is its time at
    the reference speed.
    """

    def __init__(self, workdir: str):
        path = os.path.join(workdir, "speed")
        with open(path, "wb") as fh:
            fh.write(bytes(calibrate.LAYOUT.size))
        self.proc = subprocess.Popen(
            [sys.executable, CALIBRATE, path],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        with open(path, "r+b") as fh:
            self.shared = mmap.mmap(fh.fileno(), calibrate.LAYOUT.size)
        deadline = time.monotonic() + 30.0
        while self.read()[0] < 2:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise SystemExit("error: the calibration loop did not start")
            time.sleep(0.01)
        self.start = self.read()

    def read(self) -> tuple:
        """(chunks done, calibrator CPU ns), read until two reads agree."""
        while True:
            first = calibrate.LAYOUT.unpack(self.shared)
            if calibrate.LAYOUT.unpack(self.shared) == first:
                return first

    def factor(self, before: tuple, after: tuple) -> float:
        """Reference seconds per elapsed second between two reads."""
        if after[1] <= before[1]:
            before = self.start  # no sample inside: use the run so far
        rate = (after[0] - before[0]) / ((after[1] - before[1]) / 1e9)
        return rate / REFERENCE_RATE

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.shared.close()


class Runner:
    """Spawns ops in one fresh directory inside the checkout."""

    def __init__(self, root: str, workdir: str, deadline: float, speed: Speed):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.speed = speed
        self.env = op_env(os.path.join(root, "src"), workdir)
        self._tenants: Dict[str, List[str]] = {}

    def spawn(self, argv: Sequence[str], op_id: str, traced: bool):
        """Run one interpreter; return (elapsed seconds, speed factor,
        returncode, rss_mb, shim report or None, stderr text)."""
        report_path = os.path.join(self.workdir, f"{op_id}.shim.json")
        env = dict(self.env, PERFBENCH_REPORT=report_path, PERFBENCH_OP=op_id,
                   PERFBENCH_TRACE="1" if traced else "0")
        err_path = os.path.join(self.workdir, f"{op_id}.stderr")
        with open(os.path.join(self.workdir, f"{op_id}.stdout"), "wb") as out, \
                open(err_path, "wb") as err:
            before = self.speed.read()
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, SHIM, *argv], cwd=self.workdir, env=env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                # A process group, not a session: a new session would get
                # its own scheduler autogroup, and the calibration loop's
                # nice level would no longer yield to the op.
                process_group=0,
            )
            timer = threading.Timer(max(1.0, self.deadline - started),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.monotonic() - started
            factor = self.speed.factor(before, self.speed.read())
            proc.returncode = os.waitstatus_to_exitcode(status)
        report = None
        if os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
            report["setup_s"] = (report["imported"] - started) * factor
        with open(err_path, errors="replace") as fh:
            stderr = fh.read()
        return (elapsed, factor, proc.returncode, usage.ru_maxrss / 1024.0,
                report, stderr)

    def probe(self, index: int) -> float:
        """Set-up time of an import-only interpreter."""
        _, _, code, _, report, stderr = self.spawn((), f"probe-{index}", False)
        if code != 0 or report is None:
            raise SystemExit(f"error: importing repro.cli failed:\n{stderr}")
        return report["setup_s"]

    def run(self, op: Op, traced: bool) -> OpRun:
        out = os.path.join(self.workdir, op.op_id + ("" if op.scenario is None else ".json"))
        elapsed, factor, code, rss, report, stderr = self.spawn(
            op.command(out), op.op_id, traced)
        problems = [f"exit code {code}"] if code else []
        problems += [mark for mark in FAILURE_MARKS if mark in stderr]
        checked = check(op, out, os.path.join(self.root, "tests", "golden"),
                        self.tenants)
        return OpRun(
            op, elapsed * factor, rss, report and report["setup_s"],
            problems + checked.problems, checked.digest, checked.requests,
            checked.counts, report and report.get("trace"), factor, elapsed,
        )

    def tenants(self, scenario: str) -> List[str]:
        """The scenario's tenant names, as the program defines them."""
        if not self._tenants:
            src = os.path.join(self.root, "src")
            if src not in sys.path:
                sys.path.append(src)
            from repro.serving.workload import SCENARIOS

            self._tenants = {name: [t.name for t in s.tenants]
                             for name, s in SCENARIOS.items()}
        return self._tenants.get(scenario, [])


def op_env(src: str, workdir: str) -> Dict[str, str]:
    """The ops' environment: no inherited ``REPRO_*`` settings (such as
    ``REPRO_FASTPATH`` or ``REPRO_PROFILE``), and the run archive, result
    cache and temp files inside *workdir*."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PERFBENCH_"))}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env["REPRO_STORE"] = os.path.join(workdir, "runs.sqlite")
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(env["TMPDIR"])
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(runs: List[OpRun], setups: List[float]) -> Dict[str, tuple]:
    """name -> (value, unit, note)."""
    seconds = [r.seconds for r in runs]
    wall = sum(seconds)
    tail = stats.tail(seconds)
    failed = sum(1 for r in runs if not r.ok)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_s": (wall, "s", f"{len(runs)} ops"),
        "op_p50_s": (statistics.median(seconds), "s", ""),
        "op_tail_s": (tail.value, "s", f"p{tail.percentile:.4g}, {tail.beyond} "
                      f"of {tail.samples} ops beyond"),
        "requests_per_s": (sum(r.requests for r in runs) / wall, "1/s",
                           f"{sum(r.requests for r in runs)} simulated requests"),
        "peak_rss_mb": (max(r.rss_mb for r in runs), "MB", ""),
        "failed_share": (stats.failed_share(len(runs), failed), "fraction",
                         f"{failed} of {len(runs)} ops"),
    }


#: Layers reported as ``<name>.calls`` and ``<name>.self_s``.
LAYERS = tuple(dict.fromkeys(
    name for name, _, _ in spans.ENTRY_POINTS if name not in spans.SPAN_NAMERS))
COUNT_METRICS = ("npu.dma.requests", "npu.dma.packets", "mmu.iommu.checks",
                 "mmu.iommu.page_walks", "mmu.guarder.checks",
                 "sim.engine.events_fired")


def per_layer(traced: List[OpRun], overhead_s: float):
    """(name -> (value, unit, note), any ``sim.fastpath.*`` counts)."""
    totals: Dict[str, Dict[str, float]] = {}
    hits = repeats = dropped = 0
    absent = set()
    for run in traced:
        trace = run.trace or {"spans": [], "absent": list(LAYERS)}
        for name, row in spans.aggregate(trace["spans"]).items():
            acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"] * run.speed
            acc["total_s"] += row["total_s"] * run.speed
        # A scheduler.run without a timing call below it was a cache hit.
        timed = {s[1] for s in trace["spans"] if s[2] == "core.run_analytic"}
        hits += sum(1 for s in trace["spans"]
                    if s[2] == "scheduler.run" and s[0] not in timed)
        repeats += trace.get("compile_repeats", 0)
        dropped += trace.get("audit_dropped", 0)
        absent.update(trace.get("absent", ()))
    counts: Dict[str, int] = {}
    for run in traced:
        for key, value in run.counts.items():
            counts[key] = counts.get(key, 0) + value
    requests = sum(r.requests for r in traced)

    def row(name: str) -> Dict[str, float]:
        return totals.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: Dict[str, tuple] = {}
    for name in LAYERS:
        note = "absent" if name in absent else ""
        out[f"{name}.calls"] = (row(name)["calls"], "count", note)
        out[f"{name}.self_s"] = (row(name)["self_s"], "s", note)
    out["compiler.repeat_share"] = (
        share(repeats, row("compiler.compile")["calls"]), "fraction", "")
    out["scheduler.hit_share"] = (
        share(hits, row("scheduler.run")["calls"]), "fraction", "")
    out["core.ns_per_dma_packet"] = (
        share(row("core.run_detailed")["self_s"] * 1e9, counts.get("npu.dma.packets", 0)),
        "ns", "")
    for name in COUNT_METRICS:
        out[name] = (counts.get(name, 0), "count", "")
    out["serving.us_per_request"] = (
        share(row("serving.simulate")["self_s"] * 1e6, requests), "us", "")
    telemetry_s = (row("telemetry.flow_complete")["self_s"]
                   + row("telemetry.audit_record")["self_s"])
    out["telemetry.us_per_request"] = (share(telemetry_s * 1e6, requests), "us", "")
    out["telemetry.audit_dropped"] = (dropped, "count", "")
    for exp_id in FIGURE_IDS:
        out[f"experiments.{exp_id}.s"] = (
            row(f"experiments.{exp_id}")["total_s"], "s",
            "absent" if "experiments.run_one" in absent else "")
    out["trace.overhead_s"] = (overhead_s, "s", "traced minus untraced wall")
    fastpath = {k: v for k, v in counts.items() if k.startswith("sim.fastpath.")}
    return out, fastpath


def purpose(workload: str, traced: List[OpRun]) -> str:
    """The traced split behind each workload's stated purpose.  Spans are
    in elapsed seconds, so they are compared with elapsed op time."""
    rows = [spans.aggregate((r.trace or {}).get("spans", [])) for r in traced]

    def self_s(agg, prefixes) -> float:
        return sum(v["self_s"] for k, v in agg.items() if k.startswith(prefixes))

    if workload == "figures":
        what = "compiler+core self time / wall"
        value = (sum(self_s(a, ("compiler.", "core.")) for a in rows)
                 / sum(r.elapsed for r in traced))
    elif workload == "serve-long":
        what = "serving+telemetry self time / op, lowest op"
        value = min(self_s(a, ("serving.", "telemetry.")) / r.elapsed
                    for a, r in zip(rows, traced))
    else:
        what = "(set-up + compile self time) / op, median op"
        value = statistics.median(
            ((r.setup_s or 0.0) / r.speed + self_s(a, ("compiler.",))) / r.elapsed
            for a, r in zip(rows, traced))
    return f"{what} = {value:.3f}: {'holds' if value > 0.5 else 'DOES NOT HOLD'} (> 0.5)"


# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=int, default=40,
                        help="run length; fixes the op list (see workloads.py)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the root of a repro source checkout "
              "(src/repro/cli.py not found)", file=sys.stderr)
        return 2
    started = time.monotonic()
    ops = WORKLOADS[args.workload].ops(args.seed, args.seconds)
    # Byte-compile once, as an installed package would be, so the first op
    # of a fresh checkout does not pay for it.
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    # One CPU for the benchmark, its ops and the calibration loop (children
    # inherit the affinity): ops are single-threaded at their defaults.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    passes = [False, True] if args.trace else [False]
    results: Dict[bool, List[OpRun]] = {}
    setups: List[float] = []
    speed = None
    try:
        speed = Speed(scratch)
        for traced in passes:
            runner = Runner(root, tempfile.mkdtemp(dir=scratch),
                            started + RUN_DEADLINE_S, speed)
            if not traced:
                probes = max(3, SETUP_SAMPLES - len(ops))
                setups = [runner.probe(i) for i in range(probes)]
            results[traced] = [runner.run(op, traced) for op in ops]
    finally:
        if speed is not None:
            speed.close()
        shutil.rmtree(scratch, ignore_errors=True)

    plain = results[False]
    for run in plain + results.get(True, []):
        status = "ok" if run.ok else "FAILED: " + "; ".join(run.problems[:5])
        print(f"op {run.op.op_id}{' traced' if run.trace else ''} "
              f"{' '.join(run.op.argv)}: {run.seconds:.3f} s "
              f"({run.elapsed:.3f} s elapsed x {run.speed:.3f}), "
              f"rss {run.rss_mb:.1f} MB, digest {run.digest[:16]} {status}")
    print(f"digest run {hashlib.sha256(''.join(r.digest for r in plain).encode()).hexdigest()[:16]}")
    metrics = end_to_end(plain, setups + [r.setup_s for r in plain
                                          if r.setup_s is not None])
    if args.trace:
        traced = results[True]
        overhead = sum(r.seconds for r in traced) - sum(r.seconds for r in plain)
        layer, fastpath = per_layer(traced, overhead)
        print(f"purpose {args.workload}: {purpose(args.workload, traced)}")
        for name, value in sorted(fastpath.items()):
            print(f"  {name} {value} count")
        shown = {**metrics, **layer}
        reported = layer
    else:
        shown = reported = metrics
    for name, (value, unit, note) in shown.items():
        print(f"  {name:32s} {value:14.6g} {unit:8s} {note}")
    runs = plain + results.get(True, [])
    failed = sum(1 for r in runs if not r.ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in reported.items()
                    if name != "failed_share"},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
