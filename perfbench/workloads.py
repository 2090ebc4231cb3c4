"""The benchmark's workloads: which ``repro`` invocations a run makes, and
how each op's output is checked.

Every op is one ``repro`` CLI invocation in a fresh interpreter, issued by
a single client in a closed loop (the next op starts when the previous one
has exited).  The op list depends only on the workload, ``--seed`` and
``--seconds``, never on how fast the program runs, so two commits always do
the same work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Every experiment ``repro experiments`` runs, each pinned by
#: ``tests/golden/<id>.json`` on the tiny profile.
FIGURE_IDS = (
    "fig01", "fig13", "fig13-energy", "fig14", "fig15", "fig16", "fig17",
    "fig18", "table1", "tcb", "sensitivity", "serve-sweep", "cluster-sweep",
    "watch",
)
#: Relative (and absolute) tolerance the golden suite applies to floats.
GOLDEN_TOL = 1e-9

SCENARIOS = ("default", "secure-heavy", "nlp-mix", "burst")
MECHANISMS = ("snpu", "partition", "flush-tile", "flush-layer", "flush-layer5")
#: One pass of ``serve`` (4 scenarios x 5 mechanisms) costs about this many
#: reference seconds; ``--seconds`` buys whole passes.  Three passes (60
#: ops) put ``op_tail_s`` at p83, inside the 15 slowest ops (the snpu and
#: saturated default/flush-tile cells).  With two passes p75 fell exactly
#: on the edge of the 10 slowest and spread by 24% across seeds.
SERVE_PASS_S = 14

#: Spatial (snpu, partition) and temporal (flush-layer) mechanisms.
#: flush-tile saturates at this load, so it is only in ``serve``.
LONG_MECHANISMS = ("snpu", "partition", "flush-layer")
#: At the default scenario's own 300 rps the spatial mechanisms' mean wait
#: keeps growing with the horizon (29 ms at 10 s, 78 ms at 120 s): the run
#: would time a backlog.  At 250 rps it is flat (10.0 ms at 40 s, 10.3 ms
#: at 120 s).
LONG_RPS = 250
#: Simulated horizon per ``--seconds`` of run length (40 s -> 120 s).
LONG_HORIZON_MS_PER_S = 3000


@dataclass(frozen=True)
class Op:
    op_id: str
    #: ``repro`` argv, without the output option the benchmark adds.
    argv: Tuple[str, ...]
    #: Serving scenario; None for an ``experiments`` op.
    scenario: Optional[str] = None

    def command(self, out: str) -> List[str]:
        """argv writing the op's output to *out* (a directory for
        ``experiments``, a report file for ``serve``)."""
        flag = "--outdir" if self.scenario is None else "-o"
        return [*self.argv, flag, out]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable[[int, int], List[Op]]


def _figures_ops(seed: int, seconds: int) -> List[Op]:
    # The tiny profile is pinned by its goldens; ``repro experiments`` takes
    # no seed, and one op already runs about 30 s.
    return [Op("figures-0", ("experiments", "--profile", "tiny"))]


def _op_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2 ** 31))


def _serve_ops(seed: int, seconds: int) -> List[Op]:
    rng = random.Random(f"serve:{seed}")
    passes = max(1, round(seconds / SERVE_PASS_S))
    cells = [(s, m) for _ in range(passes) for s in SCENARIOS for m in MECHANISMS]
    return [
        Op(f"serve-{i:02d}",
           ("serve", scenario, "--mechanism", mechanism,
            "--seed", _op_seed(rng), "--format", "json"),
           scenario)
        for i, (scenario, mechanism) in enumerate(cells)
    ]


def _serve_long_ops(seed: int, seconds: int) -> List[Op]:
    rng = random.Random(f"serve-long:{seed}")
    horizon = str(seconds * LONG_HORIZON_MS_PER_S)
    return [
        Op(f"serve-long-{i}",
           ("serve", "default", "--rps", str(LONG_RPS), "--duration", horizon,
            "--mechanism", mechanism, "--seed", _op_seed(rng),
            "--format", "json"),
           "default")
        for i, mechanism in enumerate(LONG_MECHANISMS)
    ]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The paper-reproduction command.  Tiling compile and the detailed
    # timing engine with the IOMMU/Guarder models do most of its work;
    # per-request serving does almost none.  Goldens give an exact check.
    Workload(
        "figures",
        "repro experiments --profile tiny: compile and the detailed timing "
        "engine dominate; goldens pin every row",
        _figures_ops,
    ),
    # Interactive serving studies at each scenario's default horizon
    # (75-598 requests, 0.6-2.6 s per op).  Start-up, the rate-oracle
    # compile, report rendering and store ingest dominate; the per-request
    # loop is small, so work moved into start-up shows here.
    Workload(
        "serve",
        "4 scenarios x 5 mechanisms at default horizons: start-up, oracle "
        "compile, report and store ingest dominate",
        _serve_ops,
    ),
    # Long horizons: the per-request path (queueing loop, flow tracking,
    # audit ledger) does most of the work and compile is amortised.
    Workload(
        "serve-long",
        "default scenario at 250 rps over a 120 s horizon, spatial and "
        "temporal mechanisms: the per-request serving path dominates",
        _serve_long_ops,
    ),
)}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class Checked(NamedTuple):
    problems: List[str]
    digest: str
    #: Simulated requests completed.
    requests: int
    #: Simulated work counters summed over the op's metrics files.
    counts: Dict[str, int]


#: Work counters summed from ``<exp_id>.metrics.json``; instance-numbered
#: groups (``npu.dma#3.requests``) fold into their base name.
COUNTED = (
    "npu.dma.requests", "npu.dma.packets", "mmu.iommu.checks",
    "mmu.iommu.page_walks", "mmu.guarder.checks", "sim.engine.events_fired",
    "serving.completed",
)
_METRIC = re.compile(r"^([\w.]+?)(?:#\d+)?\.(\w+)$")


def check(op: Op, out: str, golden_dir: str,
          tenants: Callable[[str], Sequence[str]]) -> Checked:
    if op.scenario is None:
        return check_figures(out, golden_dir)
    return check_serve(op, out, tenants(op.scenario))


def check_figures(outdir: str, golden_dir: str) -> Checked:
    problems: List[str] = []
    digest = hashlib.sha256()
    for exp_id in FIGURE_IDS:
        golden = _load(os.path.join(golden_dir, f"{exp_id}.json"), problems)
        for gold in (golden or {}).get("results", ()):
            rid = gold["exp_id"]
            fresh = _load(os.path.join(outdir, f"{rid}.json"), problems)
            if fresh is None:
                continue
            fresh.pop("metrics", None)
            digest.update(json.dumps(fresh, sort_keys=True).encode())
            problems.extend(compare_result(gold, fresh))
    counts = summed_counts(outdir)
    return Checked(problems, digest.hexdigest(),
                   counts.get("serving.completed", 0), counts)


def compare_result(gold: dict, fresh: dict) -> List[str]:
    """Differences of one figure from its golden, by the golden suite's rule:
    floats within relative 1e-9, everything else exact."""
    rid = gold["exp_id"]
    for key in ("title", "columns", "notes"):
        if gold[key] != fresh.get(key):
            return [f"{rid}: {key} differs from golden"]
    if len(gold["rows"]) != len(fresh["rows"]):
        return [f"{rid}: {len(fresh['rows'])} rows, golden has {len(gold['rows'])}"]
    problems = []
    for i, (grow, nrow) in enumerate(zip(gold["rows"], fresh["rows"])):
        if sorted(grow) != sorted(nrow):
            problems.append(f"{rid} row {i}: columns differ from golden")
            continue
        for column in gold["columns"]:
            if not _cell_equal(grow[column], nrow[column]):
                problems.append(f"{rid} row {i} {column}: {nrow[column]!r} "
                                f"!= golden {grow[column]!r}")
    return problems


def _cell_equal(expected, actual) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        return (isinstance(actual, (int, float))
                and not isinstance(actual, bool)
                and math.isclose(float(expected), float(actual),
                                 rel_tol=GOLDEN_TOL, abs_tol=GOLDEN_TOL))
    return expected == actual


def summed_counts(outdir: str) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    if not os.path.isdir(outdir):
        return counts
    for name in sorted(os.listdir(outdir)):
        if not name.endswith(".metrics.json"):
            continue
        with open(os.path.join(outdir, name)) as fh:
            snapshot = json.load(fh)
        for key, value in snapshot.items():
            match = _METRIC.match(key)
            if not match or not isinstance(value, (int, float)):
                continue
            base = f"{match.group(1)}.{match.group(2)}"
            if base in COUNTED or base.startswith("sim.fastpath."):
                counts[base] = counts.get(base, 0) + int(value)
    return counts


def check_serve(op: Op, path: str, tenants: Sequence[str]) -> Checked:
    problems: List[str] = []
    report = _load(path, problems)
    if report is None:
        return Checked(problems, "", 0, {})
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    mechanism = op.argv[op.argv.index("--mechanism") + 1]
    if (report.get("scenario"), report.get("mechanism")) != (op.scenario, mechanism):
        problems.append("report is for another scenario or mechanism")
    completed = report.get("completed")
    rows = report.get("tenants") or {}
    if sum(row.get("n", 0) for row in rows.values()) != completed:
        problems.append(f"tenant n values do not sum to completed={completed}")
    missing = sorted(set(tenants) - set(rows))
    if missing:
        problems.append(f"tenants missing from report: {', '.join(missing)}")
    return Checked(problems, digest, completed if isinstance(completed, int) else 0, {})


def _load(path: str, problems: List[str]):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None
