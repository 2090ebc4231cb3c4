"""Exit-code contract of ``python -m repro``: 2 for bad input, 1 for a
failed simulation, security check or reconciliation.

The SLO-breach leg of exit 1 is covered by
``test_watch_cli.py::TestSLOCLI::test_breaching_spec_exits_one``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro.cli as cli
from repro.cli import main
from repro.errors import (
    ReconciliationError, SecurityViolation, SimulationError,
)
from repro.store import RunStore
from repro.store.ingest import record_from_bench


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiments_rejects_nonpositive_jobs_at_parse_time(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiments", "fig16", "--jobs", jobs, "--outdir", ""])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "resnet", "--input-size", "0"],
    ["serve", "default", "--duration", "-1"],
], ids=["run-input-size-0", "serve-duration-negative"])
def test_config_error_exits_two(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.mark.parametrize("argv", [
    ["serve", "default", "--duration", "nan"],
    ["serve", "default", "--duration", "inf"],
    ["serve", "default", "--rps", "nan", "--duration", "10"],
    ["serve", "default", "--rps", "inf", "--duration", "10"],
    ["serve", "default", "--workers", "2", "--requests", "nan"],
    ["serve", "default", "--workers", "2", "--requests", "inf"],
    ["serve", "default", "--workers", "2", "--detail", "nan"],
    ["watch", "default", "--window", "nan"],
    ["disasm", "resnet", "--limit", "-1"],
], ids=" ".join)
def test_non_finite_or_negative_input_exits_two(argv, tmp_path):
    """Non-finite rates, horizons and windows used to hang the arrival
    generator or escape as tracebacks; each is bad input: one line on
    stderr, exit 2, promptly."""
    _assert_bad_input(_repro(argv, tmp_path, timeout=10))


@pytest.mark.parametrize("argv", [
    ["trace", "mobilenet", "--input-size", "56"],
    ["serve", "default", "--duration", "20"],
    ["flows", "mobilenet"],
    ["audit", "snpu"],
    ["profile", "mobilenet"],
    ["watch", "default", "--duration", "20"],
    ["report", "--store", "runs.db"],
], ids=lambda argv: argv[0])
def test_unwritable_output_path_exits_two(argv, tmp_path):
    """An output path in a directory that does not exist is bad input,
    not a FileNotFoundError traceback."""
    if argv[0] == "report":
        RunStore(str(tmp_path / "runs.db")).ingest(record_from_bench({
            "bench_id": "demo",
            "metrics": {"deterministic": {"rows": 1},
                        "timing": {"run_seconds": 1.0}},
        }, "demo"))
    out = tmp_path / "missing" / "out"
    proc = _repro([*argv, "-o", str(out)], tmp_path, timeout=60)
    _assert_bad_input(proc)
    assert f"cannot write {out}" in proc.stderr


def _repro(argv, cwd, timeout):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=str(cwd), env=env,
        capture_output=True, text=True, timeout=timeout,
    )


def _assert_bad_input(proc):
    """Exit 2 with exactly one ``error:`` line and no traceback."""
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("error", [
    SimulationError("kernel wedged"),
    SecurityViolation("denied"),
    ReconciliationError("windows disagree"),
], ids=lambda e: type(e).__name__)
def test_runtime_errors_exit_one(error, monkeypatch, capsys):
    def boom(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_info", boom)
    assert main(["info"]) == 1
    assert capsys.readouterr().err.startswith("error: ")

