"""Interpreter entry point of one benchmark op.

``python3 perfbench/shim.py <repro argv...>`` behaves like ``python -m
repro <argv...>`` and additionally writes a small JSON report to the path
in ``PERFBENCH_REPORT``: the monotonic time at which ``repro.cli`` finished
importing and, with ``PERFBENCH_TRACE=1``, the op's spans.  With no argv
the op only imports ``repro.cli`` (a set-up probe).

The ``PERFBENCH_*`` variables are removed before the program starts, so the
program's environment holds only what a user's invocation would.
"""

import json
import os
import sys
import time


def main() -> None:
    report_path = os.environ.pop("PERFBENCH_REPORT")
    op_id = os.environ.pop("PERFBENCH_OP", "0")
    traced = os.environ.pop("PERFBENCH_TRACE", "0") == "1"
    here = os.path.dirname(os.path.abspath(__file__))
    # Resolve imports as ``python -m repro`` run from the working directory
    # would, so no benchmark module can shadow one the program imports.
    sys.path[0] = os.getcwd()

    import repro.cli

    imported = time.monotonic()
    recorder = None
    if traced:
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", os.path.join(here, "spans.py"))
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        recorder = spans.Recorder(op_id)
        recorder.install()
    code = 0
    try:
        if len(sys.argv) > 1:
            code = repro.cli.main(sys.argv[1:])
    finally:
        report = {"imported": imported}
        if recorder is not None:
            report["trace"] = recorder.dump()
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
