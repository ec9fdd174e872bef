"""Run one freqdyn command in a fresh interpreter and report its timings.

usage: python3 benchmark/child.py RECORD TRACE ARG...

ARG... are the ``freqdyn`` command-line arguments.  The freqdyn package
is imported from the ``src`` directory of the checkout holding this
file.  RECORD receives a JSON object with ``import_s`` (the untraced
import of ``freqdyn.cli``), ``main_s`` (time inside ``freqdyn.cli.main``)
and, when TRACE is 1, the aggregated spans.  The process exits with
``main``'s code.  With the single ARG ``--env`` no command runs and
RECORD receives the interpreter and library versions instead; that
run also compiles the package's bytecode before any timed step.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _environment():
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas", {}),
        "lapack": deps.get("lapack", {}),
    }


def main():
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import freqdyn.cli as cli

    record = {"import_s": time.perf_counter() - started}
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"freqdyn imported from {cli.__file__}, not {SRC}")
    if argv == ["--env"]:
        record.update(_environment())
        code = 0
    else:
        recorder = None
        if trace:
            sys.path.insert(0, HERE)
            import spans

            recorder = spans.Recorder()
            record["bound"] = spans.install(recorder)
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        record["main_s"] = time.perf_counter() - started
        if recorder is not None:
            record["spans"] = recorder.totals
            record["counts"] = recorder.counts
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
