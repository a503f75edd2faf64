"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 child.py setup   <t0> <trace> -- <sqfpairs CLI args>
    python3 child.py run     <t0> <trace> -- <sqfpairs CLI args>
    python3 child.py speedup <t0> 0 -- <H> <threads>

`t0` is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks
agree).  Every mode imports sqfpairs (setup and run also parse the CLI
arguments) and reports the set-up time to that point.  `run` then calls cli.main with
its standard output captured, optionally with the span tracer installed,
and reports wall time, CPU time, peak RSS, the exit code and the
captured output.  `speedup` times the pair probe at one height with one
thread and with `threads` threads on one prebuilt sieve.  The record is
printed as one JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, t0, trace, sep, *cli_args = argv
    if sep != "--" or mode not in ("setup", "run", "speedup"):
        raise SystemExit(f"usage: child.py setup|run|speedup <t0> <trace> -- <args>; got {argv}")
    import numpy
    import sqfpairs
    from sqfpairs import cli

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(sqfpairs.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported sqfpairs from {sqfpairs.__file__}, expected it under {src}")
    if mode != "speedup":
        cli.build_parser().parse_args(cli_args)
    record = {
        "setup_s": time.monotonic() - float(t0),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if mode == "run":
        record.update(_run(cli, sqfpairs, cli_args, trace == "1"))
    elif mode == "speedup":
        record.update(_speedup(int(cli_args[0]), int(cli_args[1])))
    print(json.dumps(record))
    return 0


def _run(cli, package, cli_args, trace):
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, package)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(cli_args)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out.getvalue(),
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    return record


def _speedup(H, threads):
    from sqfpairs import counting

    sieve = counting.build_sieve(2 * H * H + 1)
    timings = {}
    for n in (1, threads):
        start = time.perf_counter()
        report = counting.count_pairs_direct(H, sieve=sieve, threads=n)
        timings[n] = (time.perf_counter() - start, report.S)
    return {
        "single_s": timings[1][0],
        "threaded_s": timings[threads][0],
        "S": [timings[1][1], timings[threads][1]],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
