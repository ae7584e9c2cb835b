"""Run one `padiczeta` CLI job in this process and record what it cost.

Usage: python3 perfbench/job.py RESULT_JSON TRACE -- <padiczeta arguments>

With TRACE=1, tracer.Tracer wraps the program's public functions.  With
TRACE=0, speed.Sampler times calibration bursts throughout the process.

RESULT_JSON receives the time.perf_counter readings at which
`padiczeta.cli` was imported and ready (`ready`) and at which
`padiczeta.cli.main` started and returned (`main_start`, `main_end`),
the time spent inside `padiczeta.cli.main` (`main_s`), its exit code,
the process's peak resident set, and either the calibration bursts or
the tracer's per-function totals.
The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    result_path, trace = Path(sys.argv[1]), sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    sampler = None
    if not trace:
        from speed import Sampler

        sampler = Sampler()
        sampler.start()
    sys.path.insert(0, str(HERE.parent / "src"))
    from padiczeta import cli

    ready = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    t1 = time.perf_counter()
    if sampler is not None:
        sampler.stop()
    result = {
        "ready": ready,
        "main_start": t0,
        "main_end": t1,
        "main_s": t1 - t0,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if sampler is not None:
        result["bursts"] = sampler.bursts
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["unwrapped"] = tracer.unwrapped_references()
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
