#!/usr/bin/env python3
"""Run every CLI command on every shipped spec and fingerprint the results.

Each pair of a `scripts/specs/*.json` file and a `padiczeta.cli.COMMANDS`
entry runs in its own process, at the spec's own max_level, with its
own output directory OUTDIR/<spec>/<command>.  OUTDIR/manifest.json
records per run the exit code, the last line written to stderr, and
the sha256 of every artifact.  It holds no timings, so the manifests of
two versions of the package are equal exactly when both versions exit
alike and write byte-identical artifacts; diff them to check that a
change keeps the CLI's outputs.  Wall times go to stdout and to
OUTDIR/timings.json: the seconds of each run (its process included)
and their total.

Usage: python scripts/cli_matrix.py OUTDIR
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

from padiczeta.cli import COMMANDS

SPECS = Path(__file__).resolve().parent / "specs"


def fingerprint(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 1
    outdir = Path(sys.argv[1])
    manifest, seconds = {}, {}
    for spec in sorted(SPECS.glob("*.json")):
        for command in sorted(COMMANDS):
            out = outdir / spec.stem / command
            out.mkdir(parents=True)  # fresh: refuses a directory left by an earlier run
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "padiczeta.cli", command, "--spec", str(spec), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            stderr = proc.stderr.strip().splitlines()
            run = f"{spec.stem}/{command}"
            seconds[run] = round(time.perf_counter() - start, 3)
            manifest[run] = {
                "exit": proc.returncode,
                "stderr": stderr[-1] if stderr else "",
                "artifacts": fingerprint(out),
            }
            print(f"{spec.stem:10} {command:12} exit {proc.returncode}  {seconds[run]:6.1f}s")
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    timings = {"runs": seconds, "total": round(sum(seconds.values()), 3)}
    (outdir / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
