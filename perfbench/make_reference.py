"""Regenerate perfbench/reference.json from one seed-0 pass of every workload.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

Only run this on a commit whose exact outputs are trusted; the benchmark
checks every later commit against the file it writes.  Each job gets its
exact outputs; a job listed in workloads.KNOWN_DEFECTS also gets the
signature its failure leaves (error line, summary `passed`).  A job whose
exit code is not the expected one (0, or its known-defect code) stops
the script.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import HERE, Runner, write_specs
from workloads import KNOWN_DEFECTS, WORKLOADS


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = {}
    for workload, jobs in WORKLOADS.items():
        runner = Runner(root, work)
        reference[workload] = {}
        for job, spec_path in zip(jobs, write_specs(jobs, 0, root, work)):
            record = runner.run(job, spec_path, workload, trace=False)
            expected = KNOWN_DEFECTS.get(job.name, (0, ""))[0]
            if record["exit"] != expected:
                print(f"error: {job.name} exited {record['exit']}, expected {expected}",
                      file=sys.stderr)
                return 1
            reference[workload][job.name] = {"outputs": record["exact"]}
            if job.name in KNOWN_DEFECTS:
                reference[workload][job.name]["failure"] = record["failure"]
            print(f"{workload}/{job.name}: exit {record['exit']}, {record['wall_s']:.2f} s")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
