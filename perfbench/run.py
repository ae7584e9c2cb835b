"""padiczeta benchmark: run one workload of CLI jobs and report its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload formula|charts|series|all --seed N \
        --seconds S --trace 0|1

`--workload all` runs the three workloads in turn at the same seed.

Every job is a fresh `padiczeta <command>` process (perfbench/job.py),
started only after the previous one exits, so no cache carries over
from one job to the next.  A pass runs the workload's jobs once; passes
repeat until the next one would overrun --seconds, and at least twice,
so that CSV byte-identity between repetitions can be checked.

--trace 0 reports the end-to-end metrics (see end_to_end for how the
passes are combined).  Their times are in reference seconds: each job
samples its CPU's speed while it runs (speed.py) and its time is scaled
to a CPU of fixed speed.
--trace 1 runs one untraced and one traced pass and reports per-layer
metrics from the traced pass, plus the tracing overhead.

Every job's exact outputs are checked against perfbench/reference.json
and its exit code against workloads.KNOWN_DEFECTS; a job that exits with
its known-defect code must also show the defect's signature recorded in
reference.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from outputs import csv_digests, exact_outputs, failure_signature, mismatches
from speed import burst_seconds, reference_seconds
from workloads import EXCLUDED, KNOWN_DEFECTS, WORKLOADS, job_spec

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # a run must end well within 180 s

# Thread pools of numerical libraries, capped so a job uses one core.
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}

# Per-layer metrics: wrapped function -> kinds reported for it.
LAYER_KINDS = {
    "mpoly.MPoly.evaluate": ("calls", "self_s"),
    "mpoly.MPoly.substitute_affine": ("calls", "self_s"),
    "padic.int_valuation": ("calls", "self_s"),
    "padic.psi_ratio": ("calls", "self_s"),
    "characters.chi_value": ("calls", "self_s"),
    "characters.gauss_sum": ("calls", "self_s"),
    "variety.HenselLifter.children": ("calls", "self_s"),
    "variety.HenselLifter.init": ("calls", "self_s"),
    "variety.iter_congruence_points": ("calls", "yielded", "self_s"),
    "variety.iter_hensel_points": ("yielded", "self_s"),
    "variety.image_oracle": ("self_s",),
    "variety.critical_locus_probe": ("self_s",),
    "variety.good_reduction_test": ("calls", "self_s"),
    "smoothing.measure_charts": ("calls", "hit_frac"),
    "smoothing.global_decompose": ("calls", "self_s"),
    "smoothing.neron_rescale": ("calls", "self_s"),
    "smoothing.dvr_echelon": ("calls",),
    "smoothing.Decomposition.image_count": ("self_s",),
    "smoothing.verify_certificate": ("self_s",),
    "zeta.build_shell_table": ("calls", "rows", "self_s"),
    "zeta.conductor_vanishing_scan": ("calls", "self_s"),
    "zeta.tail_measure": ("calls", "self_s"),
    "zeta.coefficient_table": ("calls", "self_s"),
    "ratfn.reconstruct_rational": ("calls", "raised", "self_s", "fail_frac"),
    "ratfn.pole_analysis": ("self_s",),
    "ratfn.candidate_pole_check": ("self_s",),
    "expsum.exponential_sum": ("calls", "self_s"),
    "expsum.oscillatory_integral": ("calls", "self_s"),
    "expsum.build_stationary_phase_context": ("self_s",),
    "expsum.stationary_phase_eval": ("calls", "self_s"),
    "poincare.congruence_count": ("calls", "self_s"),
    "poincare.poincare_series": ("self_s",),
    "poincare.check_series_zeta_identity": ("self_s",),
    "regularize.delta_integral": ("calls", "self_s"),
    "regularize.delta_limit_check": ("self_s",),
    "cli.load_problem": ("self_s",),
}
CLI_COMMANDS = ("count", "poincare", "zeta", "expsum", "sps-verify", "smooth", "delta-check")
KIND_UNITS = {
    "calls": "count",
    "yielded": "count",
    "raised": "count",
    "rows": "count",
    "self_s": "s",
    "hit_frac": "ratio",
    "fail_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{key}.{kind}": KIND_UNITS[kind] for key, kinds in LAYER_KINDS.items() for kind in kinds
    }
    units.update({f"cli.{command}.total_s": "s" for command in CLI_COMMANDS})
    units.update({"trace.overhead_frac": "ratio", "trace.wait_s": "s"})
    return units


# -- running jobs ----------------------------------------------------------------


class Runner:
    """Runs jobs one at a time under a shared deadline."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = {**os.environ, **THREAD_CAPS, "PYTHONHASHSEED": "0"}
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, job, spec_path: Path, tag: str, trace: bool) -> dict:
        """Run one job, traced or else with its CPU's speed sampled.

        An untraced job's times are in reference seconds (speed.py), a
        traced job's in plain seconds.  raw_wall_s is always plain seconds.
        """
        out = self.work / tag / job.name
        out.mkdir(parents=True)
        result_path = out.parent / f"{job.name}.result.json"
        log_path = out.parent / f"{job.name}.log"
        argv = [
            sys.executable,
            str(HERE / "job.py"),
            str(result_path),
            "1" if trace else "0",
            "--",
            job.command,
            "--spec",
            str(spec_path),
            "--out",
            str(out),
            *job.args,
        ]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(log_path, "wb") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            exited = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        record = {
            "exit": code,
            "cpu_s": cpu,
            "wall_s": exited - spawned,
            "raw_wall_s": exited - spawned,
            "setup_s": None,
            "rss_mb": None,
            "trace": None,
            "digests": csv_digests(out),
            "exact": exact_outputs(job.command, out),
            "failure": failure_signature(out, log_path),
        }
        if code is not None and result_path.exists():
            result = json.loads(result_path.read_text())
            record.update(
                wall_s=result["main_s"],
                raw_wall_s=result["main_s"],
                setup_s=result["ready"] - spawned,
                rss_mb=result["maxrss_kb"] / 1024.0,
                trace=result.get("trace"),
                unwrapped=result.get("unwrapped", []),
            )
            bursts = result.get("bursts")
            if bursts:
                # CPU time outside the bursts, scaled like the process's wall time.
                in_bursts = burst_seconds(bursts, spawned, exited)
                scale = reference_seconds(bursts, spawned, exited) / (exited - spawned - in_bursts)
                record.update(
                    wall_s=reference_seconds(bursts, result["main_start"], result["main_end"]),
                    raw_wall_s=result["main_s"] - burst_seconds(
                        bursts, result["main_start"], result["main_end"]
                    ),
                    setup_s=reference_seconds(bursts, spawned, result["ready"]),
                    cpu_s=max(0.0, cpu - in_bursts) * scale,
                )
        return record

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


# -- checking --------------------------------------------------------------------


def check_job(job, record: dict, reference: dict, first: dict | None) -> list[str]:
    """Problems with one job execution; empty when it matches the reference.

    reference maps the job's name to {"outputs": ..., "failure": ...};
    "failure" is present for known defects only.
    """
    problems = []
    expected = reference[job.name]
    defect_code = KNOWN_DEFECTS.get(job.name, (0,))[0]
    if record["exit"] is None:
        problems.append("killed at the run's time limit")
    elif record["exit"] not in (0, defect_code):
        problems.append(f"unexpected exit code {record['exit']}")
    elif record["setup_s"] is None:
        problems.append("job left no result file")
    elif record["exit"] != 0 and record["failure"] != expected["failure"]:
        problems.append(
            f"exit {record['exit']} without the known defect's signature: "
            f"{record['failure']!r}, expected {expected['failure']!r}"
        )
    problems += mismatches(expected["outputs"], record["exact"])
    if first is not None and record["digests"] != first["digests"]:
        problems.append("CSV output differs from the first pass")
    if record.get("unwrapped"):
        problems.append(f"tracing missed references: {record['unwrapped']}")
    return problems


# -- metrics ---------------------------------------------------------------------


def end_to_end(jobs, passes: list[list[dict]]) -> dict[str, float]:
    """End-to-end metrics of one run.

    The times are in reference seconds (speed.py), which take out the
    host's changes of CPU speed.  wall_s and cpu_s sum, over the
    workload's jobs, each job's median over the passes.  setup_s is the
    number of jobs times the median spawn-to-ready time over every job
    start in the run (every job imports the same package, so every
    start is a sample of one cost).  peak_rss_mb is the largest
    resident set of any job.
    """
    executions = [record for run in passes for record in run]

    def per_job_median(field: str) -> float:
        total = 0.0
        for i in range(len(jobs)):
            samples = [run[i][field] for run in passes if run[i][field] is not None]
            total += statistics.median(samples) if samples else 0.0
        return total

    setups = [r["setup_s"] for r in executions if r["setup_s"] is not None]
    passed = sum(1 for r in executions if r["exit"] == 0 and not r["problems"])
    return {
        "wall_s": per_job_median("wall_s"),
        "cpu_s": per_job_median("cpu_s"),
        "setup_s": len(jobs) * statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max((r["rss_mb"] or 0.0) for r in executions),
        "pass_frac": passed / len(executions),
    }


def per_layer(jobs, traced: list[dict], untraced_wall: float) -> dict[str, float]:
    totals: dict[str, dict[str, float]] = {}
    for record in traced:
        for key, stat in (record["trace"] or {}).items():
            acc = totals.setdefault(key, {})
            for name, value in stat.items():
                acc[name] = acc.get(name, 0) + value
    values = {}
    for key, kinds in LAYER_KINDS.items():
        acc = totals.get(key, {})
        for kind in kinds:
            if kind == "hit_frac":
                looked_up = acc.get("hits", 0) + acc.get("misses", 0)
                value = acc.get("hits", 0) / looked_up if looked_up else 0.0
            elif kind == "fail_frac":
                value = acc.get("raised", 0) / acc["calls"] if acc.get("calls") else 0.0
            else:
                value = acc.get(kind, 0)
            values[f"{key}.{kind}"] = value
    for command in CLI_COMMANDS:
        values[f"cli.{command}.total_s"] = sum(
            record["wall_s"] for job, record in zip(jobs, traced) if job.command == command
        )
    traced_wall = sum(record["wall_s"] for record in traced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["trace.wait_s"] = 0.0  # single-threaded: nothing ever waits
    return values


# -- main ------------------------------------------------------------------------


def write_specs(jobs, seed: int, root: Path, work: Path) -> list[Path]:
    paths = []
    for job in jobs:
        path = work / f"{job.name}.spec.json"
        path.write_text(json.dumps(job_spec(job, seed, root), indent=2))
        paths.append(path)
    return paths


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_workload(name: str, args, root: Path) -> dict | None:
    """Run one workload, print its report, and return its result object."""
    jobs = WORKLOADS[name]
    reference = json.loads((HERE / "reference.json").read_text())[name]
    work = root / ".perfbench_work" / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec_paths = write_specs(jobs, args.seed, root, work)

    print(
        f"padiczeta benchmark: workload={name} seed={args.seed} trace={args.trace} "
        f"git={git_sha(root)} "
        f"python={platform.python_version()} nproc={os.cpu_count()}"
    )
    runner = Runner(root, work)
    passes: list[list[dict]] = []
    started = time.monotonic()
    while True:
        traced = args.trace == 1 and len(passes) == 1
        pass_start = time.monotonic()
        records = []
        for job, spec_path in zip(jobs, spec_paths):
            record = runner.run(job, spec_path, f"pass{len(passes)}", traced)
            first = passes[0][len(records)] if passes else None
            record["problems"] = check_job(job, record, reference, first)
            records.append(record)
        passes.append(records)
        pass_time = time.monotonic() - pass_start
        if runner.out_of_time() or len(passes) >= 2 and (
            args.trace == 1 or time.monotonic() - started + pass_time > args.seconds
        ):
            break

    executions = [(job, record) for run in passes for job, record in zip(jobs, run)]
    failed = [(job, r) for job, r in executions if r["problems"]]
    for job, record in executions[: len(jobs)]:
        note = ""
        if record["exit"] != 0 and job.name in KNOWN_DEFECTS:
            note = f"  known defect: {KNOWN_DEFECTS[job.name][1]}"
        print(f"job {job.name:<22} {job.command:<12} exit={record['exit']}{note}")
    for job, record in failed:
        print(f"FAILED {job.name} ({job.command}) exit={record['exit']}: "
              + "; ".join(record["problems"]))
    for excluded, reason in EXCLUDED.items():
        print(f"excluded: {excluded}: {reason}")

    if args.trace == 1:
        if len(passes) < 2:
            print("error: the traced pass did not run before the time limit", file=sys.stderr)
            return None
        untraced_wall = sum(record["raw_wall_s"] for record in passes[0])
        values = per_layer(jobs, passes[1], untraced_wall)
        units = per_layer_units()
    else:
        values = end_to_end(jobs, passes)
        units = END_TO_END
        not_passed = sum(1 for _, r in executions if r["exit"] != 0 or r["problems"])
        raw_wall = sum(
            statistics.median(run[i]["raw_wall_s"] for run in passes) for i in range(len(jobs))
        )
        print(f"unscaled wall time, median pass per job: {raw_wall:.3f} s")
        print(f"passes={len(passes)} jobs={len(executions)} fail_frac={not_passed}/"
              f"{len(executions)} (nonzero exit or failed output check; pass_frac = 1 - fail_frac)")
    for metric, unit in units.items():
        print(f"{metric} {values[metric]:.6g} {unit}")
    return {
        "correct": not failed,
        "attempted": len(executions),
        "failed": len(failed),
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "padiczeta" / "cli.py").is_file():
        print(f"error: no padiczeta sources under {root / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(root / "src"))
    import padiczeta.cli  # noqa: F401  (compiles the bytecode caches before any job)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args, root)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:  # one line for all workloads, metrics prefixed with the workload
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
