"""Self-checks of the benchmark.  Not part of the tier-1 suite (slow).

Run from the root of a checkout:  python3 -m pytest -q perfbench
The traced checks run every workload twice (a few minutes on 2 cores).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END, check_job, per_layer_units  # noqa: E402
from speed import REF_BURST_S, burst_seconds, reference_seconds  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, job_spec, seed_map  # noqa: E402

# Per-layer metrics that must be nonzero on a workload: the layers the
# workload is built to exercise (the "on" column of the README's layer
# table).  A metric listed here that reads zero means the workload no
# longer reaches the layer it exists to measure.
EXERCISED = {
    "formula": (
        "mpoly.MPoly.evaluate.",
        "padic.int_valuation.",
        "padic.psi_ratio.",
        "characters.chi_value.",
        "characters.gauss_sum.",
        "variety.HenselLifter.children.",
        "variety.HenselLifter.init.",
        "variety.iter_hensel_points.",
        "variety.critical_locus_probe.",
        "zeta.build_shell_table.",
        "zeta.conductor_vanishing_scan.",
        "zeta.tail_measure.",
        "zeta.coefficient_table.",
        "ratfn.pole_analysis.",
        "ratfn.candidate_pole_check.",
        "expsum.exponential_sum.",
        "expsum.oscillatory_integral.",
        "expsum.build_stationary_phase_context.",
        "expsum.stationary_phase_eval.",
        "cli.load_problem.",
        "cli.sps-verify.",
        "cli.zeta.",
    ),
    "charts": (
        "mpoly.MPoly.substitute_affine.",
        "variety.HenselLifter.init.",
        "variety.iter_congruence_points.",
        "variety.image_oracle.",
        "variety.good_reduction_test.",
        "smoothing.measure_charts.",
        "smoothing.global_decompose.",
        "smoothing.neron_rescale.",
        "smoothing.dvr_echelon.",
        "smoothing.Decomposition.image_count.",
        "smoothing.verify_certificate.",
        "cli.load_problem.",
        "cli.smooth.",
        "cli.count.",
        "cli.expsum.",
        "cli.sps-verify.",
        "cli.poincare.",
    ),
    "series": (
        "mpoly.MPoly.evaluate.",
        "variety.HenselLifter.children.",
        "variety.HenselLifter.init.",
        "variety.good_reduction_test.",
        "zeta.build_shell_table.",
        "ratfn.reconstruct_rational.",
        "poincare.congruence_count.",
        "poincare.poincare_series.",
        "poincare.check_series_zeta_identity.",
        "regularize.delta_integral.",
        "regularize.delta_limit_check.",
        "cli.load_problem.",
        "cli.count.",
        "cli.poincare.",
        "cli.delta-check.",
    ),
}


# Metrics inside an exercised layer that are exempt from the nonzero check.
NOT_REQUIRED_NONZERO = {
    # One process per job, and each job looks a system up once, so the
    # cache never hits; a change that reuses a decomposition would show.
    "smoothing.measure_charts.hit_frac",
    # Failures: nonzero today only because of the known defects, and a
    # fix rightly brings them to zero.
    "ratfn.reconstruct_rational.raised",
    "ratfn.reconstruct_rational.fail_frac",
}


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_known_defect_passes_only_with_its_signature():
    reference = json.loads((HERE / "reference.json").read_text())["series"]
    jobs = {job.name: job for job in WORKLOADS["series"]}
    defect, healthy = jobs["threevar_poincare"], jobs["threevar_count"]

    def record(job, code, failure):
        exact = reference[job.name]["outputs"]
        return {"exit": code, "setup_s": 0.1, "failure": failure, "exact": exact, "digests": {}}

    signature = reference[defect.name]["failure"]
    assert KNOWN_DEFECTS[defect.name][0] == 3
    assert check_job(defect, record(defect, 3, signature), reference, None) == []
    # The same exit code from another error, or from a run cut short.
    other = {"error": "error: some other failure", "passed": None}
    assert check_job(defect, record(defect, 3, other), reference, None)
    # A job with no known defect may not exit 3 at all.
    assert check_job(healthy, record(healthy, 0, signature), reference, None) == []
    assert check_job(healthy, record(healthy, 3, signature), reference, None)


def test_reference_seconds_scale_each_stretch_by_the_burst_that_ends_it():
    ref = REF_BURST_S
    # A burst at reference speed, one at half speed, then a tail after it.
    bursts = [(0.0, ref), (1.0, 1.0 + ref), (2.0, 2.0 + 2 * ref)]
    assert reference_seconds(bursts, 0.0, 2.0 + 2 * ref) == pytest.approx(
        (1.0 - ref) + (1.0 - ref) / 2
    )
    assert reference_seconds(bursts, 0.5, 1.5) == pytest.approx(0.5 + (0.5 - ref) / 2)
    assert reference_seconds(bursts, 2.0 + 2 * ref, 3.0 + 2 * ref) == pytest.approx(0.5)
    # Before the first burst, the first burst's speed applies.
    assert reference_seconds(bursts[1:], 0.0, 1.0) == pytest.approx(1.0)
    assert burst_seconds(bursts, 0.0, 1.5) == pytest.approx(2 * ref)


@pytest.mark.parametrize("seed", [1, 7])
def test_seeded_specs_are_affine_images_of_seed_zero(seed):
    """f_seed(y) = f_0(x) where x_k = y_perm[k] + b_k, and centers move along."""
    from padiczeta.mpoly import parse_polynomial

    for jobs in WORKLOADS.values():
        for job in jobs:
            base, moved = job_spec(job, 0, ROOT), job_spec(job, seed, ROOT)
            n, p = base["n"], base["p"]
            originals = [parse_polynomial(f, n) for f in base["constraints"] + [base["target"]]]
            images = [parse_polynomial(f, n) for f in moved["constraints"] + [moved["target"]]]
            # Recover the map from where the unit vectors and 0 go.
            for y in [(0,) * n] + [tuple(int(i == k) for i in range(n)) for k in range(n)]:
                x = _preimage(job.name, seed, n, y)
                assert [g.evaluate(y) for g in images] == [f.evaluate(x) for f in originals]
            if base.get("support", {}).get("type") == "cosets":
                modulus = p ** base["support"]["level"]
                moved_centers = {tuple(c) for c in moved["support"]["centers"]}
                for c in base["support"]["centers"]:
                    y = _inverse(job.name, seed, n, c, modulus)
                    assert y in moved_centers


def _preimage(name, seed, n, y):
    perm, shift = seed_map(seed, name, n)
    return tuple(y[perm[k]] + shift[k] for k in range(n))


def _inverse(name, seed, n, x, modulus):
    perm, shift = seed_map(seed, name, n)
    y = [0] * n
    for k in range(n):
        y[perm[k]] = (x[k] - shift[k]) % modulus
    return tuple(y)


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_twice(request):
    return request.param, _traced(request.param), _traced(request.param)


def test_traced_runs_are_correct_and_counts_repeat(traced_twice):
    _, first, second = traced_twice
    assert first["correct"] and second["correct"]
    calls = [
        {k: v["value"] for k, v in run["metrics"].items() if k.endswith(".calls")}
        for run in (first, second)
    ]
    assert calls[0] == calls[1]


def test_exercised_layers_are_nonzero(traced_twice):
    workload, first, _ = traced_twice
    zero = [
        name
        for name, metric in first["metrics"].items()
        if name.startswith(EXERCISED[workload])
        and name not in NOT_REQUIRED_NONZERO
        and metric["value"] == 0
    ]
    assert zero == []
