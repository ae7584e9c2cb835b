"""End-to-end tests of the batch CLI: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padiczeta.cli import COMMANDS, EXIT_BUDGET, EXIT_OK, EXIT_SCHEMA, EXIT_VERIFY, main

SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"

LINE_X2_SPEC = {
    "schema": 1,
    "p": 3,
    "n": 2,
    "constraints": ["x1"],
    "target": "x2^2",
    "support": {"type": "unit_polydisc"},
    "max_level": 5,
    "character_conductor_cap": 2,
    "resolution_data": [[2, 1]],
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(LINE_X2_SPEC))
    return path


def run(command, spec, out, *extra):
    return main([command, "--spec", str(spec), "--out", str(out), *extra])


HELD_OUT = (
    "error: a recurrence fits the training prefix but fails the held-out terms; "
    "raise the scan depth"
)
# the shipped runs that exit 3, each with its last stderr line: the scan is
# too short to validate a reconstruction, so nothing is falsified.  ROADMAP
# item 2 (escalate the depth until reconstruction validates, and check the
# count side coefficient by coefficient) is the fix that flips them to 0
SHIPPED_EXIT_3 = {
    ("bad_line", "poincare"): HELD_OUT + "; raw counts to depth 4: [1, 1, 3, 3, 9]",
    ("threevar", "poincare"): HELD_OUT + "; raw counts to depth 4: [1, 3, 15, 45, 135]",
    ("threevar", "zeta"): HELD_OUT,
    ("threevar", "delta-check"): HELD_OUT,
    ("threevar", "decay"): HELD_OUT,
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("spec", sorted(path.stem for path in SPECS.glob("*.json")))
def test_shipped_spec_exit_codes(spec, command, tmp_path, capsys):
    code = run(command, SPECS / f"{spec}.json", tmp_path / "out")
    err = capsys.readouterr().err.strip().splitlines()
    if (spec, command) in SHIPPED_EXIT_3:
        assert (code, err[-1:]) == (EXIT_VERIFY, [SHIPPED_EXIT_3[spec, command]])
    else:
        assert code == EXIT_OK, err


def test_count_csv(spec_file, tmp_path):
    out = tmp_path / "out"
    assert run("count", spec_file, out, "--max-level", "4") == EXIT_OK
    lines = (out / "counts.csv").read_text().splitlines()
    assert lines[0] == "m,N_m,scaled_num,scaled_den"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "1", "3", "3", "9"]


def test_poincare_identity(spec_file, tmp_path):
    out = tmp_path / "out"
    assert run("poincare", spec_file, out, "--max-level", "8") == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["identity_checked"] and summary["identity_passed"]
    fn = json.loads((out / "poincare.json").read_text())
    assert fn["numerator"] == [[1, 1], [1, 3]]
    assert fn["denominator"] == [[1, 1], [0, 1], [-1, 3]]


def test_zeta_poles_and_candidate_match(spec_file, tmp_path):
    out = tmp_path / "out"
    assert run("zeta", spec_file, out) == EXIT_OK
    poles = json.loads((out / "poles.json").read_text())
    assert poles["rho_exact"] == [1, 2]
    assert poles["m_rho"] == 1
    assert poles["candidate_match"] == [[2, 1, 1]]
    table = (out / "zeta_trivial.csv").read_text().splitlines()
    assert table[0] == "m,re,im,exact_num,exact_den,stabilized"
    assert table[1].split(",")[3:5] == ["2", "3"]  # c_0 = 2/3 exactly


def test_sps_verify_passes(spec_file, tmp_path):
    out = tmp_path / "out"
    assert run("sps-verify", spec_file, out, "--max-level", "4") == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    header = (out / "expsum.csv").read_text().splitlines()[0]
    assert header == "m,u,re_direct,im_direct,re_form1,im_form1,abs,normalized"


def test_sps_verify_passes_on_weighted_charts(tmp_path):
    # bad_line has L = 2 and nine charts of weight 1/3: the direct side must
    # be the measure-weighted oscillatory integral, not the counting sum
    out = tmp_path / "out"
    assert run("sps-verify", SPECS / "bad_line.json", out) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["passed"] is True


def test_smooth_bad_reduction(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(
        json.dumps(
            {
                "schema": 1,
                "p": 3,
                "n": 2,
                "constraints": ["3*x1 - 9*x2"],
                "target": "x2^2",
                "max_level": 4,
            }
        )
    )
    out = tmp_path / "out"
    assert run("smooth", spec, out) == EXIT_OK
    payload = json.loads((out / "certificates.json").read_text())
    assert payload["level"] == 2
    assert len(payload["charts"]) == 9
    summary = json.loads((out / "summary.json").read_text())
    assert summary["identity_ok"] and summary["image_counts_ok"]


def test_smooth_certificates_text(tmp_path):
    # bad_line's nine charts at L = 2 each certify
    # 3*x1 - 9*x2 = 3^3 * (x1 - 3*x2) on center + 9 y, byte for byte
    out = tmp_path / "out"
    assert run("smooth", SPECS / "bad_line.json", out) == EXIT_OK
    centers = [[0, 0], [9, 3], [18, 6], [3, 1], [12, 4], [21, 7], [6, 2], [15, 5], [24, 8]]
    charts = [
        {
            "center": center,
            "certificate": {
                "center": center,
                "combined_constraints": ["3*x1 - 9*x2"],
                "exponents": [3],
                "level": 2,
                "pivot_valuations": [1],
                "rescaled_constraints": ["x1 - 3*x2"],
                "verdict": "Good",
            },
            "weight": [1, 3],
        }
        for center in centers
    ]
    payload = {"charts": charts, "dropped_centers": [], "level": 2}
    assert (out / "certificates.json").read_text() == json.dumps(payload, indent=2, sort_keys=True)


def test_level_zero_cosets_are_the_unit_polydisc(tmp_path):
    # a union of level-0 cosets is the whole polydisc, whatever its centers
    artifacts = []
    for name, support in [
        ("unit", {"type": "unit_polydisc"}),
        ("cosets", {"type": "cosets", "level": 0, "centers": [[1, 2]]}),
    ]:
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({**LINE_X2_SPEC, "support": support}))
        out = tmp_path / name
        for command in ("zeta", "sps-verify", "delta-check"):
            assert run(command, spec, out / command, "--max-level", "4") == EXIT_OK
        artifacts.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert artifacts[0] and artifacts[0] == artifacts[1]


def test_empty_coset_support_exits_schema(tmp_path, capsys):
    # a union of no cosets is a schema mistake, not a vacuous zero or a
    # falsified identity
    spec = tmp_path / "empty.json"
    support = {"type": "cosets", "level": 1, "centers": []}
    spec.write_text(json.dumps({**LINE_X2_SPEC, "support": support}))
    for command in ("zeta", "sps-verify", "delta-check"):
        assert run(command, spec, tmp_path / command) == EXIT_SCHEMA
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid coset support: a coset support needs at least one center"] * 3


def test_coset_support_missing_the_variety_exits_schema(tmp_path, capsys):
    # the coset x1 = 1 mod 3 misses the line x1 = 0: its measure is 0, which
    # is neither a vacuous zero to verify nor an identity to falsify
    spec = tmp_path / "miss.json"
    support = {"type": "cosets", "level": 1, "centers": [[1, 0]]}
    spec.write_text(json.dumps({**LINE_X2_SPEC, "support": support}))
    for command in ("zeta", "sps-verify", "delta-check"):
        assert run(command, spec, tmp_path / command) == EXIT_SCHEMA
        assert not (tmp_path / command).exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid coset support: no point of the variety lies in it"] * 3


def test_delta_check(spec_file, tmp_path):
    out = tmp_path / "out"
    assert run("delta-check", spec_file, out, "--max-level", "9", "--r-max", "4") == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] and summary["r0"] <= 4


def test_decay_report(spec_file, tmp_path):
    out = tmp_path / "out"
    assert run("decay", spec_file, out, "--max-level", "6") == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["expsum_verdict"] == "Bounded"
    rows = (out / "decay.csv").read_text().splitlines()[1:]
    assert all(abs(float(r.split(",")[2]) - 1.0) < 1e-9 for r in rows)


def test_decay_bounds_the_counts_without_reconstructing_them(tmp_path):
    # bad_line's counts to depth 4 fit no rational function with two terms
    # held out, which the growth bound does not need
    out = tmp_path / "out"
    assert run("decay", SPECS / "bad_line.json", out) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["count_bound_verdict"] == "Bounded"
    assert float(summary["count_bound_constant"]) == 1.0


def test_probe(spec_file, tmp_path):
    out = tmp_path / "out"
    assert run("probe", spec_file, out) == EXIT_OK
    payload = json.loads((out / "probe.json").read_text())
    assert payload["clean"] is True


def test_malformed_polynomial_exit_code(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"schema": 1, "p": 3, "n": 2, "constraints": ["x1"], "target": "x1^"}))
    assert run("count", spec, tmp_path / "out") == EXIT_SCHEMA


def test_unknown_field_rejected(tmp_path):
    spec = tmp_path / "bad.json"
    payload = dict(LINE_X2_SPEC)
    payload["typo_field"] = True
    spec.write_text(json.dumps(payload))
    assert run("count", spec, tmp_path / "out") == EXIT_SCHEMA


def test_missing_schema_version(tmp_path):
    spec = tmp_path / "bad.json"
    payload = dict(LINE_X2_SPEC)
    del payload["schema"]
    spec.write_text(json.dumps(payload))
    assert run("count", spec, tmp_path / "out") == EXIT_SCHEMA


@pytest.mark.parametrize(
    "mutation",
    [
        {"support": "everything"},
        {"support": {"type": "disc"}},
        {"support": {"type": "cosets", "level": 1}},
        {"max_level": "five"},
        {"resolution_data": [["a", 1]]},
        {"max_level": 0},
        {"character_conductor_cap": 0},
        # integer fields take JSON integers only, not bools, floats or strings
        {"max_level": 2.5},
        {"max_level": True},
        {"p": 3.0},
        {"n": 2.0},
        {"character_conductor_cap": 2.0},
        {"budget": "1000"},
        {"support": {"type": "cosets", "level": 1.0, "centers": [[0, 0]]}},
        {"support": {"type": "cosets", "level": 1, "centers": [[0, 0.5]]}},
        {"support": {"type": "cosets", "level": 0, "centers": [[0]]}},
        {"resolution_data": [[2, 1.0]]},
        {"resolution_data": [[True, 1]]},
    ],
)
def test_malformed_fields_exit_schema(tmp_path, mutation):
    payload = dict(LINE_X2_SPEC)
    payload.update(mutation)
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(payload))
    assert run("count", spec, tmp_path / "out") == EXIT_SCHEMA


# the modules perfbench's tracer looks up in sys.modules once the CLI is imported
TRACED_MODULES = (
    "mpoly",
    "padic",
    "characters",
    "variety",
    "smoothing",
    "zeta",
    "ratfn",
    "expsum",
    "poincare",
    "regularize",
    "cli",
)


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect"])
def test_cli_import_leaves_numpy_out(module):
    # numpy serves only the numeric fallback of pole analysis, imported there;
    # no record class is generated, so dataclasses and the inspect module it
    # pulls in stay out of every command's start-up
    code = "import json, sys, padiczeta.cli; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert module not in loaded
    assert {f"padiczeta.{name}" for name in TRACED_MODULES} <= loaded


def _run_script(name, out):
    """Run scripts/<name> with the output directory `out`, from this checkout's sources."""
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = root / "scripts" / name
    return subprocess.run(
        [sys.executable, str(script), str(out)], capture_output=True, text=True, env=env
    )


def test_corpus_battery_passes(tmp_path):
    # scripts/run_corpus.py exits nonzero when any of its checks fails
    result = _run_script("run_corpus.py", tmp_path)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr
    assert (tmp_path / "corpus_results.csv").exists()


def test_decay_study_bounds_every_instance(tmp_path):
    # scripts/decay_study.py writes one CSV per monomial-line instance and
    # prints its verdict; each normalized decay column stays bounded
    result = _run_script("decay_study.py", tmp_path)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr
    assert len(list(tmp_path.glob("decay_*.csv"))) == 5
    verdicts = [line.split("verdict=")[1].split()[0] for line in result.stdout.splitlines()]
    assert verdicts == ["Bounded"] * 5


@pytest.mark.parametrize(
    "command, level",
    [("count", "-2"), ("zeta", "0"), ("sps-verify", "0"), ("decay", "0")],
)
def test_max_level_override_below_one_exits_schema(spec_file, tmp_path, command, level):
    assert run(command, spec_file, tmp_path / "out", "--max-level", level) == EXIT_SCHEMA


@pytest.mark.parametrize("level", ["0", "-1"])
def test_probe_level_below_one_exits_schema(spec_file, tmp_path, level):
    # level 0 would probe nothing and report clean; below it no level is final
    out = tmp_path / "out"
    assert run("probe", spec_file, out, "--probe-level", level) == EXIT_SCHEMA
    assert not (out / "probe.json").exists()


@pytest.mark.parametrize("flag, value", [("--r-max", "-1"), ("--s", "0"), ("--s", "-2")])
def test_delta_check_argument_out_of_range_exits_schema(spec_file, tmp_path, capsys, flag, value):
    # a bad argument, not a falsified limit (--r-max -1) or a traceback (--s)
    out = tmp_path / "out"
    assert run("delta-check", spec_file, out, flag, value) == EXIT_SCHEMA
    assert not (out / "delta.csv").exists()
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith(f"error: {flag} must be >= ")


def test_conductor_cap_above_the_escalation_limit_is_scanned(tmp_path):
    # the limit bounds only the escalation: a cap of 5 > CONDUCTOR_LIMIT = 4
    # is scanned at 5, not skipped and reported as a falsified identity
    spec = tmp_path / "cap.json"
    spec.write_text(json.dumps(dict(LINE_X2_SPEC, character_conductor_cap=5)))
    out = tmp_path / "out"
    assert run("sps-verify", spec, out) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["passed"]


def test_even_prime_twisted_route_exits_schema(tmp_path, capsys):
    # an unsupported input, not a falsified identity: exit 1, not 3
    spec = tmp_path / "even.json"
    spec.write_text(json.dumps(dict(LINE_X2_SPEC, p=2, resolution_data=[])))
    assert run("sps-verify", spec, tmp_path / "out", "--max-level", "3") == EXIT_SCHEMA
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("error: the formula route needs twisted characters")


def test_oversized_conductor_cap_exits_schema(tmp_path, capsys):
    # characters mod 3^13 = 1,594,323 are past the supported table size:
    # an unsupported input, not a falsified identity, so exit 1, not 3
    # (sps-verify reaches the same error through its conductor scan)
    spec = tmp_path / "cap.json"
    spec.write_text(json.dumps(dict(LINE_X2_SPEC, character_conductor_cap=13)))
    assert run("zeta", spec, tmp_path / "out", "--max-level", "1") == EXIT_SCHEMA
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last == "error: p^c = 1594323 exceeds 1000000"


@pytest.mark.parametrize(
    "budget, extra, code",
    [
        (-3, (), EXIT_SCHEMA),
        (1000, ("--budget", "0"), EXIT_SCHEMA),
        (1000, ("--budget", "-5"), EXIT_SCHEMA),
        (-3, ("--budget", "1000"), EXIT_OK),  # the override is what is checked
    ],
    ids=["spec", "override-0", "override-negative", "override-repairs-spec"],
)
def test_budget_below_one_exits_schema(tmp_path, capsys, budget, extra, code):
    # a budget below 1 admits no walk at all: a schema error, not an
    # exhausted budget (exit 2)
    spec = tmp_path / "budget.json"
    spec.write_text(json.dumps(dict(LINE_X2_SPEC, budget=budget)))
    out = tmp_path / "out"
    assert run("count", spec, out, *extra) == code
    if code == EXIT_SCHEMA:
        assert not out.exists()
        assert capsys.readouterr().err.strip() == "error: budget must be >= 1"


def test_budget_exit_code(spec_file, tmp_path, capsys):
    # x2^2 on x1 = 0: the slope 2 x2 settles every zero x2 = 0 mod
    # 3^ceil(j / 2) but x2 = 0 mod 3^j, so the walk to level 12 visits the
    # root 0 and the three lifts of 0 at each of levels 2 to 6: 16 nodes,
    # more than 10
    assert run("count", spec_file, tmp_path / "out", "--max-level", "12", "--budget", "10") == EXIT_BUDGET
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("error: count walk m=12 chart 1/1: enumeration budget 10 exhausted")


def test_wrong_resolution_data_exit_code(tmp_path):
    spec = tmp_path / "wrong.json"
    payload = dict(LINE_X2_SPEC)
    payload["resolution_data"] = [[3, 1]]
    spec.write_text(json.dumps(payload))
    assert run("zeta", spec, tmp_path / "out") == EXIT_VERIFY


def test_rerun_is_byte_identical(spec_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("zeta", spec_file, out1) == EXIT_OK
    assert run("zeta", spec_file, out2) == EXIT_OK
    for name in ("zeta_trivial.csv", "zeta_trivial.json", "poles.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert run("expsum", spec_file, out1, "--max-level", "4") == EXIT_OK
    assert run("expsum", spec_file, out2, "--max-level", "4") == EXIT_OK
    assert (out1 / "expsum.csv").read_bytes() == (out2 / "expsum.csv").read_bytes()


def test_coset_support_spec(tmp_path):
    spec = tmp_path / "coset.json"
    payload = dict(LINE_X2_SPEC)
    payload["support"] = {"type": "cosets", "level": 1, "centers": [[0, 1]]}
    spec.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert run("sps-verify", spec, out, "--max-level", "3") == EXIT_OK


@pytest.mark.parametrize("command", ["count", "poincare", "expsum", "decay", "smooth", "probe"])
def test_whole_polydisc_commands_refuse_coset_supports(command, tmp_path, capsys):
    # these commands count, sum, decompose or probe over the unit polydisc, so
    # a coset support would be ignored; a level-0 union of cosets is the
    # polydisc and runs
    spec, out = tmp_path / "coset.json", tmp_path / "out"
    for level, code in ((1, EXIT_SCHEMA), (0, EXIT_OK)):
        support = {"type": "cosets", "level": level, "centers": [[0, 1]]}
        spec.write_text(json.dumps({**LINE_X2_SPEC, "support": support}))
        assert run(command, spec, out) == code
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: {command} covers the unit polydisc and takes no coset support"
