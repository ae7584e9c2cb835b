"""Batch front-end: JSON problem specifications in, CSV/JSON artifacts out.

Every command reads one problem file, writes its artifacts into the
output directory, and exits 0 on success, 1 on a schema or parse error
or an input the command does not support (twisted characters at p = 2,
a coset support where the command covers the unit polydisc, or one that
misses the variety),
2 on an exhausted enumeration budget, and 3 when a verification command
finds its identity violated.  Outputs are deterministic for a fixed
problem file: enumeration order is fixed, floats are printed with a
fixed format, CSV uses LF line endings, and JSON is pretty-printed with
sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .characters import enumerate_characters, trivial_character
from .errors import (
    BudgetExceeded,
    EvenPrimeUnsupported,
    ModulusTooLarge,
    PadicZetaError,
    PoleSetMismatch,
    SchemaError,
)
from .expsum import decay_report, exponential_sum, stationary_phase_check
from .mpoly import PolySystem, system_from_strings
from .poincare import (
    check_series_zeta_identity,
    congruence_counts,
    poincare_series,
    solution_growth_bound,
)
from .ratfn import candidate_pole_check, pole_analysis, pole_data_from_resolution
from .regularize import delta_limit_check
from .smoothing import certificates_to_json, global_decompose, measure_charts, verify_certificate
from .support import Support
from .variety import DEFAULT_BUDGET, critical_locus_probe, image_oracle
from .zeta import build_shell_table, coefficient_table, tail_measure

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3

SCHEMA_FIELDS = {
    "schema",
    "p",
    "n",
    "constraints",
    "target",
    "support",
    "max_level",
    "character_conductor_cap",
    "resolution_data",
    "budget",
}

# commands whose counts, sums, charts or probes always cover the unit polydisc
WHOLE_POLYDISC = {"count", "poincare", "expsum", "decay", "smooth", "probe"}

EXPSUM_HEADER = ["m", "u", "re_direct", "im_direct", "re_form1", "im_form1", "abs", "normalized"]


class Problem:
    __slots__ = ("system", "support", "max_level", "conductor_cap", "budget")

    def __init__(
        self,
        system: PolySystem,
        support: Support | None,  # None: the unit polydisc
        max_level: int,
        conductor_cap: int,
        budget: int,
    ):
        self.system = system
        self.support = support
        self.max_level = max_level
        self.conductor_cap = conductor_cap
        self.budget = budget


def _integer(value, name: str) -> int:
    """value itself when it is a JSON integer, else SchemaError.

    json.loads gives a bool for true, a float for 2.5 and 3.0 and a str
    for "5"; int() would quietly accept or truncate all of them.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be a JSON integer, got {json.dumps(value)}")
    return value


def _integer_rows(value, name: str) -> list[list[int]]:
    """An array of arrays of JSON integers, else SchemaError."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise SchemaError(f"{name} must be an array of integer arrays")
    return [[_integer(x, name) for x in row] for row in value]


def load_problem(path: Path) -> Problem:
    """Parse and validate a problem file against the versioned schema.

    Unknown fields are rejected rather than ignored, so a misspelled
    mathematical hypothesis cannot silently configure nothing, and every
    integer field must hold a JSON integer.
    """
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("problem file must contain a JSON object")
    if raw.get("schema") != 1:
        raise SchemaError("missing or unsupported schema version (expected \"schema\": 1)")
    unknown = set(raw) - SCHEMA_FIELDS
    if unknown:
        raise SchemaError(f"unknown fields rejected: {sorted(unknown)}")
    for field in ("p", "n", "constraints", "target"):
        if field not in raw:
            raise SchemaError(f"missing required field {field!r}")
    p, n = _integer(raw["p"], "p"), _integer(raw["n"], "n")
    resolution_data = raw.get("resolution_data")
    if resolution_data is not None:
        resolution_data = _integer_rows(resolution_data, "resolution_data")
    try:
        system = system_from_strings(
            p, n, raw["constraints"], raw["target"], resolution_data=resolution_data
        )
    except PadicZetaError as exc:
        raise SchemaError(f"invalid polynomial system: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid polynomial system: {exc}") from exc
    support_raw = raw.get("support", {"type": "unit_polydisc"})
    if not isinstance(support_raw, dict):
        raise SchemaError("support must be an object with a 'type' field")
    if support_raw.get("type") == "unit_polydisc":
        support = None
    elif support_raw.get("type") == "cosets":
        try:
            level = _integer(support_raw["level"], "support.level")
            centers = _integer_rows(support_raw["centers"], "support.centers")
            support = Support.cosets(n, level, centers, p)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"invalid coset support: {exc}") from exc
    else:
        raise SchemaError("support.type must be 'unit_polydisc' or 'cosets'")
    return Problem(
        system=system,
        support=support,
        max_level=_integer(raw.get("max_level", 6), "max_level"),
        conductor_cap=_integer(raw.get("character_conductor_cap", 2), "character_conductor_cap"),
        budget=_integer(raw.get("budget", DEFAULT_BUDGET), "budget"),
    )


def _fmt(x: float) -> str:
    return format(x, ".12e")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _summary(out: Path, command: str, args, payload: dict) -> None:
    payload = dict(payload)
    payload.update(
        {
            "command": command,
            "seed": args.seed,
            "version": __version__,
        }
    )
    _write_json(out / "summary.json", payload)


# -- commands -----------------------------------------------------------------


def _write_counts(out: Path, problem: Problem, counts: list[int]) -> None:
    """counts.csv: N_m and its scaled value N_m / p^(m dim), one row per m."""
    q_dim = problem.system.p**problem.system.dim
    rows = []
    for m, count in enumerate(counts):
        scaled = Fraction(count, q_dim**m)
        rows.append([m, count, scaled.numerator, scaled.denominator])
    _write_csv(out / "counts.csv", ["m", "N_m", "scaled_num", "scaled_den"], rows)


def cmd_count(problem: Problem, out: Path, args) -> int:
    counts = congruence_counts(problem.system, problem.max_level, budget=problem.budget)
    _write_counts(out, problem, counts)
    _summary(out, "count", args, {"max_level": problem.max_level})
    return EXIT_OK


def cmd_poincare(problem: Problem, out: Path, args) -> int:
    series = poincare_series(problem.system, problem.max_level, budget=problem.budget)
    _write_counts(out, problem, series.Nm)
    _write_json(out / "poincare.json", series.reconstructed.to_json())
    payload = {"max_level": problem.max_level, "identity_checked": False}
    code = EXIT_OK
    # poincare_series has built the decomposition; L = 0 is good reduction
    if measure_charts(problem.system, problem.budget).L == 0:
        table = build_shell_table(problem.system, problem.max_level, budget=problem.budget)
        zeta_fn = table.trivial_fn()
        verdict = check_series_zeta_identity(series.reconstructed, zeta_fn)
        payload["identity_checked"] = True
        payload["identity_passed"] = verdict.passed
        if not verdict.passed:
            code = EXIT_VERIFY
    _summary(out, "poincare", args, payload)
    return code


def cmd_zeta(problem: Problem, out: Path, args) -> int:
    p = problem.system.p
    cap = problem.conductor_cap if p != 2 else 1
    # the characters come first: a cap past the supported modulus fails before any walk
    characters = enumerate_characters(p, cap) if p != 2 else [trivial_character(p)]
    table = build_shell_table(
        problem.system,
        problem.max_level,
        c_level=cap,
        support=problem.support,
        budget=problem.budget,
    )
    # the stabilized column is 1 on every row: a row whose recount
    # disagrees raises NotStabilized before any file is written
    for chi in characters:
        ct = coefficient_table(table, chi)
        rows = []
        for m, coeff in enumerate(ct.coeffs):
            if isinstance(coeff, Fraction):
                rows.append(
                    [m, _fmt(float(coeff)), _fmt(0.0), coeff.numerator, coeff.denominator, 1]
                )
            else:
                rows.append([m, _fmt(coeff.real), _fmt(coeff.imag), "", "", 1])
        name = "trivial" if chi.is_trivial() else f"chi{chi.index}_c{chi.conductor}"
        _write_csv(
            out / f"zeta_{name}.csv",
            ["m", "re", "im", "exact_num", "exact_den", "stabilized"],
            rows,
        )
    zeta_fn = table.trivial_fn()
    _write_json(out / "zeta_trivial.json", zeta_fn.to_json())
    pole = pole_analysis(zeta_fn, problem.system.p)
    pole_payload = {
        "rho": pole.rho,
        "m_rho": pole.m_rho,
        "rho_exact": [pole.rho_exact.numerator, pole.rho_exact.denominator]
        if pole.rho_exact is not None
        else None,
        "factors": list(pole.factors) if pole.factors is not None else None,
    }
    payload = {"max_level": problem.max_level, "conductor_cap": cap}
    code = EXIT_OK
    if problem.system.resolution_data is not None:
        try:
            match = candidate_pole_check(
                zeta_fn, problem.system.resolution_data, problem.system.p
            )
            pole_payload["candidate_match"] = list(match.multiplicities)
        except PoleSetMismatch as exc:
            pole_payload["candidate_match"] = None
            payload["candidate_error"] = str(exc)
            code = EXIT_VERIFY
    _write_json(out / "poles.json", pole_payload)
    _summary(out, "zeta", args, payload)
    return code


def cmd_expsum(problem: Problem, out: Path, args) -> int:
    if problem.system.resolution_data is not None:
        pole = pole_data_from_resolution(problem.system.resolution_data, problem.system.p)
    else:
        pole = None
    p = problem.system.p
    units = {
        m: [u for u in range(1, p ** min(m, problem.conductor_cap)) if u % p]
        for m in range(1, problem.max_level + 1)
    }
    rows = []
    for m, values in exponential_sum(problem.system, units, problem.budget).items():
        for u, value in zip(units[m], values):
            normalized = (
                _fmt(abs(value) * p ** (pole.rho * m) / m ** (pole.m_rho - 1))
                if pole is not None
                else ""
            )
            rows.append(
                [m, u, _fmt(value.real), _fmt(value.imag), "", "", _fmt(abs(value)), normalized]
            )
    _write_csv(out / "expsum.csv", EXPSUM_HEADER, rows)
    _summary(out, "expsum", args, {"max_level": problem.max_level})
    return EXIT_OK


def cmd_sps_verify(problem: Problem, out: Path, args) -> int:
    report = stationary_phase_check(
        problem.system,
        list(range(1, problem.max_level + 1)),
        c_cap=problem.conductor_cap,
        depth=problem.max_level + 1,
        support=problem.support,
        budget=problem.budget,
    )
    rows = []
    for record in report.records:
        rows.append(
            [
                record.m,
                record.u,
                _fmt(record.direct.real),
                _fmt(record.direct.imag),
                _fmt(record.via_formula.real),
                _fmt(record.via_formula.imag),
                _fmt(abs(record.direct)),
                "",
            ]
        )
    _write_csv(out / "expsum.csv", EXPSUM_HEADER, rows)
    passed = report.passed()
    _summary(
        out,
        "sps-verify",
        args,
        {"max_discrepancy": _fmt(report.max_discrepancy), "passed": passed},
    )
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_smooth(problem: Problem, out: Path, args) -> int:
    decomposition = global_decompose(problem.system, problem.budget)
    (out / "certificates.json").write_text(certificates_to_json(decomposition))
    identity_ok = all(verify_certificate(chart) for chart in decomposition.charts)
    counts_ok = True
    for m in range(1, min(4, problem.max_level) + 1):
        chart_count = decomposition.image_count(m, problem.budget)
        oracle = len(
            image_oracle(problem.system, m, decomposition.L + 1, problem.budget)
        )
        if chart_count != oracle:
            counts_ok = False
    passed = identity_ok and counts_ok
    _summary(
        out,
        "smooth",
        args,
        {
            "level": decomposition.L,
            "charts": len(decomposition.charts),
            "identity_ok": identity_ok,
            "image_counts_ok": counts_ok,
        },
    )
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_delta_check(problem: Problem, out: Path, args) -> int:
    report = delta_limit_check(
        problem.system,
        args.s,
        list(range(0, args.r_max + 1)),
        depth=max(problem.max_level, args.r_max + 2),
        support=problem.support,
        budget=problem.budget,
    )
    rows = [
        [
            row.r,
            _fmt(float(row.value)),
            _fmt(0.0),
            _fmt(float(row.tail_bound)),
            _fmt(float(row.surface_value)),
            _fmt(row.gap),
        ]
        for row in report.rows
    ]
    _write_csv(
        out / "delta.csv",
        ["r", "value_re", "value_im", "tail_bound", "surface_value", "abs_diff"],
        rows,
    )
    _summary(out, "delta-check", args, {"passed": report.passed, "r0": report.r0})
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_decay(problem: Problem, out: Path, args) -> int:
    if problem.system.resolution_data is not None:
        pole = pole_data_from_resolution(problem.system.resolution_data, problem.system.p)
    else:
        table = build_shell_table(problem.system, problem.max_level + 3, budget=problem.budget)
        pole = pole_analysis(table.trivial_fn(), problem.system.p)
    report = decay_report(
        problem.system,
        list(range(1, problem.max_level + 1)),
        pole,
        budget=problem.budget,
    )
    rows = [[row.m, _fmt(row.abs_value), _fmt(row.normalized)] for row in report.rows]
    _write_csv(out / "decay.csv", ["m", "abs", "normalized"], rows)
    counts = congruence_counts(problem.system, problem.max_level, budget=problem.budget)
    constant, verdict = solution_growth_bound(counts, pole, problem.system.p, problem.system.dim)
    _summary(
        out,
        "decay",
        args,
        {
            "expsum_verdict": report.verdict,
            "count_bound_constant": _fmt(constant),
            "count_bound_verdict": verdict,
            "rho": _fmt(pole.rho),
            "m_rho": pole.m_rho,
        },
    )
    return EXIT_OK


def cmd_probe(problem: Problem, out: Path, args) -> int:
    level = min(problem.max_level, args.probe_level)
    report = critical_locus_probe(problem.system, level, problem.budget)
    _write_json(
        out / "probe.json",
        {
            "level": report.level,
            "clean": report.clean,
            "suspects": [list(x) for x in report.suspects],
        },
    )
    _summary(out, "probe", args, {"clean": report.clean, "suspect_count": len(report.suspects)})
    return EXIT_OK


COMMANDS = {
    "count": cmd_count,
    "poincare": cmd_poincare,
    "zeta": cmd_zeta,
    "expsum": cmd_expsum,
    "sps-verify": cmd_sps_verify,
    "smooth": cmd_smooth,
    "delta-check": cmd_delta_check,
    "decay": cmd_decay,
    "probe": cmd_probe,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiczeta",
        description="Exact zeta, counting, and exponential-sum computations "
        "along p-adic submanifolds.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--spec", required=True, help="problem JSON file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--max-level", type=int, default=None, help="override max_level")
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the enumeration budget: the most lift-tree nodes each stage's walks "
        "may visit, and the largest p^n a residue scan may cover",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="recorded in summary.json; no check reads it"
    )
    parser.add_argument("--s", type=int, default=1, help="integer exponent for delta-check")
    parser.add_argument("--r-max", type=int, default=4, help="largest r for delta-check")
    parser.add_argument("--probe-level", type=int, default=2, help="level for the probe command")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = load_problem(Path(args.spec))
        if args.max_level is not None:
            problem.max_level = args.max_level
        if args.budget is not None:
            problem.budget = args.budget
        if problem.max_level < 1 or problem.conductor_cap < 1:
            raise SchemaError("max_level and character_conductor_cap must be >= 1")
        if problem.budget < 1:
            raise SchemaError("budget must be >= 1")
        if args.probe_level < 1:
            raise SchemaError("--probe-level must be >= 1")
        if args.s < 1:
            raise SchemaError("--s must be >= 1")
        if args.r_max < 0:
            raise SchemaError("--r-max must be >= 0")
        if problem.support is not None and args.command in WHOLE_POLYDISC:
            raise SchemaError(f"{args.command} covers the unit polydisc and takes no coset support")
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    out = Path(args.out)
    try:
        if problem.support is not None and not tail_measure(
            problem.system, 0, problem.support, problem.budget
        ):
            raise SchemaError("invalid coset support: no point of the variety lies in it")
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](problem, out, args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (EvenPrimeUnsupported, ModulusTooLarge, SchemaError) as exc:
        # an unsupported input, not a falsified identity
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except PadicZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
