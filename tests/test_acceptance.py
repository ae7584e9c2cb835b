"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Ground truth is derived at desk scale: brute-force oracles for
counts, hand-derivable closed forms for the line instances, and exact
rational arithmetic everywhere a criterion demands exactness.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import padiczeta.regularize as regularize
from padiczeta.bundled import (
    BAD_LINE,
    LINE_X1,
    LINE_X2,
    LINE_X3,
    LINE_X4,
    PARABOLA,
    PLANE_LINE,
    THREEVAR,
)
from padiczeta.characters import enumerate_characters, gauss_sum
from padiczeta.errors import PoleSetMismatch
from padiczeta.expsum import (
    build_stationary_phase_context,
    decay_report,
    decomposed_expsum_check,
    exponential_sum,
    stationary_phase_check,
    stationary_phase_eval,
)
from padiczeta.poincare import (
    check_series_zeta_identity,
    decomposed_count_check,
    poincare_series,
)
from padiczeta.ratfn import (
    RationalFn,
    candidate_pole_check,
    pole_analysis,
    pole_data_from_resolution,
    reconstruct_rational,
)
from padiczeta.regularize import delta_limit_check
from padiczeta.smoothing import dvr_echelon, global_decompose, neron_rescale
from padiczeta.variety import brute_force_points, hensel_enumerate, image_oracle
from padiczeta.zeta import build_shell_table

F = Fraction


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def test_criterion_01_hensel_count_law():
    with criterion("hensel count law (4 good-reduction systems, m <= 5)"):
        for instance in (LINE_X1, LINE_X2, LINE_X3, PARABOLA):
            system = instance.system
            roots = brute_force_points(system, 1).count
            for m in range(1, 6):
                law = roots * system.p ** ((m - 1) * system.dim)
                assert hensel_enumerate(system, m).count == law, (instance.name, m)
                assert brute_force_points(system, m).count == law, (instance.name, m)
        for instance in (PLANE_LINE, THREEVAR):  # extra coverage at n = 3
            system = instance.system
            roots = brute_force_points(system, 1).count
            for m in range(1, 4):
                law = roots * system.p ** ((m - 1) * system.dim)
                assert hensel_enumerate(system, m).count == law
                assert brute_force_points(system, m).count == law


def test_criterion_02_poincare_reconstruction():
    with criterion("Poincare reconstruction of the x^2 line, rho = 1/2 exactly"):
        series = poincare_series(LINE_X2.system, 10)
        expected = RationalFn((F(1), F(1, 3)), (F(1), F(0), F(-1, 3)))
        assert series.reconstructed == expected
        pole = pole_analysis(series.reconstructed, 3)
        assert pole.rho_exact == F(1, 2)
        assert pole.m_rho == 1


def test_criterion_03_series_zeta_identity():
    with criterion("series-zeta identity P(t)(1-t) + tZ = 1 on 4 instances, exact"):
        for instance in (LINE_X1, LINE_X2, LINE_X3, PARABOLA):
            series = poincare_series(instance.system, 12)
            table = build_shell_table(instance.system, 12)
            zeta_fn = reconstruct_rational(table.trivial_series())
            verdict = check_series_zeta_identity(series.reconstructed, zeta_fn)
            assert verdict.passed, instance.name


def test_criterion_04_stationary_phase_formula():
    with criterion("stationary phase formula < 1e-9 on x^2, x^3, and 3-variable"):
        start = time.monotonic()
        for instance in (LINE_X2, LINE_X3, THREEVAR):
            report = stationary_phase_check(instance.system, [1, 2, 3, 4, 5], c_cap=2)
            assert report.max_discrepancy < 1e-9, instance.name
        assert time.monotonic() - start < 300  # the stated runtime bound


def test_criterion_05_exact_decay():
    with criterion("|E(u 3^-m)| = 3^(-m/2) within 1e-9, x^2 line, m <= 6, all u"):
        system = LINE_X2.system
        for m in range(1, 7):
            units = [u for u in range(1, 3**m) if u % 3]
            for u, value in zip(units, exponential_sum(system, {m: units})[m]):
                assert abs(abs(value) - 3 ** (-m / 2)) < 1e-9, (m, u)
        pole = pole_data_from_resolution([(2, 1)], 3)
        report = decay_report(system, list(range(1, 7)), pole)
        assert all(abs(row.normalized - 1.0) < 1e-9 for row in report.rows)


def test_criterion_06_gauss_sums():
    with criterion("Gaussian sums: modulus law for p in {3,5,7}, c in {1,2}"):
        for p in (3, 5, 7):
            for c in (1, 2):
                expected = p ** (1 - c / 2) / (p - 1)
                primitive = [chi for chi in enumerate_characters(p, c) if chi.conductor == c]
                assert primitive
                for chi in primitive:
                    assert abs(abs(gauss_sum(chi)) - expected) < 1e-9, (p, c, chi.index)
        quad = next(c for c in enumerate_characters(3, 1) if c.index == 1)
        assert abs(gauss_sum(quad) - 1j * 3**0.5 / 2) < 1e-12


def test_criterion_07_smoothing():
    with criterion("rescale at origin: L=2, e=3, unit pivot; image counts match oracle"):
        # the Jacobian of 3*x1 - 9*x2 at the origin
        (constraint,) = BAD_LINE.system.constraints
        jacobian = [[constraint.partial(j).evaluate((0, 0)) for j in (1, 2)]]
        echelon = dvr_echelon(jacobian, 3)
        chart = neron_rescale(BAD_LINE.system, (0, 0), echelon, 2)
        assert jacobian == [[3, -9]]
        assert echelon.pivot_vals == (1,)
        assert chart.L == 2
        assert chart.exponents == (3,)
        assert chart.constraints[0].terms == {(1, 0): 1, (0, 1): -3}
        decomposition = global_decompose(BAD_LINE.system)
        for m in range(1, 5):
            oracle = image_oracle(BAD_LINE.system, m, buffer=decomposition.L + 1)
            assert decomposition.image_count(m) == len(oracle), m


def test_criterion_08_delta_limit():
    with criterion("delta_r limit: r0 <= 4, certified tail <= 1e-6, x^2 line + parabola"):
        for instance in (LINE_X2, PARABOLA):
            report = delta_limit_check(instance.system, 1, [0, 1, 2, 3, 4], depth=9)
            assert report.passed, instance.name
            assert report.r0 is not None and report.r0 <= 4
            assert all(row.tail_bound <= F(1, 10**6) for row in report.rows)


def test_criterion_09_candidate_poles():
    with criterion("zeta denominators divide 1 - p^-1 t^N for x^N, N in {2,3,4}"):
        for instance, N in ((LINE_X2, 2), (LINE_X3, 3), (LINE_X4, 4)):
            table = build_shell_table(instance.system, 2 * N + 4)
            fn = reconstruct_rational(table.trivial_series())
            match = candidate_pole_check(fn, [(N, 1)], 3)
            # one copy of the single candidate factor suffices: exact divisibility
            assert match.multiplicities == ((N, 1, 1),)


def test_criterion_10_bad_reduction_decompositions():
    with criterion("bad-reduction decompositions of E (1e-9) and N_m (exact)"):
        decomposition = global_decompose(BAD_LINE.system)
        L = decomposition.L
        ms = [L + 1, L + 2, L + 3]
        for row in decomposed_expsum_check(BAD_LINE.system, ms):
            assert row.gap < 1e-9, row.m
        report = decomposed_count_check(BAD_LINE.system, ms)
        assert report.exact()
        for row in report.rows:
            assert row.decomposed == row.direct


def test_criterion_11_falsification_paths(monkeypatch, tmp_path):
    with criterion("mutations trip their verifiers (Gauss scale, delta scale, zeta coeff, exit 3)"):
        # mutated Gaussian-sum normalization -> visible formula discrepancy
        ctx = build_stationary_phase_context(LINE_X2.system, depth=6)
        ctx = ctx._replace(twisted=tuple((chi, g * 3) for chi, g in ctx.twisted))
        direct = exponential_sum(LINE_X2.system, {m: [1] for m in (1, 2, 3)})
        gap = max(abs(direct[m][0] - stationary_phase_eval(ctx, m, [1])[0]) for m in (1, 2, 3))
        assert gap > 0.1

        # mutated delta_r scale -> limit check fails
        monkeypatch.setattr(regularize, "_delta_scale", lambda p, r, l: p ** (r * l))
        report = delta_limit_check(LINE_X2.system, 1, [2, 3, 4], depth=7)
        monkeypatch.undo()
        assert not report.passed

        # perturbed zeta coefficient -> nonzero identity residual
        series = poincare_series(LINE_X2.system, 10)
        table = build_shell_table(LINE_X2.system, 10)
        zeta_fn = reconstruct_rational(table.trivial_series())
        mutated = RationalFn(tuple(c + F(1, 9) for c in zeta_fn.num), zeta_fn.den)
        verdict = check_series_zeta_identity(series.reconstructed, mutated)
        assert not verdict.passed and not verdict.residual.is_zero()

        # wrong resolution data -> library error and CLI exit code 3
        table = build_shell_table(LINE_X2.system, 8)
        fn = reconstruct_rational(table.trivial_series())
        with pytest.raises(PoleSetMismatch):
            candidate_pole_check(fn, [(3, 1)], 3)
        from padiczeta.cli import EXIT_VERIFY, main

        spec = tmp_path / "wrong.json"
        spec.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "p": 3,
                    "n": 2,
                    "constraints": ["x1"],
                    "target": "x2^2",
                    "max_level": 5,
                    "resolution_data": [[3, 1]],
                }
            )
        )
        assert main(["zeta", "--spec", str(spec), "--out", str(tmp_path / "out")]) == EXIT_VERIFY
