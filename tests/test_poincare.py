"""Tests for solution counts, Poincare series, and the zeta identity."""

from fractions import Fraction

import pytest

from padiczeta.bundled import BAD_LINE, LINE_X1, LINE_X2, LINE_X3, PARABOLA, PLANE_LINE
from padiczeta.mpoly import system_from_strings
from padiczeta.poincare import (
    check_series_zeta_identity,
    congruence_counts,
    decomposed_count_check,
    poincare_series,
    solution_growth_bound,
)
from padiczeta.ratfn import RationalFn, pole_data_from_resolution, reconstruct_rational
from padiczeta.smoothing import measure_charts
from padiczeta.variety import HenselLifter, iter_congruence_points
from padiczeta.zeta import build_shell_table

F = Fraction


def brute_count(system, m):
    """Oracle: full-grid count of simultaneous congruence solutions."""
    if m == 0:
        return 1
    lifter = HenselLifter(system.p, system.n, list(system.all_polys()))
    return sum(1 for _ in iter_congruence_points(lifter, m))


def test_counts_x2_line():
    system = LINE_X2.system
    values = congruence_counts(system, 4)
    assert values == [1, 1, 3, 3, 9]
    assert values == [brute_count(system, m) for m in range(5)]


def test_counts_x1_line():
    system = LINE_X1.system
    assert congruence_counts(system, 4) == [1, 1, 1, 1, 1]


def test_count_convention_at_zero():
    assert congruence_counts(LINE_X3.system, 0) == [1]


@pytest.mark.parametrize("instance", [LINE_X2, LINE_X3, PARABOLA, PLANE_LINE], ids=lambda i: i.name)
def test_counts_match_brute_oracle(instance):
    counts = congruence_counts(instance.system, 3)
    assert counts == [brute_count(instance.system, m) for m in range(4)]


def test_poincare_series_x2_line():
    series = poincare_series(LINE_X2.system, 10)
    expected = RationalFn((F(1), F(1, 3)), (F(1), F(0), F(-1, 3)))
    assert series.reconstructed == expected


def test_poincare_series_x1_line():
    series = poincare_series(LINE_X1.system, 8)
    assert series.reconstructed == RationalFn((F(1),), (F(1), F(-1, 3)))


def test_poincare_series_x3_line():
    # oracle: N_m = 3^(m - ceil(m/3)), so the scaled values 3^(-ceil(m/3))
    # satisfy a_m = a_{m-3} / 3 and the denominator is 1 - t^3/3
    series = poincare_series(LINE_X3.system, 12)
    assert series.Nm[:5] == [3 ** (m - (m + 2) // 3) for m in range(5)]
    assert series.reconstructed.den == (F(1), F(0), F(0), F(-1, 3))


def test_reconstruction_predicts_next_counts():
    system = LINE_X2.system
    series = poincare_series(system, 8)
    expansion = series.reconstructed.series(11)
    q_dim = 3**system.dim
    counts = congruence_counts(system, 10)
    for m in (9, 10):
        assert expansion[m] == F(counts[m], q_dim**m)


def test_monotone_lift_bound():
    # each level-m point has at most p^dim lifts on the submanifold
    for instance in (LINE_X2, PARABOLA, PLANE_LINE):
        system = instance.system
        counts = congruence_counts(system, 5)
        p_dim = system.p**system.dim
        for m in range(1, 5):
            assert counts[m + 1] <= p_dim * counts[m]


@pytest.mark.parametrize("instance", [LINE_X1, LINE_X2, LINE_X3, PARABOLA], ids=lambda i: i.name)
def test_series_zeta_identity(instance):
    series = poincare_series(instance.system, 12)
    table = build_shell_table(instance.system, 12)
    zeta_fn = reconstruct_rational(table.trivial_series())
    assert check_series_zeta_identity(series.reconstructed, zeta_fn)


def test_series_zeta_identity_fails_on_mutation():
    series = poincare_series(LINE_X2.system, 10)
    table = build_shell_table(LINE_X2.system, 10)
    zeta_fn = reconstruct_rational(table.trivial_series())
    mutated = RationalFn(tuple(c + F(1, 7) for c in zeta_fn.num), zeta_fn.den)
    verdict = check_series_zeta_identity(series.reconstructed, mutated)
    assert not verdict.passed
    assert not verdict.residual.is_zero()


def test_growth_bound_x2_line():
    counts = congruence_counts(LINE_X2.system, 9)
    pole = pole_data_from_resolution([(2, 1)], 3)
    constant, verdict = solution_growth_bound(counts, pole, 3, 1)
    assert verdict == "Bounded"
    assert abs(constant - 1.0) < 1e-12


def test_growth_bound_x1_line():
    counts = congruence_counts(LINE_X1.system, 8)
    pole = pole_data_from_resolution([(1, 1)], 3)
    constant, verdict = solution_growth_bound(counts, pole, 3, 1)
    assert verdict == "Bounded" and abs(constant - 1.0) < 1e-12


def test_growth_bound_x3_line():
    counts = congruence_counts(LINE_X3.system, 9)
    pole = pole_data_from_resolution([(3, 1)], 3)
    constant, verdict = solution_growth_bound(counts, pole, 3, 1)
    assert verdict == "Bounded"


def test_bad_line_image_vs_congruence_counts():
    # the image-based count differs from the raw congruence count of all
    # polynomials under bad reduction
    system = BAD_LINE.system
    image = congruence_counts(system, 4)[1:]
    raw = [brute_count(system, m) for m in range(1, 5)]
    assert image == [1, 3, 3, 9]
    assert raw == [3, 9, 9, 27]
    assert all(i <= r for i, r in zip(image, raw))


def test_bad_line_poincare_series():
    series = poincare_series(BAD_LINE.system, 10)
    assert series.reconstructed == RationalFn((F(1), F(1, 3)), (F(1), F(0), F(-1, 3)))


def test_decomposed_count_check_bad_line():
    report = decomposed_count_check(BAD_LINE.system, [3, 4, 5])
    assert report.exact()
    assert report.threshold <= 3
    for row in report.rows:
        assert row.decomposed == row.direct


def test_decomposed_count_check_good_instance():
    report = decomposed_count_check(LINE_X2.system, [1, 2, 3])
    assert report.exact()


def test_decomposed_count_check_needs_no_exact_zero():
    # the chart at (1, 29) has the exact zero (33, -3) of both polynomials,
    # outside the box (-2^5, 2^5); a zero of the whole system mod 2^4 in its
    # class mod 2^L re-centers it just as well
    system = system_from_strings(2, 2, ["2*x1 + 4*x2 + 2*x2^3"], "x2^2 + 3*x2")
    report = decomposed_count_check(system, [3, 4])
    assert (1, 29) in [chart.center for chart in measure_charts(system).charts]
    assert [(row.direct, row.decomposed) for row in report.rows] == [(2, 2), (2, 2)]
    assert report.exact()
