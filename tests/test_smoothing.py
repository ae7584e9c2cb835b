"""Tests for DVR echelon reduction and the good-reduction chart covering."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from padiczeta import cli, smoothing
from padiczeta.bundled import BAD_LINE, BAD_LINE_P5, LINE_X2, PARABOLA, PLANE_LINE
from padiczeta.errors import ArgumentOutOfRange, BudgetExceeded, CenterNotOnVariety, RankDeficient
from padiczeta.mpoly import MPoly, PolySystem, shift_rescale, system_from_strings
from padiczeta.smoothing import (
    dvr_echelon,
    global_decompose,
    measure_charts,
    neron_rescale,
    verify_certificate,
)
from padiczeta.variety import (
    HenselLifter,
    good_reduction_test,
    image_oracle,
    iter_hensel_points,
    lifter_for,
)
from padiczeta.zeta import tail_measure

SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"


def echelon_at(system, x0):
    """`dvr_echelon` of the constraints' Jacobian at x0."""
    jacobian = [
        [f.partial(j).evaluate(x0) for j in range(1, system.n + 1)] for f in system.constraints
    ]
    return dvr_echelon(jacobian, system.p)


def rescale_at_own_level(system, x0):
    """The chart `neron_rescale` makes at one more than the center's last pivot valuation."""
    echelon = echelon_at(system, x0)
    return neron_rescale(system, x0, echelon, echelon.pivot_vals[-1] + 1)


def test_echelon_single_row():
    result = dvr_echelon([[3, -9]], 3)
    assert result.b == ((3, -9),)
    assert result.pivot_vals == (1,)


def test_echelon_column_swap():
    result = dvr_echelon([[9, 1]], 3)
    assert result.pivot_vals == (0,)
    assert result.b[0][0] == 1
    assert result.col_perm == (1, 0)
    assert result.transform == ((1,),)  # a column swap leaves the polynomials alone


def test_echelon_already_reduced():
    result = dvr_echelon([[1, 0, 0], [0, 3, 0]], 3)
    assert result.pivot_vals == (0, 1)


def test_echelon_elimination_stays_integral():
    result = dvr_echelon([[2, 1], [1, 5]], 3)
    # pivot is the (1,2) entry of valuation 0 after tie-breaking by row
    assert result.pivot_vals[0] == 0
    assert all(isinstance(x, int) for row in result.b for x in row)
    assert result.b[1][0] == 0


def test_echelon_pivot_monotonicity():
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randrange(-40, 41) for _ in range(3)] for _ in range(2)]
        try:
            result = dvr_echelon(rows, 3)
        except RankDeficient:
            continue
        assert list(result.pivot_vals) == sorted(result.pivot_vals)
        for i, row in enumerate(result.b):
            vals = [v for v in row[i:] if v]
            if vals:
                assert min(_val3(v) for v in vals) == result.pivot_vals[i]


def _val3(x):
    v = 0
    x = abs(x)
    while x % 3 == 0:
        v += 1
        x //= 3
    return v


def test_echelon_rank_deficient():
    with pytest.raises(RankDeficient):
        dvr_echelon([[3, 6], [1, 2]], 3)


@st.composite
def polynomials_at_centers(draw):
    """(f, x0, L, p): an integer polynomial in n <= 3 variables, a center and a level."""
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exponent, st.integers(-30, 30), min_size=1, max_size=5))
    f = MPoly(n, terms)
    assume(not f.is_zero())
    x0 = draw(st.tuples(*[st.integers(-40, 40)] * n))
    return f, x0, draw(st.integers(0, 3)), draw(st.sampled_from([2, 3, 5]))


@given(polynomials_at_centers())
@settings(max_examples=100, deadline=None)
def test_jacobian_and_one_substitution_match_the_translation(case):
    # chart construction reads the echelon off the Jacobian at x0 and
    # rescales each combined constraint in one substitution: the linear
    # coefficients of f(x0 + y) are f's partials at x0, and rescaling
    # f at x0 is rescaling the translation f(x0 + y) at 0
    f, x0, L, p = case
    n = f.n
    translated = f.substitute_affine(x0, 1)
    linear = [translated.terms.get(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]
    assert [f.partial(j).evaluate(x0) for j in range(1, n + 1)] == linear
    assert shift_rescale(f, x0, L, p) == shift_rescale(translated, (0,) * n, L, p)


@st.composite
def integer_matrices(draw):
    """(A, p): at most 3 rows, no fewer columns, entries often multiples of p^k."""
    p = draw(st.sampled_from([2, 3, 5]))
    nrows = draw(st.integers(1, 3))
    ncols = draw(st.integers(nrows, 4))
    entry = st.builds(lambda c, k: c * p**k, st.integers(-9, 9), st.integers(0, 2))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), p


@given(integer_matrices())
@settings(max_examples=100, deadline=None)
def test_echelon_transform_combines_the_input_rows(case):
    # T * A, read at the columns col_perm, is the echelon form b
    matrix, p = case
    try:
        result = dvr_echelon(matrix, p)
    except RankDeficient:
        assume(False)
    for t_row, b_row in zip(result.transform, result.b):
        combined = [sum(t * row[j] for t, row in zip(t_row, matrix)) for j in result.col_perm]
        assert combined == list(b_row)


def test_neron_rescale_bad_line():
    chart = rescale_at_own_level(BAD_LINE.system, (0, 0))
    assert chart.L == 2
    assert chart.exponents == (3,)
    assert chart.constraints[0].terms == {(1, 0): 1, (0, 1): -3}
    assert chart.weight == Fraction(1, 3)


def test_neron_rescale_good_line():
    chart = rescale_at_own_level(system_from_strings(3, 2, ["x1"], "x2"), (0, 0))
    assert chart.L == 1 and chart.exponents == (1,)
    assert chart.constraints[0].terms == {(1, 0): 1}


def test_neron_rescale_rejects_level_below_pivot():
    # bad_line's pivot 3 has valuation 1, so L = 1 cannot make it a unit
    echelon = echelon_at(BAD_LINE.system, (0, 0))
    with pytest.raises(ArgumentOutOfRange, match="L=1 below required 2"):
        neron_rescale(BAD_LINE.system, (0, 0), echelon, 1)


def test_neron_rescale_rejects_off_variety_center():
    with pytest.raises(CenterNotOnVariety):
        rescale_at_own_level(PARABOLA.system, (1, 0))


def _identity_gaps(chart, y, modulus=None):
    """combined(center + p^L y) - p^e rescaled(y) per constraint, mod modulus if given."""
    x = tuple(c + chart.p**chart.L * yk for c, yk in zip(chart.center, y))
    gaps = (
        g.evaluate(x) - chart.p**e * gL.evaluate(y)
        for g, gL, e in zip(chart.combined_constraints, chart.constraints, chart.exponents)
    )
    return [gap % modulus if modulus else gap for gap in gaps]


def test_certificate_identity_random_points():
    # the grid proof's verdict holds at random points, exactly over Z
    rng = random.Random(12345)
    for instance in (BAD_LINE, BAD_LINE_P5, PARABOLA, PLANE_LINE):
        for chart in global_decompose(instance.system).charts:
            assert verify_certificate(chart)
            for _ in range(10):
                y = tuple(rng.randrange(-(10**6), 10**6) for _ in chart.center)
                assert not any(_identity_gaps(chart, y))


def test_certificates_take_grid_evaluations(monkeypatch):
    # each of BAD_LINE_P5's 25 charts certifies a linear constraint in two
    # variables: both sides at the 4 points of {0, 1}^2, 200 evaluations,
    # where 50 random points per chart took 2,500
    charts = global_decompose(BAD_LINE_P5.system).charts
    calls = 0
    evaluate = MPoly.evaluate

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return evaluate(self, *args)

    monkeypatch.setattr(MPoly, "evaluate", counting)
    assert len(charts) == 25
    assert all(verify_certificate(chart) for chart in charts)
    assert calls == 200


def _perturbed(chart, amount):
    """The chart with amount added to the x1 coefficient of its first rescaled constraint."""
    first = chart.constraints[0] + MPoly(len(chart.center), {(1, 0): amount})
    return smoothing.Chart(
        chart.p,
        chart.center,
        chart.L,
        (first, *chart.constraints[1:]),
        chart.target,
        chart.combined_constraints,
        chart.exponents,
    )


def test_certificate_catches_a_perturbation_below_the_sampled_precision():
    # x1 - 3*x2 + 81*x1 breaks bad_line's identity by 3^3 * 81 * y1 = 3^7 y1,
    # which vanishes mod p^(4 + e) = 3^7: a check sampled at that precision
    # passes at every point, and the grid proof fails at y = (1, 0)
    chart = global_decompose(BAD_LINE.system).charts[0]
    assert chart.exponents == (3,)
    broken = _perturbed(chart, 3**4)
    rng = random.Random(0)
    for _ in range(50):
        y = tuple(rng.randrange(3**4) for _ in chart.center)
        assert _identity_gaps(broken, y, 3**7) == [0]
    assert _identity_gaps(broken, (1, 0)) == [-(3**7)]
    assert verify_certificate(chart)
    assert not verify_certificate(broken)


def test_smooth_exits_verify_on_a_broken_certificate(monkeypatch, tmp_path):
    def decompose(system, budget):
        decomposition = global_decompose(system, budget)
        charts = (_perturbed(decomposition.charts[0], 3**4), *decomposition.charts[1:])
        return decomposition._replace(charts=charts)

    monkeypatch.setattr(cli, "global_decompose", decompose)
    out = tmp_path / "out"
    assert cli.main(["smooth", "--spec", str(SPECS / "bad_line.json"), "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["identity_ok"] is False


def test_global_decompose_good_system_single_step():
    decomposition = global_decompose(system_from_strings(3, 2, ["x1"], "x2"))
    assert decomposition.L == 1
    assert len(decomposition.charts) == 3
    assert all(chart.L == 1 for chart in decomposition.charts)


def test_global_decompose_bad_line():
    decomposition = global_decompose(BAD_LINE.system)
    assert decomposition.L == 2
    assert len(decomposition.charts) == 9
    for chart in decomposition.charts:
        assert chart.weight == Fraction(1, 3)
        assert good_reduction_test(PolySystem(3, 2, chart.constraints, chart.target))


# the chart centers certificates.json records; the first lift of each class
# mod p^2 in walk order is the class's smallest solution on both lines
BAD_LINE_CENTERS = [(0, 0), (9, 3), (18, 6), (3, 1), (12, 4), (21, 7), (6, 2), (15, 5), (24, 8)]
BAD_LINE_P5_CENTERS = [
    (0, 0), (25, 5), (50, 10), (75, 15), (100, 20),
    (5, 1), (30, 6), (55, 11), (80, 16), (105, 21),
    (10, 2), (35, 7), (60, 12), (85, 17), (110, 22),
    (15, 3), (40, 8), (65, 13), (90, 18), (115, 23),
    (20, 4), (45, 9), (70, 14), (95, 19), (120, 24),
]


@pytest.mark.parametrize(
    "instance, centers",
    [(BAD_LINE, BAD_LINE_CENTERS), (BAD_LINE_P5, BAD_LINE_P5_CENTERS)],
    ids=["bad_line", "bad_line_p5"],
)
def test_chart_centers_are_pinned(instance, centers):
    decomposition = global_decompose(instance.system)
    assert [chart.center for chart in decomposition.charts] == centers
    assert decomposition.dropped_centers == ()


@pytest.mark.parametrize(
    "instance, echelons, substitutions",
    [(BAD_LINE, 12, 18), (BAD_LINE_P5, 30, 50)],
    ids=["bad_line", "bad_line_p5"],
)
def test_each_center_is_reduced_once(monkeypatch, instance, echelons, substitutions):
    # a round at L = 1 and one at L = 2: one echelon form of the Jacobian per
    # representative (3 + 9 on bad_line, 5 + 25 on bad_line_p5), which
    # expands no polynomial, then one rescaled constraint and one transported
    # target per chart; translating each representative's constraints first
    # would add 12 and 30 substitutions
    calls = []
    echelon, substitute = smoothing.dvr_echelon, MPoly.substitute_affine

    def counting_echelon(*args):
        calls.append("echelon")
        return echelon(*args)

    def counting_substitute(*args):
        calls.append("substitute")
        return substitute(*args)

    monkeypatch.setattr(smoothing, "dvr_echelon", counting_echelon)
    monkeypatch.setattr(MPoly, "substitute_affine", counting_substitute)
    measure_charts.cache_clear()
    lifter_for.cache_clear()
    measure_charts(instance.system)
    assert calls.count("echelon") == echelons
    assert calls.count("substitute") == substitutions


def test_center_search_stops_at_first_lifts(monkeypatch):
    # enumerating every solution at accuracies 7 and 8 takes about 609 k calls
    calls = 0
    children = HenselLifter.children

    def counting(self, x, j):
        nonlocal calls
        calls += 1
        return children(self, x, j)

    monkeypatch.setattr(HenselLifter, "children", counting)
    global_decompose(BAD_LINE_P5.system)
    assert 0 < calls <= 5000


def test_center_search_work_is_pinned(monkeypatch):
    # BAD_LINE_P5's two rounds of first-lift search list 4,500 children in
    # 620 `children` calls and visit 650 of them
    from padiczeta import variety

    lists, meters = [], []
    children, meter_class = HenselLifter.children, variety.BudgetMeter

    def counting(self, x, j):
        lists.append(children(self, x, j))
        return lists[-1]

    def recording(limit, stage):
        meters.append(meter_class(limit, stage))
        return meters[-1]

    monkeypatch.setattr(HenselLifter, "children", counting)
    monkeypatch.setattr(variety, "BudgetMeter", recording)
    measure_charts.cache_clear()
    global_decompose(BAD_LINE_P5.system)
    assert (len(lists), sum(map(len, lists))) == (620, 4500)
    assert sum(meter.used for meter in meters) == 650


def test_rescale_rounds_exhausted_names_stage_and_level(monkeypatch):
    # BAD_LINE needs L = 2, so a single round ends escalating from L = 1
    monkeypatch.setattr(smoothing, "DECOMPOSE_ROUNDS", 1)
    with pytest.raises(BudgetExceeded, match=r"^chart search: .* within 1 rounds \(last L = 2\)$"):
        global_decompose(BAD_LINE.system)


def test_decomposition_counts_match_oracle():
    decomposition = global_decompose(BAD_LINE.system)
    for m in range(1, 5):
        assert decomposition.image_count(m) == len(image_oracle(BAD_LINE.system, m, 3))


def test_decomposition_counts_match_oracle_p5():
    decomposition = measure_charts(BAD_LINE_P5.system)
    assert decomposition.L == 2 and len(decomposition.charts) == 25
    for m in (1, 2, 3):
        assert decomposition.image_count(m) == len(image_oracle(BAD_LINE_P5.system, m, 3))


def test_decomposition_total_measure():
    # gamma measure of {3 x1 = 9 x2} is 3: the defining form scales by |3|
    assert tail_measure(BAD_LINE.system, 0) == 3
    assert tail_measure(LINE_X2.system, 0) == 1
    assert tail_measure(PARABOLA.system, 0) == 1


def test_measure_charts_identity_for_good_systems():
    decomposition = measure_charts(LINE_X2.system)
    assert decomposition.L == 0
    assert len(decomposition.charts) == 1
    assert decomposition.charts[0].weight == 1


def test_rescale_idempotence_on_good_points():
    # a good-reduction system rescaled at any of its residues needs only L = 1
    system = PARABOLA.system
    for x0 in [(0, 0), (1, 1), (4, 2)]:
        if system.constraints[0].evaluate(x0) % 3**8:
            continue
        cert = rescale_at_own_level(system, x0)
        assert cert.L == 1


def test_chart_consistency_resummation():
    # per-chart image counts re-sum to the deduped oracle image count exactly
    system = BAD_LINE.system
    decomposition = global_decompose(system)
    for m in (3, 4):
        per_chart = sum(
            1
            for chart in decomposition.charts
            for _ in iter_hensel_points(decomposition.lifter(chart), m - decomposition.L)
        )
        assert per_chart == len(image_oracle(system, m, 3))
