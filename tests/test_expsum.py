"""Tests for exponential sums, the formula route, decay, and decompositions."""

import math
from pathlib import Path

import pytest

import padiczeta.expsum as expsum
from padiczeta.bundled import (
    BAD_LINE,
    LINE_X1,
    LINE_X2,
    LINE_X2_P5,
    LINE_X3,
    PARABOLA,
    PLANE_LINE,
    THREEVAR,
)
from padiczeta.cli import main
from padiczeta.errors import ArgumentOutOfRange, EvenPrimeUnsupported, WalkInvariantError
from padiczeta.expsum import (
    build_stationary_phase_context,
    decay_report,
    decomposed_expsum_check,
    direct_sums,
    exponential_sum,
    oscillatory_integral,
    stationary_phase_check,
    stationary_phase_eval,
)
from padiczeta.mpoly import parse_polynomial, system_from_strings
from padiczeta.padic import psi_ratio
from padiczeta.ratfn import pole_data_from_resolution
from padiczeta.smoothing import measure_charts
from padiczeta.support import Support
from padiczeta.variety import lifter_for


def brute_expsum(system, m, u):
    """Oracle: enumerate congruence solutions directly (good reduction)."""
    from padiczeta.variety import brute_force_points

    _, points = brute_force_points(system, m, collect=True)
    modulus = system.p**m
    total = sum(psi_ratio(u * system.target.evaluate(x, modulus), system.p, m) for x in points)
    return total / system.p ** (m * system.dim)


def test_exponential_sum_x1_line_vanishes():
    # x1 takes every residue evenly on the image, so the orthogonality fold
    # leaves no term and the sum is exactly 0
    assert exponential_sum(LINE_X1.system, 1, [1])[0] == 0


def test_exponential_sum_x2_line_values():
    (value,) = exponential_sum(LINE_X2.system, 1, [1])
    assert abs(value - 1j / math.sqrt(3)) < 1e-12
    (value,) = exponential_sum(LINE_X2.system, 2, [1])
    assert abs(value - 1 / 3) < 1e-12


@pytest.mark.parametrize("instance", [LINE_X2, LINE_X3, PLANE_LINE], ids=lambda i: i.name)
def test_exponential_sum_matches_brute_oracle(instance):
    for m in (1, 2, 3):
        for u, direct in zip((1, 2), exponential_sum(instance.system, m, [1, 2])):
            oracle = brute_expsum(instance.system, m, u)
            assert abs(direct - oracle) < 1e-12


def test_unit_class_equivariance():
    # E depends on u only through u mod p^m
    system = LINE_X2.system
    for m in (1, 2, 3):
        base, lifted = exponential_sum(system, m, [2, 2 + 3**m])
        assert abs(base - lifted) < 1e-12


def test_crude_bound_holds():
    # |E(u p^-m)| <= p^(l - 1), trivially
    for instance in (LINE_X2, LINE_X3, BAD_LINE, PLANE_LINE):
        bound = instance.system.p ** (instance.system.l - 1)
        for m in (1, 2, 3):
            assert abs(exponential_sum(instance.system, m, [1])[0]) <= bound + 1e-9


def test_stationary_phase_x2_hand_value():
    ctx = build_stationary_phase_context(LINE_X2.system, depth=6)
    formula = stationary_phase_eval(ctx, 1, 1)
    assert abs(formula - 1j / math.sqrt(3)) < 1e-12


@pytest.mark.parametrize(
    "instance", [LINE_X1, LINE_X2, LINE_X3, PARABOLA, PLANE_LINE], ids=lambda i: i.name
)
def test_stationary_phase_identity(instance):
    report = stationary_phase_check(instance.system, [1, 2, 3, 4, 5], depth=6)
    assert report.max_discrepancy < 1e-9


def test_stationary_phase_extrapolated_coefficients():
    # m beyond the table depth exercises the class-function reconstruction
    ctx = build_stationary_phase_context(LINE_X2.system, depth=6)
    for m in (7, 8):
        (direct,) = exponential_sum(LINE_X2.system, m, [1])
        formula = stationary_phase_eval(ctx, m, 1)
        assert abs(direct - formula) < 1e-9


def test_stationary_phase_rejects_p2():
    system = system_from_strings(2, 2, ["x1"], "x2^2")
    with pytest.raises(EvenPrimeUnsupported):
        build_stationary_phase_context(system)


def test_stationary_phase_cross_prime():
    report = stationary_phase_check(LINE_X2_P5.system, [1, 2, 3])
    assert report.max_discrepancy < 1e-9


def test_mutated_gauss_sum_breaks_identity():
    # falsification path: rescaling one Gaussian sum must leave a visible gap
    ctx = build_stationary_phase_context(LINE_X2.system, depth=6)
    mutated = ctx
    mutated.twisted = tuple((chi, g * 3) for chi, g in ctx.twisted)
    worst = 0.0
    for m in (1, 2, 3):
        (direct,) = exponential_sum(LINE_X2.system, m, [1])
        worst = max(worst, abs(direct - stationary_phase_eval(mutated, m, 1)))
    assert worst > 0.1


def test_exact_decay_x2_line():
    for m in range(1, 7):
        for value in exponential_sum(LINE_X2.system, m, [1, 2]):
            assert abs(abs(value) - 3 ** (-m / 2)) < 1e-9


def test_decay_report_normalized_is_one():
    pole = pole_data_from_resolution([(2, 1)], 3)
    report = decay_report(LINE_X2.system, list(range(1, 9)), pole)
    assert report.verdict == "Bounded"
    for row in report.rows:
        assert abs(row.normalized - 1.0) < 1e-9


def test_decay_report_x1_line_trivially_bounded():
    pole = pole_data_from_resolution([(1, 1)], 3)
    report = decay_report(LINE_X1.system, list(range(1, 7)), pole)
    assert report.verdict == "Bounded"
    assert all(row.abs_value < 1e-12 for row in report.rows)


def test_decay_report_x3_line():
    pole = pole_data_from_resolution([(3, 1)], 3)
    report = decay_report(LINE_X3.system, list(range(1, 9)), pole)
    assert report.verdict == "Bounded"


def test_oscillatory_integral_full_polydisc_equals_expsum():
    system = LINE_X2.system
    for m in (1, 2, 3):
        (surface,) = oscillatory_integral(system, m, [1])
        assert abs(surface - exponential_sum(system, m, [1])[0]) < 1e-12


def test_oscillatory_integral_single_coset():
    # one coset of (3 Z_3)^2 around (0, 1): the unit shell contributes alone,
    # oracle = psi-weighted measure of {x2 = 1 mod 3} on the line
    system = LINE_X2.system
    support = Support.cosets(2, 1, [[0, 1]], 3)
    (value,) = oscillatory_integral(system, 2, [1], support=support)
    oracle = sum(psi_ratio(x2 * x2, 3, 2) for x2 in range(1, 9, 3)) / 9
    assert abs(value - oracle) < 1e-12


def test_oscillatory_integral_empty_support():
    system = LINE_X2.system
    support = Support.cosets(2, 1, [[1, 0]], 3)  # misses the variety x1 = 0
    assert abs(oscillatory_integral(system, 1, [1], support=support)[0]) < 1e-12
    with pytest.raises(ArgumentOutOfRange):
        Support.cosets(2, 1, [], 3)  # an empty union of cosets is no support


def test_decomposition_identity_bad_line():
    decomposition = measure_charts(BAD_LINE.system)
    L = decomposition.L
    rows = decomposed_expsum_check(BAD_LINE.system, [L + 1, L + 2, L + 3])
    for row in rows:
        assert row.gap < 1e-9


def test_decomposition_identity_good_instance():
    rows = decomposed_expsum_check(LINE_X2.system, [1, 2, 3])
    for row in rows:
        assert row.gap < 1e-9


def test_histograms_refuse_a_level_the_target_outruns():
    # x2 mod 9 is no function of x2 mod 3: the level-3 points fall 3 to a
    # residue, not in whole level-1 classes of 9 lifts
    lifter, target = lifter_for(3, 2, LINE_X2.system.constraints), parse_polynomial("x2", 2)
    with pytest.raises(WalkInvariantError, match="not classes of 9 lifts"):
        expsum._add_histograms({2: {}, 3: {}}, lifter, target, 1, {2: 1, 3: 3}, None, 10**4)


def _count_walks(monkeypatch):
    walks = []  # the depth of every chart walk the direct sums start
    classes = expsum.value_classes

    def counting(lifter, depth, *args, **kwargs):
        walks.append(depth)
        return classes(lifter, depth, *args, **kwargs)

    monkeypatch.setattr(expsum, "value_classes", counting)
    return walks


def test_one_walk_per_level_serves_every_unit(monkeypatch):
    walks = _count_walks(monkeypatch)
    # one chart, m = 1..5: 4 + 4 * 20 units, so 84 walks at one per (m, u)
    report = stationary_phase_check(LINE_X2_P5.system, [1, 2, 3, 4, 5])
    assert len(report.records) == 84 and report.passed()
    assert walks == [1, 2, 3, 4, 5]

    # weighted sums at L = 2: every m walks each chart the support meets once
    walks.clear()
    support = Support.cosets(2, 1, [(0, 0), (1, 1)], 3)
    decomposition = measure_charts(BAD_LINE.system)
    met = sum(decomposition.restrict(chart, support)[0] for chart in decomposition.charts)
    assert 0 < met < len(decomposition.charts)
    report = stationary_phase_check(BAD_LINE.system, [1, 2, 3, 4], support=support)
    assert report.passed()
    assert len(walks) == 4 * met


def test_one_walk_per_chart_serves_every_level_and_unit(monkeypatch, tmp_path):
    walks = _count_walks(monkeypatch)
    # one chart, m = 1..5: 4 + 4 * 20 (m, u) pairs from one walk to level 5
    units = {m: [u for u in range(1, 5 ** min(m, 2)) if u % 5] for m in range(1, 6)}
    sums = direct_sums(LINE_X2_P5.system, units, True)
    assert sum(map(len, sums.values())) == 84
    assert walks == [5]

    # weighted sums at L = 2: one walk per chart the support meets, to the
    # level 4 - L that m = 4 needs
    walks.clear()
    support = Support.cosets(2, 1, [(0, 0), (1, 1)], 3)
    decomposition = measure_charts(BAD_LINE.system)
    met = sum(decomposition.restrict(chart, support)[0] for chart in decomposition.charts)
    direct_sums(BAD_LINE.system, {m: [1, 2] for m in range(1, 5)}, True, support)
    assert walks == [2] * met

    # `expsum` on line_x2 (max_level 5): one walk for every m
    walks.clear()
    spec = Path(__file__).resolve().parents[1] / "scripts" / "specs" / "line_x2.json"
    assert main(["expsum", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    assert walks == [5]


def test_direct_sums_settle_subtrees_by_slope(monkeypatch):
    # a chart walk to level K at precision M = K descends only the nodes
    # whose target slope is 0 mod p^j while 2j < M (the targets x2^2 and
    # x2^2 + x3^3 have s = 0), and every other node settles its subtree on
    # one class of values.  LINE_X2_P5 (5 roots, 5 lifts per node): the
    # slope 2 x2 is 0 mod 5^j only at x2 = 0 mod 5^j, so one walk per m =
    # 1..5 descends 0 mod 5^j for j < m / 2: 5 + 5 + 10 + 10 + 15 = 50
    # nodes, where the walks to half depth cost 225 and walking to K 4,875.
    # THREEVAR (9 roots, 9 lifts per node) at m = 1..3: only the walk to 3
    # descends its 3 roots with x2 = 0: 9 + 9 + 36, was 108.  One walk to
    # M = 10 for LINE_X2_P5 descends 0 mod 5^j for j <= 4 and so visits the
    # 5 nodes of each of the levels 1 to 5: 25 nodes, was 3,905
    meters = []
    meter_class = expsum.BudgetMeter

    def recording(limit, stage):
        meter = meter_class(limit, stage)
        meters.append(meter)
        return meter

    monkeypatch.setattr(expsum, "BudgetMeter", recording)
    for system, m_values, used in (
        (LINE_X2_P5.system, [1, 2, 3, 4, 5], [5, 5, 10, 10, 15]),
        (THREEVAR.system, [1, 2, 3], [9, 9, 36]),
    ):
        meters.clear()
        assert stationary_phase_check(system, m_values).passed()
        walks = [meter for meter in meters if meter.stage.startswith("hensel walk")]
        assert [meter.stage for meter in walks] == [f"hensel walk m={m}" for m in m_values]
        assert [meter.used for meter in walks] == used
    meters.clear()
    direct_sums(LINE_X2_P5.system, {m: [1] for m in range(1, 11)}, False)
    assert [(meter.stage, meter.used) for meter in meters] == [("hensel walk m=10", 25)]
