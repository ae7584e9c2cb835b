"""Exponential sums along the variety and the stationary phase formula.

The direct route sums the additive character over the reduction image of
the variety modulo p^m (the Hensel lift tree of good-reduction charts).
Its two quantities are `exponential_sum`, the image-class sum under
counting normalization, and `oscillatory_integral`, the surface integral
under chart weights.  Both take a map {m: units} and return {m: values}:
they look the chart decomposition up with `smoothing.measure_charts` and
walk each chart once, with the chart's lifter from `variety.lifter_for`,
for the deepest level any requested m needs, into exact integer
histograms of f_l mod p^m that serve every level and unit; a unit sees
only their orthogonality fold, evaluated last, so a sum that cancels
exactly is exactly 0.  The histograms are read off the classes of
`variety.value_classes`.

The formula route rebuilds the oscillatory integral, the surface
integral of Psi(z f_l) over the support, out of twisted local zeta
data: the value of the trivial-character zeta at t = 1, one coefficient
of an explicit rational function of it, and a finite character sum of
Gaussian sums against twisted zeta coefficients.  `stationary_phase_eval`
reads those coefficients once per level for all of its units.  The
stationary-phase check compares it, with one direct call for all of its
levels, with `oscillatory_integral`, or with `exponential_sum` on the
full polydisc when L = 0.  The two routes share polynomial evaluation
and the charts' lifters, but nothing of the direct side enters the shell
walks' Jacobian minors behind the twisted coefficients, which is what
makes their agreement at 1e-9 a meaningful verification.

The formula's zeta data come from one conductor scan: the scan's own
shell table, projected down to the conductor cutoff, supplies every
coefficient, so no further shell walk runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .characters import MultChar, chi_value, gauss_sum, trivial_character
from .errors import ArgumentOutOfRange, EvenPrimeUnsupported, WalkInvariantError
from .mpoly import MPoly, PolySystem
from .padic import ScaledUnit, psi_ratio
from .ratfn import PoleData
from .smoothing import measure_charts, recenter
from .support import Support
from .variety import (
    DEFAULT_BUDGET,
    BudgetMeter,
    HenselLifter,
    iter_hensel_points,
    lifter_for,
    value_classes,
)
from .zeta import ShellTable, conductor_vanishing_scan, tail_measure

SPS_TOL = 1e-9  # the largest direct-vs-formula gap a stationary-phase check passes
DECAY_SLACK = 1.5  # growth of the normalized decay that still counts as bounded


class ExpSumRecord(NamedTuple):
    m: int
    u: int
    direct: complex
    via_formula: complex


def _add_histograms(
    hists: dict[int, dict[int, int]],
    lifter: HenselLifter,
    target: MPoly,
    weight: int,
    levels: dict[int, int],
    sup: Support | None,
    budget: int,
) -> None:
    """Add weight * h_m to hists[m], h_m[r] the level-k points y in sup with target(y) = r mod p^m.

    levels maps each m to its k, and target mod p^m is a function of y
    mod p^k.  One `value_classes` walk to K = max k (meter stage `hensel
    walk m=<K>`) serves every m: it puts each settled node's level-K
    points on one class c mod p^a, evenly over its residues mod p^max(m).
    A class with a >= m lands on c mod p^m; one with a < m covers whole
    classes mod p^(m-1) evenly, so it adds 0 to every unit's fold in
    `_unit_sums` and is dropped.  Every level-k point has p^((K - k) dim)
    lifts at K, so each residue's tally, and each dropped class's share
    of a residue, divides exactly, or WalkInvariantError is raised.
    """
    p, K, M = lifter.p, max(levels.values()), max(levels)
    classes: dict[tuple[int, int], int] = {}  # (c, a) -> level-K points
    meter = BudgetMeter(budget, f"hensel walk m={K}")
    for c, a, hits in value_classes(lifter, K, target, M, sup, meter):
        classes[c, a] = classes.get((c, a), 0) + hits * p ** (M - a)
    for m, k in levels.items():
        lifts, tally, hist = p ** ((K - k) * lifter.dim), {}, hists[m]

        def check(count: int, where: str) -> None:
            if count % lifts:
                raise WalkInvariantError(
                    f"{count} level-{K} points over {where} mod p^{m}: not classes of {lifts} lifts"
                )

        for (c, a), points in classes.items():
            if a >= m:
                tally[c % p**m] = tally.get(c % p**m, 0) + points
            else:  # the same share on each of its p^(m - a) residues
                check(points // p ** (m - a), f"each r = {c} mod p^{a}")
        for r, count in tally.items():
            check(count, str(r))
            hist[r] = hist.get(r, 0) + weight * (count // lifts)


def _unit_sums(
    hist: dict[int, int], p: int, m: int, units: Sequence[int], scale: int
) -> list[complex]:
    """sum over r mod p^m of hist[r] Psi(u r / p^m) / scale, for every unit u in units.

    The phases of a unit over the p residues of one class mod p^(m-1)
    sum to 0, so a unit only sees the exact integer fold h'[r] = p hist[r]
    - (the total of r's class), over p, which vanishes wherever a class
    is spread evenly.  Each sum runs over the nonzero h' in increasing r,
    and each phase Psi(x / p^m) is computed once for all units.
    """
    if m == 0:  # every phase is Psi(0) = 1
        return [complex(sum(hist.values())) / scale for _ in units]
    fibre, modulus, totals = p ** (m - 1), p**m, {}
    for r, count in hist.items():
        totals[r % fibre] = totals.get(r % fibre, 0) + count
    terms = sorted(
        (r, p * hist.get(r, 0) - total)
        for base, total in totals.items()
        for r in range(base, modulus, fibre)
        if p * hist.get(r, 0) != total
    )
    phases = {x: psi_ratio(x, p, m) for x in {u * r % modulus for u in units for r, _ in terms}}
    return [sum((h * phases[u * r % modulus] for r, h in terms), 0j) / (p * scale) for u in units]


def _direct_sums(
    system: PolySystem,
    units: dict[int, Sequence[int]],
    weighted: bool,
    support: Support | None,
    budget: int,
) -> dict[int, list[complex]]:
    """The direct sums for every level m in units and every unit in units[m], in order.

    Unweighted (on the full polydisc): E(u p^-m), p^(-m dim) times the
    sum of Psi(u f_l(x) / p^m) over the image classes x mod p^m, which
    are the chart centers when m <= L and the charts' level-(m - L)
    points past it.  Weighted: the oscillatory surface integral of
    Psi(u p^-m f_l) over the support, the sum over the charts it meets of
    chart.weight * p^(-k dim) * the character sum over the chart's
    level-k points in it, k = max(m - L, the support's chart level, 1).
    Each chart is walked once into exact integer histograms of f_l mod
    p^m for every level, from which `_unit_sums` evaluates each
    `ScaledUnit`.
    """
    p, n, dim = system.p, system.n, system.dim
    if min(units, default=1) < 1:
        raise ArgumentOutOfRange("m must be >= 1")
    units = {m: [ScaledUnit(p, m, u).u for u in us] for m, us in units.items()}
    decomposition = measure_charts(system, budget)
    L = decomposition.L
    hists: dict[int, dict[int, int]] = {m: {} for m in units}
    if weighted:
        levels = {m: max(m - L, support.level - L if support else 0, 1) for m in units}
        scales = {m: p ** (L * n + k * dim) for m, k in levels.items()}
    else:
        levels = {m: m - L for m in units if m > L}
        scales = {m: p ** (m * dim) for m in units}
        for m in sorted(set(units) - set(levels)):  # the image classes are chart centers
            for x in decomposition.classes(m):
                value = system.target.evaluate(x, p**m)
                hists[m][value] = hists[m].get(value, 0) + 1
    for chart in decomposition.charts if levels else ():
        meets, sup = decomposition.restrict(chart, support)
        if meets:  # chart.weight * p^(L n) = p^(sum e)
            weight = int(chart.weight * p ** (L * n)) if weighted else 1
            lifter = decomposition.lifter(chart, budget)
            _add_histograms(hists, lifter, chart.target, weight, levels, sup, budget)
    return {m: _unit_sums(hists[m], p, m, us, scales[m]) for m, us in units.items()}


def exponential_sum(
    system: PolySystem, units: dict[int, Sequence[int]], budget: int = DEFAULT_BUDGET
) -> dict[int, list[complex]]:
    """E(u p^-m) for every level m in units and every u in units[m], in order.

    The image-class sum under counting normalization: p^(-m dim) times
    the sum of Psi(u f_l(x) / p^m) over the classes x mod p^m of the
    variety's reduction image.
    """
    return _direct_sums(system, units, False, None, budget)


def oscillatory_integral(
    system: PolySystem,
    units: dict[int, Sequence[int]],
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict[int, list[complex]]:
    """The surface integral of Psi(u p^-m f_l) over the support, for every m and u in units[m].

    Each chart counts with its weight; for the full polydisc on a
    good-reduction system it is the exponential sum E(u p^-m).
    """
    return _direct_sums(system, units, True, support, budget)


# -- stationary phase ------------------------------------------------------------


class StationaryPhaseContext(NamedTuple):
    """Precomputed zeta data needed to evaluate exponential sums by formula.

    Holds the exact shell-measure table, the total surface mass (the
    value of the trivial-character zeta at t = 1: the target vanishes on
    a measure-zero subset of the variety, so the shell masses sum to the
    whole measure), the twisted characters up to the verified conductor
    cutoff, and the Gaussian sums of their inverses.
    """

    system: PolySystem
    table: ShellTable
    total_mass: Fraction
    twisted: tuple[tuple[MultChar, complex], ...]  # (chi, gauss_sum(chi^-1))
    cutoff: int


def build_stationary_phase_context(
    system: PolySystem,
    depth: int = 6,
    c_max: int = 2,
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> StationaryPhaseContext:
    """Scan characters, keep the scan's shell table, and measure the support.

    The character sum in the formula is truncated at the empirical
    conductor cutoff, which the conductor scan verifies with a guard
    margin of at least one level (escalating from c_max as needed); the
    scan's table, projected to the cutoff level, holds every coefficient
    the formula reads.  The total surface mass Z(0, triv) is taken
    directly, as `tail_measure` at m = 0.
    """
    if system.p == 2:
        raise EvenPrimeUnsupported(
            "the formula route needs twisted characters, which are not "
            "supported for p = 2; direct exponential sums remain available"
        )
    scan = conductor_vanishing_scan(system, c_max, depth, support=support, budget=budget)
    twisted = [(chi, gauss_sum(chi.inverse())) for chi in scan.nonzero]
    total_mass = tail_measure(system, 0, support=support, budget=budget)
    return StationaryPhaseContext(
        system=system,
        table=scan.table.project(max(scan.cutoff, 1)),
        total_mass=total_mass,
        twisted=tuple(twisted),
        cutoff=scan.cutoff,
    )


def stationary_phase_eval(
    ctx: StationaryPhaseContext, m: int, units: Sequence[int]
) -> list[complex]:
    """Evaluate the exponential sum at level m through zeta coefficients and Gauss sums.

    value(u) = Z(0, triv)
             + Coeff_{t^(m-1)} (t - q) Z(s, triv) / ((q - 1)(1 - t))
             + sum over nontrivial chi of g_{chi^-1} chi(u)
               Coeff_{t^(m - c(chi))} Z(s, chi),

    one value per unit in units, in order.  Z(0, triv) is the total
    surface mass.  The kernel (t - q)/((q-1)(1-t)) has series
    coefficients h_0 = -q/(q-1) and h_j = -1 for j >= 1, so the middle
    term is an explicit finite sum of trivial coefficients.  Only chi(u)
    depends on the unit: the middle term and each twisted coefficient are
    read once for the level.
    """
    q, trivial = ctx.system.p, trivial_character(ctx.system.p)
    coeffs = [ctx.table.coefficient_extrapolated(trivial, k) for k in range(m)]
    middle = Fraction(-q, q - 1) * coeffs[m - 1] - sum(coeffs[: m - 1], Fraction(0))
    base = complex(float(ctx.total_mass)) + float(middle)
    terms = []
    for chi, g_inv in ctx.twisted:
        if m >= chi.conductor:
            coeff = ctx.table.coefficient_extrapolated(chi, m - chi.conductor)
            if isinstance(coeff, Fraction):
                coeff = complex(float(coeff))
            terms.append((chi, g_inv, coeff))
    values = []
    for u in units:
        value = base
        for chi, g_inv, coeff in terms:
            value += g_inv * chi_value(chi, u) * coeff
        values.append(value)
    return values


class StationaryPhaseReport(NamedTuple):
    records: tuple[ExpSumRecord, ...]
    max_discrepancy: float

    def passed(self) -> bool:
        return self.max_discrepancy < SPS_TOL


def stationary_phase_check(
    system: PolySystem,
    m_values: Sequence[int],
    c_cap: int = 2,
    depth: int | None = None,
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> StationaryPhaseReport:
    """Cross-validate direct exponential sums against the formula route.

    For every m the unit classes u run modulo p^min(m, c_cap); the
    report carries the worst absolute discrepancy over all (m, u).  The
    formula computes the surface integral of Psi(z f_l) over the
    support, so that is what the direct side evaluates whenever it can
    differ from the counting-normalized exponential sum: on a restricted
    support, and on a decomposition with L > 0, whose chart weights
    transport the measure.  Otherwise the direct side is the plain
    exponential sum.  One direct call serves every level.  The formula
    consumes coefficients only up to max(m) - 1, so the default table
    depth is max(m).
    """
    context = build_stationary_phase_context(
        system,
        depth=max(m_values) if depth is None else depth,
        c_max=c_cap,
        support=support,
        budget=budget,
    )
    p = system.p
    units = {m: [u for u in range(1, p ** min(m, c_cap)) if u % p] for m in m_values}
    if measure_charts(system, budget).L > 0 or support is not None:
        direct = oscillatory_integral(system, units, support, budget)
    else:
        direct = exponential_sum(system, units, budget)
    records = []
    worst = 0.0
    for m in m_values:
        formulas = stationary_phase_eval(context, m, units[m])
        for u, value, formula in zip(units[m], direct[m], formulas):
            worst = max(worst, abs(value - formula))
            records.append(ExpSumRecord(m=m, u=u, direct=value, via_formula=formula))
    return StationaryPhaseReport(records=tuple(records), max_discrepancy=worst)


# -- decay reporting ---------------------------------------------------------------


class DecayRow(NamedTuple):
    m: int
    abs_value: float
    normalized: float


class DecayReport(NamedTuple):
    rows: tuple[DecayRow, ...]
    verdict: str  # "Bounded" or "Inconclusive"


def decay_report(
    system: PolySystem,
    m_values: Sequence[int],
    pole: PoleData,
    budget: int = DEFAULT_BUDGET,
) -> DecayReport:
    """Normalize |E(p^-m)| by the predicted decay p^(-rho m) m^(m_rho - 1).

    The verdict is Bounded when the running maximum over the upper half
    of the m range does not exceed the lower-half maximum by more than
    the factor DECAY_SLACK.
    """
    sums = exponential_sum(system, {m: [1] for m in m_values}, budget)
    rows = []
    for m in m_values:
        value = abs(sums[m][0])
        scale = system.p ** (pole.rho * m) / m ** (pole.m_rho - 1)
        rows.append(DecayRow(m=m, abs_value=value, normalized=value * scale))
    floor = 1e-12  # normalized values below this are floating zeros
    half = len(rows) // 2
    lower = max((r.normalized for r in rows[:half] if r.normalized > floor), default=0.0)
    upper = max((r.normalized for r in rows[half:] if r.normalized > floor), default=0.0)
    if upper == 0.0:
        verdict = "Bounded"
    elif lower == 0.0:
        verdict = "Inconclusive"
    else:
        verdict = "Bounded" if upper <= DECAY_SLACK * lower else "Inconclusive"
    return DecayReport(rows=tuple(rows), verdict=verdict)


# -- decomposition identity (two-route check under bad reduction) -------------------


class DecompositionIdentityRow(NamedTuple):
    m: int
    lhs: complex
    rhs: complex

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def decomposed_expsum_check(
    system: PolySystem,
    m_values: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> list[DecompositionIdentityRow]:
    """Check p^(m dim) E(p^-m) against its chart-by-chart splitting.

    The right side lifts each chart center to an accurate variety point,
    splits the target into its value at the center plus the rescaled
    remainder, and multiplies the two additive-character factors; the
    left side is the plain image sum.  Requires m > L.
    """
    decomposition = measure_charts(system, budget)
    p, dim = system.p, system.dim
    L = decomposition.L
    if min(m_values) <= L:
        raise ArgumentOutOfRange(f"identity needs m > L = {L}")
    sums = exponential_sum(system, {m: [1] for m in m_values}, budget)
    rows = []
    for m in m_values:
        lhs = sums[m][0] * p ** (m * dim)
        rhs = 0.0 + 0.0j
        for chart in decomposition.charts:
            # the first point of the walk: the smallest-digit lift of the first root
            y_lift = next(iter_hensel_points(decomposition.lifter(chart, budget), m, budget))
            x_rep = tuple(c + p**chart.L * y for c, y in zip(chart.center, y_lift))
            # chart variety relative to the accurate representative
            const, e_l, rep_system = recenter(system, chart, x_rep)
            lifter = lifter_for(p, system.n, rep_system.constraints, budget)
            # Psi(p^(e_l - L) g / p^k) = Psi(g / p^level) over the level-k points
            k = m - chart.L
            level = max(m - e_l, 0)
            hist: dict[int, dict[int, int]] = {level: {}}
            _add_histograms(hist, lifter, rep_system.target, 1, {level: k}, None, budget)
            rhs += psi_ratio(const, p, m) * _unit_sums(hist[level], p, level, [1], 1)[0]
        rows.append(DecompositionIdentityRow(m=m, lhs=lhs, rhs=rhs))
    return rows
