"""Exponential sums along the variety and the stationary phase formula.

The direct route sums the additive character over the reduction image of
the variety modulo p^m (Hensel enumeration on good-reduction charts).
Both the exponential sum and the oscillatory integral look the chart
decomposition up with `smoothing.measure_charts(system, budget)` and add
up one per-chart character sum, walked with the chart's lifter from
`variety.lifter_for`.  The image and the target on it do not depend on
the unit u, so one walk per (m, chart) serves a whole list of units:
each point's target value is computed once, and each unit's phase is
looked up by its residue mod p^m.  Every unit's total still receives
its terms in walk order, chart by chart, from the same psi_ratio on the
same reduced argument, so a batched value is bit-identical to the value
of a one-unit call.

The formula route rebuilds the oscillatory integral, the surface
integral of Psi(z f_l) over the support, out of twisted local zeta
data: the value of the trivial-character zeta at t = 1, one coefficient
of an explicit rational function of it, and a finite character sum of
Gaussian sums against twisted zeta coefficients.  The stationary-phase
check compares it with `oscillatory_integral`, or with the exponential
sum where the two coincide (full polydisc, L = 0).  The two routes share
no code beyond polynomial evaluation, which is what makes their
agreement at 1e-9 a meaningful verification.

The formula's zeta data come from one conductor scan: the scan's own
shell table, projected down to the conductor cutoff, supplies every
coefficient, so no further shell walk runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .characters import MultChar, chi_value, gauss_sum, trivial_character
from .errors import EvenPrimeUnsupported
from .mpoly import MPoly, PolySystem
from .padic import ScaledUnit, psi_ratio
from .ratfn import PoleData
from .smoothing import measure_charts, recenter
from .support import Support
from .variety import DEFAULT_BUDGET, HenselLifter, iter_hensel_points, lifter_for
from .zeta import ShellTable, conductor_vanishing_scan, tail_measure

SPS_TOL = 1e-9  # the largest direct-vs-formula gap a stationary-phase check passes
DECAY_SLACK = 1.5  # growth of the normalized decay that still counts as bounded


class ExpSumRecord(NamedTuple):
    m: int
    u: int
    direct: complex
    via_formula: complex | None


class _Phases(dict):
    """Psi(r / p^m) by residue r mod p^m, each computed once by psi_ratio."""

    def __init__(self, p: int, m: int):
        super().__init__()
        self.p, self.m = p, m

    def __missing__(self, r: int) -> complex:
        phase = self[r] = psi_ratio(r, self.p, self.m)
        return phase


def _add_phases(
    totals: list[complex],
    lifter: HenselLifter,
    target: MPoly,
    k: int,
    units: Sequence[int],
    phases: _Phases,
    sup: Support | None,
    budget: int,
) -> None:
    """Add Psi(u target(y) / p^m) to totals[i], u = units[i], over the level-k points y in sup.

    m is phases.m.  One walk serves every unit: target(y) mod p^m is
    evaluated once per point, and each unit's phase is looked up by the
    residue u target(y) mod p^m, the argument a walk per unit would hand
    psi_ratio; the memo is shared by the charts of one m.  Each
    total receives its terms one by one in walk order, so a caller that
    threads the totals through every chart sums each unit in the same
    order, and to the same bits, as a walk per unit would.
    """
    modulus = lifter.p**phases.m
    for y in iter_hensel_points(lifter, k, budget, sup):
        value = target.evaluate(y, modulus)
        for i, u in enumerate(units):
            totals[i] += phases[u * value % modulus]


def exponential_sum(
    system: PolySystem,
    m: int,
    units: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> list[complex]:
    """E(u p^-m) for every u in units: normalized character sums over the reduction image.

    E = p^(-m dim) * sum over image classes x mod p^m of
    Psi(u f_l(x) / p^m); the summand only depends on the class, and the
    image is enumerated chart by chart (each image class belongs to
    exactly one chart coset).  The image and f_l on it do not depend on
    u, so one walk per chart (one pass over the chart centers when
    m <= L) serves all units.  The values come back in the order of
    units, each bit-identical to the value of the one-unit call [u].
    """
    p = system.p
    if any(u % p == 0 for u in units):
        raise ValueError("u must be a unit")
    if m < 1:
        raise ValueError("m must be >= 1")
    decomposition = measure_charts(system, budget)
    totals = [0.0 + 0.0j] * len(units)
    phases = _Phases(p, m)
    if m <= decomposition.L:
        modulus = p**m
        for key in decomposition.classes(m):
            value = system.target.evaluate(key, modulus)
            for i, u in enumerate(units):
                totals[i] += phases[u * value % modulus]
    else:
        for chart in decomposition.charts:
            lifter = decomposition.lifter(chart, budget)
            _add_phases(totals, lifter, chart.target, m - chart.L, units, phases, None, budget)
    scale = p ** (m * system.dim)
    return [total / scale for total in totals]


def oscillatory_integral(
    system: PolySystem,
    m: int,
    units: Sequence[int],
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[complex]:
    """The oscillatory surface integral of Psi(u p^-m f_l) over the support, for every u in units.

    Computed as a weighted character sum over the good-reduction charts
    the support meets, one walk per chart for all units.  Each unit is
    checked and reduced mod p^m as a `ScaledUnit`.  The values come back
    in the order of units, each bit-identical to the value of the
    one-unit call [u].  For the full polydisc on a good-reduction system
    this coincides with the exponential sum E(u p^-m).
    """
    p, dim = system.p, system.dim
    units = [ScaledUnit(p, m, u).u for u in units]
    decomposition = measure_charts(system, budget)
    totals = [0.0 + 0.0j] * len(units)
    phases = _Phases(p, m)
    for chart in decomposition.charts:
        meets, sup = decomposition.restrict(chart, support)
        if not meets:
            continue
        k = max(m - chart.L, sup.level if sup else 0, 1)
        lifter = decomposition.lifter(chart, budget)
        partials = [0.0 + 0.0j] * len(units)
        _add_phases(partials, lifter, chart.target, k, units, phases, sup, budget)
        for i, partial in enumerate(partials):
            totals[i] += float(chart.weight) * partial / p ** (k * dim)
    return totals


# -- stationary phase ------------------------------------------------------------


class StationaryPhaseContext:
    """Precomputed zeta data needed to evaluate exponential sums by formula.

    Holds the exact shell-measure table, the total surface mass (the
    value of the trivial-character zeta at t = 1: the target vanishes on
    a measure-zero subset of the variety, so the shell masses sum to the
    whole measure), the twisted characters up to the verified conductor
    cutoff, and the Gaussian sums of their inverses.
    """

    __slots__ = ("system", "table", "total_mass", "twisted", "cutoff")

    def __init__(
        self,
        system: PolySystem,
        table: ShellTable,
        total_mass: Fraction,
        twisted: tuple[tuple[MultChar, complex], ...],  # (chi, gauss_sum(chi^-1))
        cutoff: int,
    ):
        self.system = system
        self.table = table
        self.total_mass = total_mass
        self.twisted = twisted
        self.cutoff = cutoff


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


def stationary_phase_eval(ctx: StationaryPhaseContext, m: int, u: int) -> complex:
    """Evaluate the exponential sum through zeta coefficients and Gauss sums.

    value = Z(0, triv)
          + Coeff_{t^(m-1)} (t - q) Z(s, triv) / ((q - 1)(1 - t))
          + sum over nontrivial chi of g_{chi^-1} chi(u)
            Coeff_{t^(m - c(chi))} Z(s, chi).

    Z(0, triv) is the total surface mass; the kernel (t - q)/((q-1)(1-t))
    has series coefficients h_0 = -q/(q-1) and h_j = -1 for j >= 1, so
    the middle term is an explicit finite sum of trivial coefficients.
    """
    q = ctx.system.p
    value = complex(float(ctx.total_mass))
    trivial = trivial_character(q)
    coeffs = [ctx.table.coefficient_extrapolated(trivial, k) for k in range(m)]
    middle = Fraction(-q, q - 1) * coeffs[m - 1] - sum(coeffs[: m - 1], Fraction(0))
    value += float(middle)
    for chi, g_inv in ctx.twisted:
        k = m - chi.conductor
        if k < 0:
            continue
        coeff = ctx.table.coefficient_extrapolated(chi, k)
        if isinstance(coeff, Fraction):
            coeff = complex(float(coeff))
        value += g_inv * chi_value(chi, u) * coeff
    return value


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
    exponential sum.  The formula consumes coefficients only up to
    max(m) - 1, so the default table depth is max(m).
    """
    context = build_stationary_phase_context(
        system,
        depth=max(m_values) if depth is None else depth,
        c_max=c_cap,
        support=support,
        budget=budget,
    )
    p = system.p
    weighted = measure_charts(system, budget).L > 0 or support is not None
    records = []
    worst = 0.0
    for m in m_values:
        units = [u for u in range(1, p ** min(m, c_cap)) if u % p]
        if weighted:
            values = oscillatory_integral(system, m, units, support, budget)
        else:
            values = exponential_sum(system, m, units, budget)
        for u, direct in zip(units, values):
            formula = stationary_phase_eval(context, m, u)
            gap = abs(direct - formula)
            worst = max(worst, gap)
            records.append(ExpSumRecord(m=m, u=u, direct=direct, via_formula=formula))
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
    rows = []
    for m in m_values:
        value = abs(exponential_sum(system, m, [1], budget)[0])
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
    rows = []
    for m in m_values:
        if m <= L:
            raise ValueError(f"identity needs m > L = {L}")
        direct = exponential_sum(system, m, [1], budget)[0]
        lhs = direct * p ** (m * dim)
        rhs = 0.0 + 0.0j
        for chart in decomposition.charts:
            # the first point of the walk: the smallest-digit lift of the first root
            y_lift = next(iter_hensel_points(decomposition.lifter(chart, budget), m, budget))
            x_rep = tuple(c + p**chart.L * y for c, y in zip(chart.center, y_lift))
            # chart variety relative to the accurate representative
            const, e_l, rep_system = recenter(system, chart, x_rep)
            lifter = lifter_for(p, system.n, rep_system.constraints, budget)
            scaled_u = p ** (e_l - chart.L)
            k = m - chart.L
            inner = [0.0 + 0.0j]
            _add_phases(inner, lifter, rep_system.target, k, [scaled_u], _Phases(p, k), None, budget)
            rhs += psi_ratio(const, p, m) * inner[0]
        rows.append(DecompositionIdentityRow(m=m, lhs=lhs, rhs=rhs))
    return rows
