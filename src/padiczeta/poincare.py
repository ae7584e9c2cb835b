"""Solution counts along the variety, their Poincare series, and bounds.

N_m counts the image classes mod p^m of variety points at which the
target vanishes mod p^m (N_0 = 1 by convention).  Under good reduction
this is the plain count of simultaneous congruence solutions of all l
polynomials; in general the image is walked chart by chart, over the
decomposition `smoothing.measure_charts(system, budget)` caches.  One
`variety.value_classes` walk per chart to the deepest level asked for
counts every level on the way, and serves both `congruence_counts` and
the solvability and direct counts of the decomposed recount.  No count
reads Jacobian minors, so the counts stay independent of the shell walks.
The scaled generating function sum q^(-m dim) N_m t^m is reconstructed
as an exact rational function and checked against the trivial-character
zeta through the identity P(t) (1 - t) + t Z(t) = 1 (good reduction),
plus a chart-decomposed recount valid past a finite threshold in
general.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ArgumentOutOfRange, InvariantViolated, NoRecurrenceFound, ValidationFailed
from .errors import WalkInvariantError
from .mpoly import PolySystem
from .ratfn import PoleData, RationalFn, reconstruct_rational
from .smoothing import Decomposition, measure_charts, recenter
from .variety import (
    DEFAULT_BUDGET,
    BudgetMeter,
    iter_congruence_points,
    lifter_for,
    zero_counts,
)


def _chart_tallies(decomposition: Decomposition, k: int, meter: BudgetMeter) -> list[list[int]]:
    """Per chart, tally[j]: its level-j nodes where the target is 0 mod p^(L + j), j <= k.

    One walk per chart counts its level-k points with the target 0 mod
    p^(L + j) for every j (`Decomposition.zeros`), and each level-j node
    has p^((k - j) dim) of them above it, so the sums divide exactly or
    WalkInvariantError is raised.  The meter's stage names the chart.
    """
    stage, charts = meter.stage, decomposition.charts
    p, L, dim = decomposition.system.p, decomposition.L, decomposition.system.dim
    tallies = []
    for i, chart in enumerate(charts, 1):
        meter.stage = f"{stage} chart {i}/{len(charts)}"
        zeros = decomposition.zeros(chart, k, L + k, None, meter)
        tally = [0]
        for j in range(1, k + 1):
            lifts = p ** ((k - j) * dim)
            nodes, rest = divmod(zeros[L + j], lifts)
            if rest:
                raise WalkInvariantError(
                    f"{zeros[L + j]} level-{k} zeros mod p^{L + j}: "
                    f"not level-{j} nodes of {lifts} lifts"
                )
            tally.append(nodes)
        tallies.append(tally)
    return tallies


def congruence_counts(
    system: PolySystem,
    depth: int,
    budget: int = DEFAULT_BUDGET,
) -> list[int]:
    """N_0..N_depth: image classes mod p^m where the target vanishes mod p^m.

    The target value mod p^m only depends on the class, so evaluation at
    any representative is sound.  For m <= L the classes are the chart
    centers mod p^m.  Past L, N_(L + j) sums the charts' tallies at
    level j, from one walk per chart to level depth - L.
    """
    if depth < 0:
        raise ArgumentOutOfRange(f"need depth >= 0, got {depth}")
    decomposition = measure_charts(system, budget)
    p, L = system.p, decomposition.L
    counts = [1]
    for m in range(1, min(depth, L) + 1):
        counts.append(
            sum(1 for x in decomposition.classes(m) if system.target.evaluate(x, p**m) == 0)
        )
    k = depth - L
    if k < 1:
        return counts
    tallies = _chart_tallies(decomposition, k, BudgetMeter(budget, f"count walk m={depth}"))
    return counts + [sum(tally[j] for tally in tallies) for j in range(1, k + 1)]


def congruence_count(system: PolySystem, m: int, budget: int = DEFAULT_BUDGET) -> int:
    """N_m alone, read off `congruence_counts` (perfbench traces this name)."""
    return congruence_counts(system, m, budget)[m]


class CountSeries:
    """The counts N_m, their scaled values, and the reconstructed series."""

    __slots__ = ("Nm", "scaled", "reconstructed")

    def __init__(
        self, Nm: list[int], scaled: list[Fraction], reconstructed: RationalFn | None = None
    ):
        self.Nm = Nm
        self.scaled = scaled
        self.reconstructed = reconstructed


def poincare_series(
    system: PolySystem,
    depth: int,
    budget: int = DEFAULT_BUDGET,
) -> CountSeries:
    """Counts to the given depth plus the exact rational reconstruction.

    The reconstruction must predict the held-out trailing coefficients
    exactly; failure propagates so a too-shallow depth is never papered
    over.
    """
    q_dim = system.p**system.dim
    counts = congruence_counts(system, depth, budget)
    scaled = [Fraction(Nm, q_dim**m) for m, Nm in enumerate(counts)]
    try:
        fn = reconstruct_rational(scaled)
    except (NoRecurrenceFound, ValidationFailed) as exc:
        raise type(exc)(f"{exc}; raw counts to depth {depth}: {counts}") from exc
    return CountSeries(Nm=counts, scaled=scaled, reconstructed=fn)


class IdentityVerdict(NamedTuple):
    passed: bool
    residual: RationalFn

    def __bool__(self) -> bool:
        return self.passed


def check_series_zeta_identity(series_fn: RationalFn, zeta_fn: RationalFn) -> IdentityVerdict:
    """Exact test of P(t) (1 - t) + t Z(t) = 1 as rational functions."""
    one_minus_t = RationalFn((Fraction(1), Fraction(-1)), (Fraction(1),))
    t = RationalFn((Fraction(0), Fraction(1)), (Fraction(1),))
    residual = series_fn * one_minus_t + t * zeta_fn - RationalFn.one()
    return IdentityVerdict(passed=residual.is_zero(), residual=residual)


def solution_growth_bound(
    counts: Sequence[int], pole: PoleData, q: int, dim: int
) -> tuple[float, str]:
    """Fit the constant in N_m <= C q^((dim - rho) m) m^(m_rho - 1) to counts N_0, N_1, ...

    Returns the empirical C* over the computed range and a verdict that
    is Bounded when the maximum is attained in the lower half of the
    range (the growth is already saturated).
    """
    ratios = []
    for m in range(1, len(counts)):
        denom = q ** ((dim - pole.rho) * m) * m ** (pole.m_rho - 1)
        ratios.append(counts[m] / denom)
    if not ratios:
        return 0.0, "Inconclusive"
    constant = max(ratios)
    half = len(ratios) // 2 or 1
    verdict = "Bounded" if max(ratios[:half]) >= constant * (1 - 1e-12) else "Inconclusive"
    return constant, verdict


# -- chart-decomposed recount (bad reduction) -----------------------------------


class DecomposedCountRow(NamedTuple):
    m: int
    direct: int
    decomposed: int


class DecomposedCountReport(NamedTuple):
    threshold: int  # empirical m_0: solvability stabilized past this level
    rows: tuple[DecomposedCountRow, ...]

    def exact(self) -> bool:
        return all(r.direct == r.decomposed for r in self.rows)


def decomposed_count_check(
    system: PolySystem,
    m_values: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> DecomposedCountReport:
    """Recount N_m through charts re-centered at zeros of the whole system mod p^M.

    One walk per chart gives, at every level j, the chart's share
    of the direct N_(L + j) and its solvability; the status must settle
    by M = max(m_values) (the empirical threshold m_0), and unsolvable
    charts contribute nothing.  One congruence walk of the whole system
    to level M re-centers each solvable chart at the first point x of
    its class mod p^L (its tally found one).  f_l(x + p^L y) =
    f_l(x) + p^e rep(y) exactly, with f_l(x) = 0 mod p^M, and the
    combined constraints keep content p^(L + pivot) on the whole coset,
    so the recount, the level-(m - L) points of a chart with good
    reduction where the rescaled target rep is 0 mod p^(m - e_l), must
    equal the direct N_m for every requested m.
    """
    decomposition = measure_charts(system, budget)
    p, n, L = system.p, system.n, decomposition.L
    if min(m_values) <= L:
        raise ArgumentOutOfRange(f"the decomposed recount needs m > L = {L}")
    top = max(m_values)
    settle = top - L
    threshold = L
    # shared by the count walks and the recounts
    meter = BudgetMeter(budget, "decomposed recount")
    tallies = _chart_tallies(decomposition, settle, meter)
    mod_L = p**L

    def coset(x: Sequence[int]) -> tuple[int, ...]:  # the class mod p^L, one per chart
        return tuple(c % mod_L for c in x)

    solvable = set()  # the cosets of the charts whose status settles at True
    for chart, tally in zip(decomposition.charts, tallies):
        statuses = [tally[j] > 0 for j in range(1, settle + 1)]
        final = statuses[-1]
        first_stable = next(j for j in range(len(statuses)) if all(s == final for s in statuses[j:]))
        threshold = max(threshold, L + first_stable + 1)
        if final:
            solvable.add(coset(chart.center))
    reps = {}
    if solvable:
        zeros = lifter_for(p, n, system.all_polys(), budget)
        for x in iter_congruence_points(zeros, top, budget):
            if coset(x) in solvable:
                reps.setdefault(coset(x), x)
                if len(reps) == len(solvable):
                    break
    # per chart: None (unsolvable), or (lifter of the re-centered constraints,
    # rescaled target, e_l)
    prepared = []
    for chart in decomposition.charts:
        key = coset(chart.center)
        if key not in solvable:
            prepared.append(None)
            continue
        if key not in reps:
            raise InvariantViolated(f"solvable chart at {chart.center} has no zero mod p^{top}")
        const, e_l, rep = recenter(system, chart, reps[key])
        if const % p**top:
            raise InvariantViolated(f"target is {const} at {reps[key]}, not 0 mod p^{top}")
        prepared.append((lifter_for(p, n, rep.constraints, budget).smooth(), rep.target, e_l))

    rows = []
    for m in sorted(m_values):
        direct = sum(tally[m - L] for tally in tallies)
        total = 0
        for i, entry in enumerate(prepared, 1):
            if entry is None:
                continue
            lifter, rescaled_target, e_l = entry
            # p^(e_l - L) f_L(y) = 0 mod p^(m - L)  <=>  f_L(y) = 0 mod p^(m - e_l)
            meter.stage = f"decomposed recount m={m} chart {i}/{len(prepared)}"
            cap = max(m - e_l, 0)
            total += zero_counts(lifter, m - L, rescaled_target, cap, None, meter)[cap]
        rows.append(DecomposedCountRow(m=m, direct=direct, decomposed=total))
    return DecomposedCountReport(threshold=threshold, rows=tuple(rows))
