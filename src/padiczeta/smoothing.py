"""Row-echelon reduction over Z_p and rescaling to good-reduction charts.

A variety with bad reduction mod p is covered by finitely many cosets
x0 + (p^L Z_p)^n on which the substitution x = x0 + p^L y turns the
(recombined) constraints into a system with good reduction.  The
echelon form over the valuation ring of the constraints' Jacobian at
x0, the linear part of f(x0 + y), picks the recombination: pivots are
minimum-valuation entries, eliminations use multipliers that are units
of Z_p (integer row operations with a p-free row scale, so everything
stays exact), and the echelon carries the integer transform T those
operations compose to.  The combined constraints are T applied to the
constraints, each built once and rescaled by one substitution.

Each chart is its own certificate: it carries the recombined
constraints, the rescaled ones and the exponents e_i of the rescaling
identity, which `verify_certificate` proves exactly on a small grid of
points, and its measure transport weight p^(sum e_i - L*n) is read off
those exponents.  The weight is what makes surface-measure
integrals computable through point counts on the rescaled charts.
Every chart walk takes its support in chart coordinates from there, and
its lifter from `variety.lifter_for`, keyed on the chart's rescaled
constraints.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import (
    ArgumentOutOfRange,
    BudgetExceeded,
    CenterNotOnVariety,
    Frozen,
    GoodReductionFailed,
    InvariantViolated,
    RankDeficient,
    WalkInvariantError,
)
from .mpoly import MPoly, PolySystem, shift_rescale
from .padic import int_valuation
from .support import Support
from .variety import (
    DEFAULT_BUDGET,
    BudgetMeter,
    HenselLifter,
    first_lifts,
    good_reduction_test,
    lifter_for,
    zero_counts,
)

DECOMPOSE_ROUNDS = 12  # rescale-level escalations global_decompose tries


class EchelonResult(NamedTuple):
    """Echelon form of an integer matrix under row operations unimodular in Z_p.

    pivot_vals lists the p-adic valuations down the diagonal; they are
    nondecreasing and each pivot has minimal valuation in its row tail.
    transform is the integer matrix T, invertible over Z_p, that the row
    operations compose to: row i of T * matrix, read at the columns
    col_perm, is b[i].  The same T combines the constraint polynomials;
    col_perm records the column swaps, which touch only the matrix layout.
    """

    b: tuple[tuple[int, ...], ...]
    transform: tuple[tuple[int, ...], ...]
    pivot_vals: tuple[int, ...]
    col_perm: tuple[int, ...]


def dvr_echelon(matrix: Sequence[Sequence[int]], p: int) -> EchelonResult:
    """Echelon form over Z_p with minimum-valuation pivoting.

    Pivot selection: the entry of minimal valuation in the remaining
    submatrix, ties broken by smallest row then smallest column.
    Eliminations replace row_k by d*row_k - c*row_i with d a unit
    (p-free), which keeps entries integral and the transform invertible
    over Z_p.  Each row carries its combination of the input rows past
    column ncols.  Raises RankDeficient when the rank over Q is below the
    row count.
    """
    if not matrix:
        raise RankDeficient("empty matrix")
    nrows, ncols = len(matrix), len(matrix[0])
    rows = [[*map(int, row), *(int(i == k) for k in range(nrows))] for i, row in enumerate(matrix)]
    col_perm = list(range(ncols))

    for step in range(nrows):
        best = None
        for i in range(step, nrows):
            for j in range(step, ncols):
                v = int_valuation(rows[i][j], p)
                if v is None:
                    continue
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best is None:
            raise RankDeficient(f"rank < {nrows} over Q")
        _, i0, j0 = best
        if i0 != step:
            rows[step], rows[i0] = rows[i0], rows[step]
        if j0 != step:
            for row in rows:
                row[step], row[j0] = row[j0], row[step]
            col_perm[step], col_perm[j0] = col_perm[j0], col_perm[step]
        pivot = rows[step][step]
        for k in range(step + 1, nrows):
            entry = rows[k][step]
            if entry == 0:
                continue
            frac = Fraction(entry, pivot)
            c, d = frac.numerator, frac.denominator
            if d % p == 0:
                raise InvariantViolated(f"multiplier denominator {d} is not a unit")
            rows[k] = [d * a - c * b for a, b in zip(rows[k], rows[step])]
            if rows[k][step] != 0:
                raise InvariantViolated(f"elimination left {rows[k][step]} below pivot {step}")

    pivot_vals = []
    for i in range(nrows):
        v = int_valuation(rows[i][i], p)
        if v is None:
            raise InvariantViolated(f"pivot {i} of the echelon form is 0")
        pivot_vals.append(v)
    return EchelonResult(
        b=tuple(tuple(row[:ncols]) for row in rows),
        transform=tuple(tuple(row[ncols:]) for row in rows),
        pivot_vals=tuple(pivot_vals),
        col_perm=tuple(col_perm),
    )


def neron_rescale(
    system: PolySystem,
    x0: tuple[int, ...],
    echelon: EchelonResult,
    L: int,
    budget: int = DEFAULT_BUDGET,
) -> Chart:
    """Rescale the system at a center into a good-reduction chart at level L.

    `echelon` is `dvr_echelon` of the constraints' Jacobian at x0.  Its
    transform combines the constraints, each combination is shifted to
    x0 and rescaled by p^L in one substitution, and the result is
    verified to have good reduction.  L must exceed the last pivot
    valuation, and the center must satisfy the combined constraints
    modulo p^(2L + 2); inaccurate centers raise CenterNotOnVariety.
    """
    if L <= echelon.pivot_vals[-1]:
        raise ArgumentOutOfRange(f"L={L} below required {echelon.pivot_vals[-1] + 1}")
    p, n = system.p, system.n
    combined = [
        sum((f.scale(t) for f, t in zip(system.constraints, row) if t), MPoly.zero(n))
        for row in echelon.transform
    ]
    required = 2 * L + 2
    modulus = p**required
    exponents, rescaled = [], []
    for i, g in enumerate(combined):
        if g.evaluate(x0, modulus):
            raise CenterNotOnVariety(f"constraints do not vanish mod p^{required} at {x0}")
        e, gL = shift_rescale(g, x0, L, p)
        if e != L + echelon.pivot_vals[i]:
            raise InvariantViolated(
                f"content valuation {e} of row {i} does not match L + pivot valuation"
            )
        exponents.append(e)
        rescaled.append(gL)
    chart_system = PolySystem(
        p=p,
        n=n,
        constraints=tuple(rescaled),
        target=system.target.substitute_affine(x0, p**L),
    )
    verdict = good_reduction_test(chart_system, budget)
    if not verdict.good:
        raise GoodReductionFailed(
            f"rescaled system at {x0} failed good reduction (witness {verdict.witness}); "
            "the center is not on a submanifold to the required depth",
            state={"center": x0, "L": L, "rescaled": [str(f) for f in rescaled]},
        )
    return Chart(
        p=p,
        center=x0,
        L=L,
        constraints=chart_system.constraints,
        target=chart_system.target,
        combined_constraints=tuple(combined),
        exponents=tuple(exponents),
    )


class Chart(Frozen):
    """One good-reduction piece of the variety, and its own certificate.

    Points of the piece are x = center + p^L y for y on the rescaled
    chart variety; `target` is the target polynomial transported to
    chart coordinates, target(y) = f_l(center + p^L y), kept exact.
    The rescaling identity, exact over the integers, is
    combined_constraints[i](center + p^L y) = p^exponents[i] * constraints[i](y),
    each rescaled constraint having a unit coefficient; `verify_certificate`
    proves it on a grid of points.  The surface measure of a chart subset
    is weight * (chart-level count) * p^(-k * dim) for any resolving
    level k.
    """

    __slots__ = (
        "p",
        "center",
        "L",
        "constraints",
        "target",
        "combined_constraints",
        "exponents",
    )

    def __init__(
        self,
        p: int,
        center: tuple[int, ...],
        L: int,
        constraints: tuple[MPoly, ...],
        target: MPoly,
        combined_constraints: tuple[MPoly, ...],
        exponents: tuple[int, ...],
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "combined_constraints", combined_constraints)
        object.__setattr__(self, "exponents", exponents)

    @property
    def pivot_vals(self) -> tuple[int, ...]:
        """The pivot valuations of the echelon at the center, e_i - L."""
        return tuple(e - self.L for e in self.exponents)

    @property
    def weight(self) -> Fraction:
        """The measure transport p^(sum e_i - L*n)."""
        return Fraction(self.p ** sum(self.exponents), self.p ** (self.L * len(self.center)))


class Decomposition(NamedTuple):
    """A covering of the variety by disjoint good-reduction charts.

    For systems that already have good reduction this is the single
    identity chart (L = 0); otherwise charts sit over the distinct
    classes mod p^L meeting the variety, so their cosets are pairwise
    disjoint and counts simply add.
    """

    system: PolySystem
    L: int
    charts: tuple[Chart, ...]
    dropped_centers: tuple[tuple[int, ...], ...] = ()

    def lifter(self, chart: Chart, budget: int = DEFAULT_BUDGET) -> HenselLifter:
        """The chart's smooth lifter, refused whenever p^n exceeds the budget."""
        return lifter_for(self.system.p, self.system.n, chart.constraints, budget).smooth()

    def zeros(
        self, chart: Chart, k: int, m: int, support: Support | None, meter: BudgetMeter
    ) -> list[int]:
        """`variety.zero_counts` of the chart target's level-k points to precision m.

        A level-k point is a class mod p^(L + k), and the target mod
        p^(L + k) is a function of it only because its non-constant
        coefficients carry p^L, which is checked here.
        """
        scale = self.system.p**chart.L
        if any(c % scale for e, c in chart.target.terms.items() if any(e)):
            raise WalkInvariantError(f"target gradient does not carry p^{chart.L}: {chart.target}")
        lifter = self.lifter(chart, meter.limit)
        return zero_counts(lifter, k, chart.target, m, support, meter)

    def restrict(self, chart: Chart, support: Support | None) -> tuple[bool, Support | None]:
        """Transport the support indicator into the chart's coordinates.

        Returns (meets, sup): whether the chart meets the support at all,
        and the y-coordinate Support to restrict the chart to, or None when
        the whole chart lies inside the support.
        """
        if support is None:
            return True, None
        p, L = self.system.p, chart.L
        if support.level <= L:
            modulus = p**support.level
            key = tuple(c % modulus for c in chart.center)
            return key in support.projected(p, support.level), None
        rel_level = support.level - L
        mod_L = p**L
        y_centers = {
            tuple(((c - x) // mod_L) % p**rel_level for c, x in zip(center, chart.center))
            for center in support.centers
            if tuple(c % mod_L for c in center) == tuple(c % mod_L for c in chart.center)
        }
        if not y_centers:
            return False, None
        return True, Support(n=support.n, level=rel_level, centers=tuple(sorted(y_centers)))

    def image_count(self, m: int, budget: int = DEFAULT_BUDGET) -> int:
        """Number of classes mod p^m hit by Z_p points of the variety.

        Past L they are the charts' level-(m - L) nodes, with no walk: a
        smooth lifter's root has p^dim lifts at every level.
        """
        if m == 0:
            return 1
        if m <= self.L:
            return len(self.classes(m))
        p, k = self.system.p, m - self.L - 1
        return sum(
            len(lifter.roots()) * p ** (k * lifter.dim)
            for lifter in (self.lifter(chart, budget) for chart in self.charts)
        )

    def classes(self, m: int) -> list[tuple[int, ...]]:
        """The distinct chart centers mod p^m, in chart order."""
        modulus = self.system.p**m
        return list(dict.fromkeys(tuple(c % modulus for c in chart.center) for chart in self.charts))


def recenter(system: PolySystem, chart: Chart, x: tuple[int, ...]) -> tuple[int, int, PolySystem]:
    """The chart seen from a representative x of its coset.

    Returns (c, e, rep) with f_l(x + p^L y) = c + p^e rep.target(y),
    rep.target content-free, and rep.constraints the chart's combined
    constraints shifted to x and rescaled by p^L.
    """
    p, n = system.p, system.n
    shifted = system.target.substitute_affine(x, p**chart.L)
    const = shifted.constant_term()
    remainder = shifted - MPoly.constant(n, const)
    e = remainder.content_valuation(p)
    if e is None or e < chart.L:
        raise InvariantViolated(f"target remainder at {x} does not carry p^{chart.L}")
    constraints = tuple(shift_rescale(g, x, chart.L, p)[1] for g in chart.combined_constraints)
    target = MPoly(n, {expo: c // p**e for expo, c in remainder.terms.items()})
    return const, e, PolySystem(p=p, n=n, constraints=constraints, target=target)


def _identity_chart(system: PolySystem) -> Chart:
    return Chart(
        p=system.p,
        center=(0,) * system.n,
        L=0,
        constraints=system.constraints,
        target=system.target,
        combined_constraints=system.constraints,
        exponents=(0,) * len(system.constraints),
    )


def global_decompose(system: PolySystem, budget: int = DEFAULT_BUDGET) -> Decomposition:
    """Cover the variety with rescaled good-reduction charts at a uniform L.

    The center of each class mod p^L is the first lift in walk order
    that solves the constraints at accuracy level 2L + 3: the search
    stops at one lift per class, and must find the same classes at
    accuracy 2L + 4 (else NotStabilized).  Whenever some center needs a
    larger L than the current round assumed, the round is restarted with
    the maximum, for at most DECOMPOSE_ROUNDS rounds.  Charts whose
    rescaled variety has no F_p point contain no Z_p points of the
    variety at all (Hensel) and are dropped.
    """
    p, n = system.p, system.n
    # the Jacobian at a center is the linear part of the constraints there
    partials = [[f.partial(j) for j in range(1, n + 1)] for f in system.constraints]
    L = 1
    for _ in range(DECOMPOSE_ROUNDS):
        reps = first_lifts(lifter_for(p, n, system.constraints, budget), L, 2 * L + 3, budget)
        echelons = {
            key: dvr_echelon([[df.evaluate(reps[key]) for df in row] for row in partials], p)
            for key in sorted(reps)
        }
        needed = max([L] + [ech.pivot_vals[-1] + 1 for ech in echelons.values()])
        if needed > L:
            L = needed
            continue

        charts, dropped = [], []
        for key, echelon in echelons.items():
            chart = neron_rescale(system, reps[key], echelon, L, budget)
            if lifter_for(p, n, chart.constraints, budget).roots():
                charts.append(chart)
            else:
                dropped.append(key)
        return Decomposition(
            system=system, L=L, charts=tuple(charts), dropped_centers=tuple(dropped)
        )
    raise BudgetExceeded(
        f"chart search: rescale level did not settle within {DECOMPOSE_ROUNDS} rounds "
        f"(last L = {L})"
    )


def measure_charts(system: PolySystem, budget: int = DEFAULT_BUDGET) -> Decomposition:
    """Decomposition used by the measure and counting machinery.

    Systems with good reduction get the single identity chart; only bad
    reduction pays for the full covering procedure.  Decompositions are
    pure functions of the (immutable) system, so they are cached, once
    per (system, budget) however the call spells its arguments;
    `measure_charts.cache_info` and `.cache_clear` reach that cache.
    """
    return _measure_charts(system, budget)


@lru_cache(maxsize=64)
def _measure_charts(system: PolySystem, budget: int) -> Decomposition:
    if not good_reduction_test(system, budget):
        return global_decompose(system, budget)
    return Decomposition(system=system, L=0, charts=(_identity_chart(system),))


measure_charts.cache_info = _measure_charts.cache_info
measure_charts.cache_clear = _measure_charts.cache_clear


def verify_certificate(chart: Chart) -> bool:
    """Prove the rescaling identity of a chart exactly, on a grid of points.

    For each constraint, combined(center + p^L y) - p^e rescaled(y) is a
    polynomial in y of degree at most d_k in y_k, the larger of the two
    sides' degrees in their k-th variable.  A polynomial of those degrees
    that vanishes on the grid of y with every y_k in {0, ..., d_k} is zero
    (Alon's Combinatorial Nullstellensatz), so both sides, evaluated
    exactly over Z on that grid, agree everywhere exactly when they agree
    there.
    """
    p, scale = chart.p, chart.p**chart.L
    for g, gL, e in zip(chart.combined_constraints, chart.constraints, chart.exponents):
        degrees = [
            max((expo[k] for f in (g, gL) for expo in f.terms), default=0)
            for k in range(len(chart.center))
        ]
        for y in itertools.product(*(range(d + 1) for d in degrees)):
            x = tuple(c + scale * yk for c, yk in zip(chart.center, y))
            if g.evaluate(x) != p**e * gL.evaluate(y):
                return False
    return True


def certificates_to_json(decomposition: Decomposition) -> str:
    payload = {
        "level": decomposition.L,
        "charts": [
            {
                "center": list(chart.center),
                "weight": [chart.weight.numerator, chart.weight.denominator],
                "certificate": {
                    "center": list(chart.center),
                    "level": chart.L,
                    "exponents": list(chart.exponents),
                    "pivot_valuations": list(chart.pivot_vals),
                    "rescaled_constraints": [str(f) for f in chart.constraints],
                    "combined_constraints": [str(f) for f in chart.combined_constraints],
                    # neron_rescale raises GoodReductionFailed on any other verdict
                    "verdict": "Good",
                },
            }
            for chart in decomposition.charts
        ],
        "dropped_centers": [list(c) for c in decomposition.dropped_centers],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
