"""Dirac-delta regularization of surface integrals.

delta_r is p^(r(l-1)) on constraint vectors lying in (p^r Z_p)^(l-1) and
0 elsewhere, so it integrates to 1 and concentrates, as r grows, an
ambient integral over Z_p^n onto the constraint variety.  The finite-
level approximations I_r computed here come with certified tail bounds:
points whose integrand is not exactly determined at the scan depth
contribute a bounded, explicitly accounted remainder, and everything
resolved is summed as exact rationals.  The integrand |f|^s carries the
trivial character, as does the surface-side zeta it is checked against.

The stabilization check compares I_r against the surface-measure zeta
value from the shell machinery; agreement within the certified tail for
all r past some threshold is the verified statement.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import ArgumentOutOfRange
from .mpoly import PolySystem
from .padic import int_valuation
from .support import Support
from .variety import (
    DEFAULT_BUDGET,
    DESCEND,
    PRUNE,
    BudgetMeter,
    lift_counter,
    truncated_tree,
    walk,
)
from .zeta import build_shell_table

ZETA_DEPTH = 12  # depth of the shell table behind the surface-side zeta value


# The delta_r scale factor p^(r(l-1)); isolated so falsification tests can
# patch it and watch the limit check trip.
def _delta_scale(p: int, r: int, l: int) -> int:
    return p ** (r * (l - 1))


class DeltaApprox(NamedTuple):
    """Finite-level value of I_r with a certified truncation bound.

    value collects every exactly-resolved contribution; the true I_r
    differs from it by at most tail_bound, which decreases geometrically
    in the scan depth.
    """

    r: int
    s: int
    value: Fraction
    tail_bound: Fraction


def _ambient_walk(
    system: PolySystem,
    r: int,
    depth: int,
    support: Support | None,
    budget: int,
) -> Iterator[tuple[int, int | None, int]]:
    """Yield (level, v, mult) over the constraint-filtered tree.

    Constraints filter digits up to level r.  From settle = max(r,
    support level, 1) on, a node of level j is emitted as soon as the
    target's valuation v < j is known from T mod p^j; a node at the
    scan depth whose target is still 0 is emitted with v = None, a deep
    leaf.  Past settle, coordinates absent from the target are pinned,
    and mult counts the collapsed sibling classes.

    The first-order Taylor step, exact for j + i <= 2j, counts two kinds
    of subtree without building them (`lift_counter`).  Below settle
    (= r there), a node past the support level whose ball fixes v < j
    yields one item at level r, mult its constraint lifts there, that
    level alone.  Past settle, a node of level j with 2j >= depth whose
    target is 0 mod p^j yields its shells from Z_i, its level-(j + i)
    lifts that keep the target 0 mod p^(j + i) (Z_0 = 1): mult p^n
    Z_(i-1) - Z_i at v = j + i - 1, and Z_(depth - j) deep, each times
    the node's own mult.  The budget bounds the nodes visited; counted
    subtrees cost nothing.
    """
    p, n = system.p, system.n
    target = system.target
    level = support.level if support is not None else 0
    settle = max(r, level, 1)
    pinned = [i for i in range(n) if not any(expo[i] for expo in target.terms)]
    all_digits = list(itertools.product(range(p), repeat=n))
    active_digits = [d for d in all_digits if not any(d[i] for i in pinned)]

    def free(x: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
        step, digits = p**j, active_digits if j >= settle else all_digits
        return [tuple(c + step * d for c, d in zip(x, digit)) for digit in digits]

    roots, children = truncated_tree(p, n, system.constraints, r, free, budget)
    partials = [[f.partial(k) for k in range(1, n + 1)] for f in system.constraints]
    gradient = ([target.partial(k) for k in range(1, n + 1)],)

    def visit(x: tuple[int, ...], j: int):
        if support is not None and not support.admits_prefix(x, j, p):
            return PRUNE
        if j < settle and (j < level or 2 * j < settle):
            return [(j, None, 1)] if j == depth else DESCEND
        v = int_valuation(target.evaluate(x, p**j), p)
        if j < settle:
            if v is None:
                return DESCEND
            count = lift_counter(system.constraints, partials, x, j, settle - j, p)
            return [(settle, v, count(settle - j))]
        mult = p ** (len(pinned) * (j - settle))
        if v is not None or j == depth:
            # at the scan depth, target, constraints or support may still be unresolved
            return [(j, v, mult)]
        if 2 * j < depth:
            return DESCEND
        count = lift_counter((target,), gradient, x, j, depth - j, p)
        zeros = [count(i) for i in range(depth - j + 1)]
        items = [
            (j + i, j + i - 1, mult * (p**n * zeros[i - 1] - zeros[i]))
            for i in range(1, depth - j + 1)
        ]
        return [*items, (depth, None, mult * zeros[-1])]

    for items in walk(roots, children, visit, BudgetMeter(budget, f"ambient walk r={r}")):
        yield from items


def delta_integral(
    system: PolySystem,
    s: int,
    r: int,
    depth: int,
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DeltaApprox:
    """I_r: the delta_r-regularized ambient integral of |f_l|^s.

    s must be a positive integer so shell contributions are exactly
    summable rationals with a provable geometric tail; depth > r is the
    scan level.
    """
    if s < 1:
        raise ArgumentOutOfRange("s must be a positive integer")
    if depth <= r:
        raise ArgumentOutOfRange("scan depth must exceed r")
    p, l, n = system.p, system.l, system.n
    # every term is an integer over p^(depth (n + s)): a level-j coset has
    # measure p^((depth - j) n) and |f|^s = p^((depth - v) s) in those units
    denominator = p ** (depth * (n + s))
    cell = [_delta_scale(p, r, l) * p ** ((depth - j) * n) for j in range(depth + 1)]
    magnitude = [p ** ((depth - v) * s) for v in range(depth + 1)]
    exact = tail = 0
    for j, v, mult in _ambient_walk(system, r, depth, support, budget):
        if v is None:
            tail += mult * cell[j]
        else:
            exact += mult * cell[j] * magnitude[v]
    return DeltaApprox(r, s, Fraction(exact, denominator), Fraction(tail, denominator))


class DeltaLimitRow(NamedTuple):
    r: int
    value: Fraction
    tail_bound: Fraction
    surface_value: Fraction
    gap: float


class DeltaLimitReport(NamedTuple):
    rows: tuple[DeltaLimitRow, ...]
    passed: bool
    r0: int | None  # smallest r from which every later row is within its tail


def delta_limit_check(
    system: PolySystem,
    s: int,
    r_values: Sequence[int],
    depth: int,
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DeltaLimitReport:
    """Compare I_r against the surface-measure zeta value as r grows.

    The surface side is the reconstructed (validated) trivial-character
    zeta evaluated exactly at t = p^(-s); the check passes when
    |I_r - Z| <= tail_bound(I_r) for every r >= some r0 in the range.
    """
    table = build_shell_table(system, ZETA_DEPTH, support=support, budget=budget)
    surface = table.trivial_fn().eval_exact(Fraction(1, system.p**s))
    rows = []
    for r in sorted(r_values):
        approx = delta_integral(system, s, r, depth, support, budget)
        rows.append(
            DeltaLimitRow(
                r=r,
                value=approx.value,
                tail_bound=approx.tail_bound,
                surface_value=surface,
                gap=abs(float(approx.value) - float(surface)),
            )
        )
    r0 = None
    for i, row in enumerate(rows):
        if all(later.gap <= float(later.tail_bound) for later in rows[i:]):
            r0 = row.r
            break
    return DeltaLimitReport(rows=tuple(rows), passed=r0 is not None, r0=r0)
