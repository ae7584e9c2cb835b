"""Exact rational functions in t = q^(-s) and their reconstruction from series.

Polynomials are coefficient lists of Fractions (index = degree).  The
reconstruction routine finds the minimal-order linear recurrence fitting
an exact coefficient sequence, holds out trailing validation terms, and
fails loudly if the fitted function does not predict them; silent
truncation artifacts are therefore detectable.

Pole analysis prefers an exact factorization of the denominator into
cyclotomic-style factors 1 - p^(-v) t^N, falling back to numerical root
finding only when no such factorization exists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    ArgumentOutOfRange,
    ConstantDenominator,
    Frozen,
    NoRecurrenceFound,
    PoleSetMismatch,
    ValidationFailed,
)

Poly = tuple[Fraction, ...]

ROOT_TOL = 1e-8  # relative distance within which numerical roots count as one
HELD_OUT = 2  # trailing coefficients reconstruct_rational keeps out of the fit
MULTIPLICITY_CAP = 6  # the largest multiplicity the candidate-pole check tries per factor


def poly_trim(coeffs: Sequence[Fraction]) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_scale(a: Sequence[Fraction], c: Fraction) -> Poly:
    return poly_trim([c * x for x in a])


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Poly, Poly]:
    a = list(poly_trim(a))
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        a = list(poly_trim(a))
        if not a:
            break
    return poly_trim(q), poly_trim(a)


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        a = poly_scale(a, 1 / a[-1])  # monic
    return a


def poly_eval(a: Sequence[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(a)):
        acc = acc * t + c
    return acc


def _as_fractions(coeffs) -> Poly:
    return poly_trim([Fraction(c) for c in coeffs])


class RationalFn(Frozen):
    """num(t)/den(t) with exact rational coefficients, den(0) = 1, gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[Fraction], den: Sequence[Fraction]):
        num, den = _as_fractions(num), _as_fractions(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den) if num else ()
        if g and len(g) > 1:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
        if den[0] == 0:
            raise ArgumentOutOfRange("denominator must not vanish at t = 0")
        scale = den[0]
        num = poly_scale(num, 1 / scale)
        den = poly_scale(den, 1 / scale)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def zero() -> "RationalFn":
        return RationalFn((), (Fraction(1),))

    @staticmethod
    def one() -> "RationalFn":
        return RationalFn((Fraction(1),), (Fraction(1),))

    def is_zero(self) -> bool:
        return not self.num

    def series(self, count: int) -> list[Fraction]:
        """First `count` power-series coefficients at t = 0."""
        out = []
        num, den = self.num, self.den
        for k in range(count):
            acc = num[k] if k < len(num) else Fraction(0)
            for i in range(1, min(k, len(den) - 1) + 1):
                acc -= den[i] * out[k - i]
            out.append(acc)
        return out

    def eval_exact(self, t: Fraction) -> Fraction:
        den = poly_eval(self.den, t)
        if den == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        return poly_eval(self.num, t) / den

    def __add__(self, other: "RationalFn") -> "RationalFn":
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return RationalFn(num, poly_mul(self.den, other.den))

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + other.scale(Fraction(-1))

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def scale(self, c: Fraction) -> "RationalFn":
        return RationalFn(poly_scale(self.num, Fraction(c)), self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def to_json(self) -> dict:
        return {
            "numerator": [[c.numerator, c.denominator] for c in self.num],
            "denominator": [[c.numerator, c.denominator] for c in self.den],
        }


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Particular solution of an (overdetermined) exact linear system, or None."""
    if not rows:
        return []
    cols = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        lead = aug[r][c]
        aug[r] = [x / lead for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][cols] != 0:
            return None  # inconsistent
    solution = [Fraction(0)] * cols
    for row_idx, c in enumerate(pivots):
        solution[c] = aug[row_idx][cols]
    return solution


def reconstruct_rational(coeffs: Sequence[Fraction]) -> RationalFn:
    """Fit the minimal rational function generating an exact series.

    The last HELD_OUT coefficients are held out of the fit and
    must be predicted exactly by the result.  Candidates are scanned in
    order of total degree (numerator + denominator), so the returned
    function realizes the minimal linear recurrence consistent with the
    data.  Raises NoRecurrenceFound if nothing fits the training prefix,
    ValidationFailed if every fit misses the held-out terms.
    """
    coeffs = [Fraction(c) for c in coeffs]
    train = len(coeffs) - HELD_OUT
    if train < 1:
        raise NoRecurrenceFound("not enough coefficients to fit anything")
    if all(c == 0 for c in coeffs):
        return RationalFn.zero()

    fitted_any = False
    for total in range(train):
        for den_deg in range(total + 1):
            num_deg = total - den_deg
            if num_deg >= train:
                continue
            # Unknowns d_1..d_den_deg with D = 1 + d_1 t + ...; require
            # Coeff_k(D * A) = 0 for num_deg < k < train.
            rows, rhs = [], []
            for k in range(num_deg + 1, train):
                rows.append([coeffs[k - i] if k - i >= 0 else Fraction(0) for i in range(1, den_deg + 1)])
                rhs.append(-coeffs[k])
            if len(rows) < den_deg:
                continue  # underdetermined, a later total will revisit
            sol = _solve_exact(rows, rhs)
            if sol is None:
                continue
            den = poly_trim([Fraction(1)] + sol)
            prod = poly_mul(den, coeffs[: num_deg + den_deg + 1] or [Fraction(0)])
            num = poly_trim(list(prod[: num_deg + 1]))
            candidate = RationalFn(num, den)
            expansion = candidate.series(len(coeffs))
            if expansion[:train] != coeffs[:train]:
                continue
            fitted_any = True
            if expansion == coeffs:
                return candidate
    if fitted_any:
        raise ValidationFailed(
            "a recurrence fits the training prefix but fails the held-out terms; "
            "raise the scan depth"
        )
    raise NoRecurrenceFound("no linear recurrence fits within the provided depth")


class PoleData(NamedTuple):
    """Roots of a denominator in t, with rho = log_p(min |root|).

    rho_exact is a Fraction when the denominator factored exactly into
    1 - p^(-v) t^N pieces, otherwise None and rho is the float estimate.
    m_rho is the largest multiplicity among minimum-modulus roots.
    """

    roots: tuple[tuple[complex, int], ...]
    rho: float
    m_rho: int
    rho_exact: Fraction | None = None
    factors: tuple[tuple[int, int, int], ...] | None = None  # (N, v, multiplicity)


def _try_factor_pattern(den: Poly, p: int) -> list[tuple[int, int, int]] | None:
    """Factor den as const * prod (1 - p^(-v) t^N)^mult, or None."""
    remaining = den
    found: dict[tuple[int, int], int] = {}
    max_v = 0
    for c in den:
        d = abs(c.denominator)
        while d % p == 0:
            max_v += 1
            d //= p
    max_v = max(max_v, len(den))
    progress = True
    while len(remaining) > 1 and progress:
        progress = False
        for N in range(1, len(remaining)):
            for v in range(0, max_v + 1):
                factor = [Fraction(1)] + [Fraction(0)] * (N - 1) + [Fraction(-1, p**v)]
                q, r = poly_divmod(remaining, factor)
                if not r and q and q[0] != 0:
                    found[(N, v)] = found.get((N, v), 0) + 1
                    remaining = q
                    progress = True
                    break
            if progress:
                break
    if len(remaining) == 1:
        return [(N, v, mult) for (N, v), mult in sorted(found.items())]
    return None


def _pattern_pole_data(factors: list[tuple[int, int, int]], p: int) -> PoleData:
    # Roots of (1 - p^(-v) t^N) are p^(v/N) * zeta_N^j; collect exact
    # multiplicities per root by (modulus exponent v/N, angle j/N).
    angle_mult: dict[tuple[Fraction, Fraction], int] = {}
    for N, v, mult in factors:
        for j in range(N):
            key = (Fraction(v, N), Fraction(j, N))
            angle_mult[key] = angle_mult.get(key, 0) + mult
    rho_exact = min(expo for expo, _ in angle_mult)
    m_rho = max(m for (expo, _), m in angle_mult.items() if expo == rho_exact)
    roots = tuple(
        (p ** float(expo) * complex(math.cos(2 * math.pi * angle), math.sin(2 * math.pi * angle)), m)
        for (expo, angle), m in sorted(angle_mult.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    )
    return PoleData(
        roots=roots,
        rho=float(rho_exact),
        m_rho=m_rho,
        rho_exact=rho_exact,
        factors=tuple(factors),
    )


def _numeric_pole_data(den: Poly, p: int) -> PoleData:
    import numpy as np  # only irregular denominators need it; keeps it off the import path

    coeffs = [float(c) for c in den]
    raw = np.roots(list(reversed(coeffs)))
    clusters: list[list[complex]] = []
    for r in sorted(raw, key=lambda z: (abs(z), z.real, z.imag)):
        for cluster in clusters:
            if abs(r - cluster[0]) <= ROOT_TOL * max(1.0, abs(cluster[0])):
                cluster.append(r)
                break
        else:
            clusters.append([complex(r)])
    roots = tuple((sum(c) / len(c), len(c)) for c in clusters)
    min_mod = min(abs(r) for r, _ in roots)
    m_rho = max(m for r, m in roots if abs(r) <= min_mod * (1 + ROOT_TOL))
    return PoleData(roots=roots, rho=math.log(min_mod, p), m_rho=m_rho)


def pole_analysis(f: RationalFn, p: int) -> PoleData:
    """Pole locations of f in the t-plane and the decay exponent rho.

    Exact pattern matching against products of 1 - p^(-v) t^N factors is
    attempted first; only irregular denominators fall through to
    floating root finding with multiplicities by clustering.
    """
    if len(f.den) <= 1:
        raise ConstantDenominator("rational function has no poles")
    factors = _try_factor_pattern(f.den, p)
    if factors is not None:
        return _pattern_pole_data(factors, p)
    return _numeric_pole_data(f.den, p)


def pole_data_from_resolution(data: Sequence[tuple[int, int]], p: int) -> PoleData:
    """PoleData built from user-supplied resolution pairs (N_i, v_i).

    rho = min v_i / N_i; the multiplicity estimate is the number of
    pairs attaining the minimum.
    """
    ratios = [Fraction(v, N) for N, v in data]
    rho = min(ratios)
    m_rho = sum(1 for r in ratios if r == rho)
    return PoleData(roots=(), rho=float(rho), m_rho=m_rho, rho_exact=rho)


class CandidateMatch(NamedTuple):
    """Result of a successful candidate-pole divisibility check."""

    multiplicities: tuple[tuple[int, int, int], ...]  # (N, v, mult used)


def candidate_pole_check(
    f: RationalFn,
    data: Sequence[tuple[int, int]],
    p: int,
) -> CandidateMatch:
    """Verify the denominator divides prod (1 - p^(-v_i) t^(N_i))^mu_i.

    Multiplicities mu_i <= MULTIPLICITY_CAP are searched exhaustively
    (the factor set is small); PoleSetMismatch means the function has a
    pole outside the candidate list, which falsifies the supplied
    resolution data.
    """
    den = f.den

    def search(remaining: Poly, idx: int, used: list[int]):
        if len(remaining) == 1:
            return list(used)
        if idx == len(data):
            return None
        N, v = data[idx]
        factor = (Fraction(1),) + (Fraction(0),) * (N - 1) + (Fraction(-1, p**v),)
        current = remaining
        for mult in range(MULTIPLICITY_CAP + 1):
            result = search(current, idx + 1, used + [mult])
            if result is not None:
                return result
            q, r = poly_divmod(current, factor)
            if r or not q:
                break
            current = q
        return None

    used = search(den, 0, [])
    if used is None:
        raise PoleSetMismatch(
            f"denominator {[str(c) for c in den]} does not divide any product of the "
            f"candidate factors {list(data)} with multiplicities <= {MULTIPLICITY_CAP}"
        )
    mult = tuple((N, v, m) for (N, v), m in zip(data, used))
    return CandidateMatch(multiplicities=mult)
