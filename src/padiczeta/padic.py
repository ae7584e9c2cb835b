"""Truncated p-adic integer arithmetic over Q_p.

Elements of Z_p are represented by a residue modulo p^M together with the
explicit precision M.  Arithmetic is exact modulo p^M and precision
propagates as the minimum of the operand precisions; there is no
automatic re-lifting.  Elements of Q_p with negative valuation appear
only in the scaled-unit form u * p^(-m), which is all that fractional
parts and additive characters ever need.

Everything here works over the base field Q_p: the uniformizer is p, the
residue field has q = p elements, and the trace map is the identity, so
the standard additive character is exp(2*pi*i*{z}_p).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, UndefinedForZero

TWO_PI = 2.0 * 3.141592653589793


def int_valuation(value: int, p: int) -> int | None:
    """p-adic valuation of a nonzero integer; None for 0 (infinite)."""
    if value == 0:
        return None
    value = abs(value)
    v = 0
    while value % p == 0:
        v += 1
        value //= p
    return v


@dataclass(frozen=True)
class AtLeast:
    """Marker for a valuation only known to be >= bound (zero residue)."""

    bound: int

    def __repr__(self) -> str:
        return f"AtLeast({self.bound})"


@dataclass(frozen=True)
class PAdicApprox:
    """A residue modulo p^precision standing in for an element of Z_p."""

    p: int
    residue: int
    precision: int

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "residue", self.residue % self.p**self.precision)

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def _check(self, other: "PAdicApprox") -> int:
        if self.p != other.p:
            raise DimensionMismatch("mixed primes in p-adic arithmetic")
        return min(self.precision, other.precision)

    def __add__(self, other: "PAdicApprox") -> "PAdicApprox":
        m = self._check(other)
        return PAdicApprox(self.p, self.residue + other.residue, m)

    def __sub__(self, other: "PAdicApprox") -> "PAdicApprox":
        m = self._check(other)
        return PAdicApprox(self.p, self.residue - other.residue, m)

    def __mul__(self, other: "PAdicApprox") -> "PAdicApprox":
        m = self._check(other)
        return PAdicApprox(self.p, self.residue * other.residue, m)

    def __neg__(self) -> "PAdicApprox":
        return PAdicApprox(self.p, -self.residue, self.precision)

    def is_zero(self) -> bool:
        return self.residue == 0


def valuation(a: PAdicApprox) -> int | AtLeast:
    """Largest k < precision with p^k dividing the residue.

    A zero residue only bounds the valuation from below, which the
    AtLeast marker records; |a| = p^(-k) is derivable from the result.
    """
    if a.residue == 0:
        return AtLeast(a.precision)
    v = int_valuation(a.residue, a.p)
    assert v is not None and v < a.precision
    return v


def angular_component(a: PAdicApprox) -> PAdicApprox:
    """The unit a * p^(-ord a), exact modulo p^(precision - ord a)."""
    v = valuation(a)
    if isinstance(v, AtLeast):
        raise UndefinedForZero("angular component of a residue that is 0 at full precision")
    return PAdicApprox(a.p, a.residue // a.p**v, a.precision - v)


@dataclass(frozen=True)
class ScaledUnit:
    """z = u * p^(-m) with m >= 1 and u a unit modulo p^m.

    This pins down |z| = p^m and the fractional part {z}_p = u / p^m
    exactly, which is all the additive character needs.
    """

    p: int
    m: int
    u: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("scaled unit needs m >= 1")
        u = self.u % self.p**self.m
        if u % self.p == 0:
            raise ValueError("u must be a unit modulo p")
        object.__setattr__(self, "u", u)


def fractional_part(z: ScaledUnit | PAdicApprox | int) -> Fraction:
    """{z}_p as an exact rational in [0, 1).

    Elements of Z_p (PAdicApprox or plain integers) are in the valuation
    ring, so their fractional part is 0 by the defining case split.
    """
    if isinstance(z, ScaledUnit):
        return Fraction(z.u, z.p**z.m)
    return Fraction(0)


def psi_fraction(fr: Fraction) -> complex:
    """exp(2*pi*i*fr) for an exact rational fr."""
    return cmath.exp(1j * TWO_PI * (fr.numerator / fr.denominator))


def additive_character(z: ScaledUnit | PAdicApprox | int) -> complex:
    """The standard additive character Psi(z) = exp(2*pi*i*{z}_p).

    Trivial on Z_p but not on p^(-1) Z_p.  The fractional part is exact;
    only the final complex exponential is floating.
    """
    return psi_fraction(fractional_part(z))


def psi_ratio(numerator: int, p: int, m: int) -> complex:
    """Psi(numerator / p^m) for an integer numerator, reduced exactly first."""
    if m <= 0:
        return 1.0 + 0.0j
    return psi_fraction(Fraction(numerator % p**m, p**m))
