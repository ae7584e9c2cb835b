"""p-adic valuations and the standard additive character over Q_p.

Elements of Z_p appear as plain integers (residues modulo a power of p
that the caller tracks).  Elements of Q_p with negative valuation appear
only in the scaled-unit form u * p^(-m), whose fractional part u / p^m
is all the additive character needs.

Everything here works over the base field Q_p: the uniformizer is p, the
residue field has q = p elements, and the trace map is the identity, so
the standard additive character is exp(2*pi*i*{z}_p).
"""

from __future__ import annotations

import cmath

from .errors import ArgumentOutOfRange, Frozen

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


class ScaledUnit(Frozen):
    """z = u * p^(-m) with m >= 1 and u a unit modulo p^m.

    This pins down |z| = p^m and the fractional part {z}_p = u / p^m
    exactly, which is all the additive character needs.
    """

    __slots__ = ("p", "m", "u")

    def __init__(self, p: int, m: int, u: int):
        if m < 1:
            raise ArgumentOutOfRange("scaled unit needs m >= 1")
        u %= p**m
        if u % p == 0:
            raise ArgumentOutOfRange("u must be a unit modulo p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "u", u)


def psi_ratio(numerator: int, p: int, m: int) -> complex:
    """Psi(numerator / p^m) = exp(2*pi*i*{numerator / p^m}), reduced exactly first."""
    if m <= 0:
        return 1.0 + 0.0j
    # int / int rounds correctly, so the reduced and unreduced quotients agree
    return cmath.exp(1j * TWO_PI * ((numerator % p**m) / p**m))
