"""Multiplicative characters of (Z/p^c)^* and their normalized Gaussian sums.

For an odd prime p the unit group modulo p^c is cyclic, so a character
is determined by its value on a fixed primitive root g (the smallest
positive one).  Values are complex roots of unity computed through a
precomputed discrete-log table; conductors come from the filtration by
the principal-unit subgroups 1 + p^k Z.

p = 2 is rejected here because (Z/2^c)^* is not cyclic; every
trivial-character computation elsewhere in the package still supports
p = 2.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import gcd

from .errors import ArgumentOutOfRange, EvenPrimeUnsupported, Frozen, ModulusTooLarge
from .errors import NonUnitArgument, TrivialCharacter
from .padic import TWO_PI, psi_ratio

MAX_MODULUS = 10**6


class _UnitGroup:
    """Structure of (Z/p^c)^*: primitive root, dlog table, group order."""

    def __init__(self, p: int, c: int):
        if p == 2:
            raise EvenPrimeUnsupported("twisted characters need an odd prime")
        if c < 1:
            raise ArgumentOutOfRange("level must be >= 1")
        modulus = p**c
        if modulus > MAX_MODULUS:
            raise ModulusTooLarge(f"p^c = {modulus} exceeds {MAX_MODULUS}")
        self.p = p
        self.c = c
        self.modulus = modulus
        self.order = p ** (c - 1) * (p - 1)
        self.root = self._smallest_primitive_root()
        self.dlog = self._dlog_table()

    def _smallest_primitive_root(self) -> int:
        for g in range(2, self.modulus):
            if g % self.p == 0:
                continue
            if self._order_of(g) == self.order:
                return g
        raise ArithmeticError("no primitive root found")  # unreachable for odd p

    def _order_of(self, g: int) -> int:
        k, acc = 1, g % self.modulus
        while acc != 1:
            acc = acc * g % self.modulus
            k += 1
            if k > self.order:
                break
        return k

    def _dlog_table(self) -> dict[int, int]:
        table = {}
        acc = 1
        for k in range(self.order):
            table[acc] = k
            acc = acc * self.root % self.modulus
        return table


@lru_cache(maxsize=None)
def unit_group(p: int, c: int) -> _UnitGroup:
    return _UnitGroup(p, c)


class MultChar(Frozen):
    """A character of (Z/p^c_level)^*, chi(g) = exp(2*pi*i*index/phi(p^c)).

    conductor is the smallest c' >= 0 such that chi is trivial on the
    units congruent to 1 modulo p^c'; it is 0 exactly for the trivial
    character.
    """

    __slots__ = ("p", "c_level", "index", "conductor")

    def __init__(self, p: int, c_level: int, index: int, conductor: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c_level", c_level)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "conductor", conductor)

    def _key(self) -> tuple[int, int, int, int]:
        return (self.p, self.c_level, self.index, self.conductor)

    def __eq__(self, other: object) -> bool:
        if type(other) is not MultChar:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def order(self) -> int:
        phi = unit_group(self.p, self.c_level).order
        return phi // gcd(phi, self.index) if self.index else 1

    def is_trivial(self) -> bool:
        return self.index == 0

    def inverse(self) -> "MultChar":
        group = unit_group(self.p, self.c_level)
        return MultChar(self.p, self.c_level, (-self.index) % group.order, self.conductor)


def _conductor(group: _UnitGroup, index: int) -> int:
    if index % group.order == 0:
        return 0
    # For odd p the quotient U_k / U_c is generated by 1 + p^k, so chi is
    # trivial on U_k iff it kills that one generator.
    for k in range(1, group.c):
        gen = (1 + group.p**k) % group.modulus
        if index * group.dlog[gen] % group.order == 0:
            return k
    return group.c


def enumerate_characters(p: int, c: int) -> list[MultChar]:
    """All phi(p^c) characters of (Z/p^c)^* with their conductors.

    The primitive root is the smallest positive one, fixed per (p, c),
    so character indices are reproducible.
    """
    group = unit_group(p, c)
    return [MultChar(p, c, j, _conductor(group, j)) for j in range(group.order)]


def trivial_character(p: int, c: int = 1) -> MultChar:
    return MultChar(p, c, 0, 0)


def chi_value(chi: MultChar, u: int) -> complex:
    """chi(u) = exp(2*pi*i * index * dlog(u) / phi(p^c)) for a unit u."""
    group = unit_group(chi.p, chi.c_level)
    u %= group.modulus
    if u % chi.p == 0:
        raise NonUnitArgument(f"{u} is not a unit modulo {chi.p}")
    if chi.index == 0:
        return 1.0 + 0.0j
    k = group.dlog[u]
    return cmath.exp(1j * TWO_PI * ((chi.index * k % group.order) / group.order))


def gauss_sum(chi: MultChar) -> complex:
    """Normalized Gaussian sum of a nontrivial character.

    g_chi = (q - 1)^(-1) * q^(1 - c(chi)) * sum over units v modulo
    p^c(chi) of chi(v) * Psi(v / p^c(chi)), evaluated by direct
    summation at the conductor level.  chi(v) only depends on v modulo
    the conductor, so summing lifts at the conductor level is exact.
    """
    if chi.is_trivial():
        raise TrivialCharacter("Gaussian sum undefined for the trivial character")
    p, c = chi.p, chi.conductor
    modulus = p**c
    total = 0.0 + 0.0j
    for v in range(1, modulus):
        if v % p == 0:
            continue
        total += chi_value(chi, v) * psi_ratio(v, p, c)
    return total * p ** (1 - c) / (p - 1)
