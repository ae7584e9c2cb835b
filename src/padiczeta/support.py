"""Indicator supports for the test function Phi.

Phi is restricted to indicators of finite unions of cosets of
(p^level Z_p)^n, level >= 1, or to the unit polydisc, which every
caller spells None.  These are exactly the supports the decomposition
machinery needs, and membership is decidable from finitely many digits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import ArgumentOutOfRange, Frozen


class Support(Frozen):
    """Union of cosets center + (p^level Z_p)^n, centers reduced mod p^level."""

    __slots__ = ("n", "level", "centers")

    def __init__(self, n: int, level: int, centers: tuple[tuple[int, ...], ...]):
        if level < 1:
            raise ArgumentOutOfRange("level must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "centers", centers)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Support:
            return NotImplemented
        return (self.n, self.level, self.centers) == (other.n, other.level, other.centers)

    def __hash__(self):
        return hash((self.n, self.level, self.centers))

    @staticmethod
    def cosets(n: int, level: int, centers: Sequence[Sequence[int]], p: int) -> Support | None:
        """The union of the cosets at the centers; None, the unit polydisc, at level 0."""
        if not centers:
            raise ArgumentOutOfRange("a coset support needs at least one center")
        if any(len(center) != n for center in centers):
            raise ArgumentOutOfRange("coset center has wrong dimension")
        if level == 0:
            return None
        modulus = p**level
        reduced = sorted({tuple(c % modulus for c in center) for center in centers})
        return Support(n=n, level=level, centers=tuple(reduced))

    @lru_cache(maxsize=None)
    def projected(self, p: int, j: int) -> frozenset[tuple[int, ...]]:
        """Center classes reduced modulo p^j."""
        modulus = p**j
        return frozenset(tuple(c % modulus for c in center) for center in self.centers)

    def admits_prefix(self, point: Sequence[int], j: int, p: int) -> bool:
        """Can some point of the support reduce to `point` modulo p^j?"""
        k = min(j, self.level)
        modulus = p**k
        return tuple(x % modulus for x in point) in self.projected(p, k)
