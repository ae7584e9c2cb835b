"""Indicator supports for the test function Phi.

Phi is restricted to indicators of finite unions of cosets of
(p^level Z_p)^n; the default is the unit polydisc (level 0, one coset).
These are exactly the supports the decomposition machinery needs, and
membership is decidable from finitely many digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence


@dataclass(frozen=True)
class Support:
    """Union of cosets center + (p^level Z_p)^n, centers reduced mod p^level."""

    n: int
    level: int = 0
    centers: tuple[tuple[int, ...], ...] = ((),)

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.level == 0:
            object.__setattr__(self, "centers", (tuple([0] * self.n),))

    @staticmethod
    def unit_polydisc(n: int) -> "Support":
        return Support(n=n, level=0)

    @staticmethod
    def cosets(n: int, level: int, centers: Sequence[Sequence[int]], p: int) -> "Support":
        modulus = p**level
        reduced = sorted({tuple(c % modulus for c in center) for center in centers})
        for center in reduced:
            if len(center) != n:
                raise ValueError("coset center has wrong dimension")
        return Support(n=n, level=level, centers=tuple(reduced))

    def is_full(self) -> bool:
        return self.level == 0

    @lru_cache(maxsize=None)
    def projected(self, p: int, j: int) -> frozenset[tuple[int, ...]]:
        """Center classes reduced modulo p^j."""
        modulus = p**j
        return frozenset(tuple(c % modulus for c in center) for center in self.centers)

    def admits_prefix(self, point: Sequence[int], j: int, p: int) -> bool:
        """Can some point of the support reduce to `point` modulo p^j?"""
        if self.level == 0:
            return True
        k = min(j, self.level)
        modulus = p**k
        return tuple(x % modulus for x in point) in self.projected(p, k)
