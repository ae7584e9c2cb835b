"""Exact computation of congruence counts, local zeta data, and exponential
sums along p-adic submanifolds of Z_p^n, with brute-force oracles and
certified cross-checks at desk scale."""

__version__ = "0.1.0"
