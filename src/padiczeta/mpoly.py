"""Exact multivariate polynomial arithmetic over the integers.

Polynomials are stored as a map from exponent vectors to arbitrary
precision integer coefficients; no zero coefficient is ever kept.  The
module covers parsing of the CLI polynomial grammar, evaluation modulo
p^M, formal partial derivatives, and the shift-rescale substitution
f(x0 + p^L y) = p^e * f_L(y) used by the desingularization charts.

Coefficients live in Z, a subring of Z_p for every p, which matches the
setting where all input series have coefficients in the valuation ring.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

from .errors import (
    ArgumentOutOfRange,
    DimensionMismatch,
    Frozen,
    InvariantViolated,
    NegativeExponent,
    PolynomialSyntaxError,
    VariableOutOfRange,
    ZeroPolynomial,
)
from .padic import int_valuation


class MPoly(Frozen):
    """Integer-coefficient polynomial in n variables.

    terms maps exponent tuples of length n to nonzero coefficients.  The
    instance is immutable; all arithmetic returns new polynomials.
    """

    __slots__ = ("n", "terms", "_compiled")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        clean = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != n:
                raise DimensionMismatch(f"exponent vector {expo} has length != {n}")
            if coeff != 0:
                clean[tuple(expo)] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)
        # each term once as (coeff, ((variable index, exponent), ...)), zero exponents dropped
        compiled = tuple(
            (coeff, tuple((i, a) for i, a in enumerate(expo) if a))
            for expo, coeff in clean.items()
        )
        object.__setattr__(self, "_compiled", compiled)

    def __eq__(self, other: object) -> bool:
        if type(other) is not MPoly:
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(n: int) -> "MPoly":
        return MPoly(n, {})

    @staticmethod
    def constant(n: int, value: int) -> "MPoly":
        return MPoly(n, {(0,) * n: value})

    @staticmethod
    def variable(n: int, j: int) -> "MPoly":
        """The variable x_j, 1-based."""
        expo = tuple(1 if i == j - 1 else 0 for i in range(n))
        return MPoly(n, {expo: 1})

    # -- ring operations --------------------------------------------------

    def _same_n(self, other: "MPoly") -> None:
        if self.n != other.n:
            raise DimensionMismatch("mixed variable counts")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._same_n(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return MPoly(self.n, terms)

    def __neg__(self) -> "MPoly":
        return MPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._same_n(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, 0) + c1 * c2
        return MPoly(self.n, terms)

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ArgumentOutOfRange("negative power")
        result = MPoly.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c: int) -> "MPoly":
        return MPoly(self.n, {e: c * v for e, v in self.terms.items()})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(a == 0 for a in e) for e in self.terms)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.n, 0)

    def content_valuation(self, p: int) -> int | None:
        """Minimum p-adic valuation over the coefficients; None if zero."""
        vals = [int_valuation(c, p) for c in self.terms.values()]
        if not vals:
            return None
        return min(v for v in vals if v is not None)

    # -- evaluation and calculus -------------------------------------------

    def evaluate(self, point: Sequence[int], modulus: int | None = None) -> int:
        """Value at an integer point, optionally reduced modulo `modulus`.

        The sum is formed exactly over the integers and reduced once.
        """
        if len(point) != self.n:
            raise DimensionMismatch(f"point has {len(point)} coordinates, expected {self.n}")
        total = 0
        for term, powers in self._compiled:
            for i, a in powers:
                term *= point[i] ** a
            total += term
        return total % modulus if modulus else total

    def partial(self, j: int) -> "MPoly":
        """Formal partial derivative with respect to x_j, 1-based."""
        terms: dict[tuple[int, ...], int] = {}
        for expo, coeff in self.terms.items():
            a = expo[j - 1]
            if a == 0:
                continue
            new = list(expo)
            new[j - 1] = a - 1
            key = tuple(new)
            terms[key] = terms.get(key, 0) + coeff * a
        return MPoly(self.n, terms)

    def substitute_affine(self, shift: Sequence[int], scale: int) -> "MPoly":
        """Return f(shift + scale * y) expanded exactly over the integers.

        One pass over the terms: x_j^a becomes the binomial row of
        (shift_j + scale * y_j)^a, the coefficients C(a, k) shift_j^(a - k)
        scale^k of y_j^k with the zero ones left out, built once per
        (j, a), and each term adds the products of one entry per row.
        """
        if len(shift) != self.n:
            raise DimensionMismatch("shift vector length mismatch")
        rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
        terms: dict[tuple[int, ...], int] = {}
        for expo, coeff in self.terms.items():
            factors = []
            for j, a in enumerate(expo):
                row = rows.get((j, a))
                if row is None:
                    s = shift[j]
                    row = rows[j, a] = [
                        (k, c)
                        for k in range(a + 1)
                        if (c := math.comb(a, k) * s ** (a - k) * scale**k)
                    ]
                factors.append(row)
            for choice in itertools.product(*factors):
                value = coeff
                for _, c in choice:
                    value *= c
                key = tuple([k for k, _ in choice])
                terms[key] = terms.get(key, 0) + value
        return MPoly(self.n, terms)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda e: (-sum(e), tuple(-a for a in e)))
        pieces = []
        for expo in ordered:
            coeff = self.terms[expo]
            factors = []
            if abs(coeff) != 1 or all(a == 0 for a in expo):
                factors.append(str(abs(coeff)))
            for j, a in enumerate(expo):
                if a == 1:
                    factors.append(f"x{j + 1}")
                elif a > 1:
                    factors.append(f"x{j + 1}^{a}")
            text = "*".join(factors)
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)


# -- parser -----------------------------------------------------------------
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ['^' natural]
# base   := natural | variable | '(' expr ')'
#
# Implicit multiplication is not part of the grammar.


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, message: str, cls=PolynomialSyntaxError):
        raise cls(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer literal")
        return int(self.text[start:self.pos])

    def base(self) -> MPoly:
        ch = self.peek()
        if ch == "(":
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return inner
        if ch == "x":
            self.take()
            start = self.pos
            idx = self.integer()
            if not (1 <= idx <= self.n):
                self.pos = start
                self.error(f"variable x{idx} out of range 1..{self.n}", VariableOutOfRange)
            return MPoly.variable(self.n, idx)
        if ch.isdigit():
            return MPoly.constant(self.n, self.integer())
        self.error("expected a number, variable, or '('")

    def factor(self) -> MPoly:
        b = self.base()
        if self.peek() == "^":
            self.take()
            if self.peek() == "-":
                self.error("exponents must be nonnegative", NegativeExponent)
            expo = self.integer()
            return b**expo
        return b

    def term(self) -> MPoly:
        result = self.factor()
        while self.peek() == "*":
            self.take()
            result = result * self.factor()
        return result

    def expr(self) -> MPoly:
        negate = False
        if self.peek() == "-":
            self.take()
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                result = result + self.term()
            elif ch == "-":
                self.take()
                result = result - self.term()
            else:
                return result

    def parse(self) -> MPoly:
        result = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return result


def parse_polynomial(text: str, n: int) -> MPoly:
    """Parse the polynomial grammar into an expanded canonical MPoly.

    Variables are x1..xn; the operators are + - * ^ with parentheses, and
    ^ takes a nonnegative integer literal.  Errors carry the offset of
    the offending character.
    """
    return _Parser(text, n).parse()


# -- systems ------------------------------------------------------------------


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PolySystem(Frozen):
    """Constraints f_1..f_(l-1) cutting out the variety, plus the target f_l.

    The variety {f_1 = ... = f_(l-1) = 0} inside Z_p^n is expected to be
    a closed submanifold of dimension n - l + 1 >= 1; the target is the
    phase / congruence polynomial studied along it.  Optional resolution
    data is a user-supplied list of (N_i, v_i) pairs.
    """

    __slots__ = ("p", "n", "constraints", "target", "resolution_data")

    def __init__(
        self,
        p: int,
        n: int,
        constraints: Sequence[MPoly],
        target: MPoly,
        resolution_data: Sequence[tuple[int, int]] | None = None,
    ):
        if not _is_prime(p):
            raise ArgumentOutOfRange(f"{p} is not prime")
        constraints = tuple(constraints)
        if len(constraints) < 1:
            raise ArgumentOutOfRange("at least one constraint is required (l >= 2)")
        if len(constraints) + 1 > n:
            raise ArgumentOutOfRange(f"need l <= n, got l={len(constraints) + 1}, n={n}")
        for f in constraints:
            if f.n != n:
                raise DimensionMismatch("constraint in wrong variable count")
        if target.n != n:
            raise DimensionMismatch("target in wrong variable count")
        if target.is_zero():
            raise ZeroPolynomial("target polynomial must be nonzero")
        if target.is_constant():
            raise ArgumentOutOfRange("target must be nonconstant (it has to vanish somewhere)")
        if resolution_data is not None:
            resolution_data = tuple((int(N), int(v)) for N, v in resolution_data)
            if any(N < 1 or v < 1 for N, v in resolution_data):
                raise ArgumentOutOfRange("resolution data entries must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "resolution_data", resolution_data)

    def _key(self) -> tuple:
        return (self.p, self.n, self.constraints, self.target, self.resolution_data)

    def __eq__(self, other: object) -> bool:
        if type(other) is not PolySystem:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def l(self) -> int:
        return len(self.constraints) + 1

    @property
    def dim(self) -> int:
        """Dimension n - l + 1 of the constrained variety."""
        return self.n - self.l + 1

    def all_polys(self) -> tuple[MPoly, ...]:
        return self.constraints + (self.target,)


def system_from_strings(
    p: int,
    n: int,
    constraints: Sequence[str],
    target: str,
    resolution_data=None,
) -> PolySystem:
    return PolySystem(
        p=p,
        n=n,
        constraints=tuple(parse_polynomial(s, n) for s in constraints),
        target=parse_polynomial(target, n),
        resolution_data=resolution_data,
    )


def shift_rescale(f: MPoly, x0: Sequence[int], L: int, p: int) -> tuple[int, MPoly]:
    """Write f(x0 + p^L y) = p^e * f_L(y) with f_L not divisible by p.

    The expansion is exact integer arithmetic and e is the minimum p-adic
    valuation over the expanded coefficients, so f_L has at least one
    unit coefficient.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot shift-rescale the zero polynomial")
    if L < 0:
        raise ArgumentOutOfRange("L must be >= 0")
    expanded = f.substitute_affine(list(x0), p**L)
    e = expanded.content_valuation(p)
    if e is None:
        raise InvariantViolated("a nonzero polynomial expanded to zero")
    scale = p**e
    return e, MPoly(f.n, {expo: c // scale for expo, c in expanded.terms.items()})
