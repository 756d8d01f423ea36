"""q-integers, q-factorials and Poincare polynomials of flag varieties."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, Tuple

from .errors import PreconditionError


class HilbertSeries:
    """Integer polynomial in t, stored sparsely by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, int] | None = None):
        self.coeffs: Dict[int, int] = {}
        if coeffs:
            for deg, c in coeffs.items():
                if c:
                    if deg < 0:
                        raise ValueError("degrees must be nonnegative")
                    self.coeffs[deg] = c

    @classmethod
    def one(cls) -> "HilbertSeries":
        return cls({0: 1})

    @classmethod
    def zero(cls) -> "HilbertSeries":
        return cls()

    def coefficient(self, deg: int) -> int:
        return self.coeffs.get(deg, 0)

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        out = dict(self.coeffs)
        for deg, c in other.coeffs.items():
            out[deg] = out.get(deg, 0) + c
        return HilbertSeries(out)

    def __mul__(self, other: "HilbertSeries") -> "HilbertSeries":
        out: Dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return HilbertSeries(out)

    def exact_div(self, other: "HilbertSeries") -> "HilbertSeries":
        """Polynomial division over the integers; inexactness is a bug."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.coeffs)
        out: Dict[int, int] = {}
        dlead = other.degree()
        clead = other.coeffs[dlead]
        while rem:
            deg = max(rem)
            if deg < dlead:
                raise ArithmeticError("inexact polynomial division")
            q, r = divmod(rem[deg], clead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[deg - dlead] = q
            for d2, c2 in other.coeffs.items():
                nd = deg - dlead + d2
                nc = rem.get(nd, 0) - q * c2
                if nc:
                    rem[nd] = nc
                else:
                    rem.pop(nd, None)
        return HilbertSeries(out)

    def eval(self, t: int = 1) -> int:
        return sum(c * t**deg for deg, c in self.coeffs.items())

    def is_palindromic(self) -> bool:
        d = self.degree()
        return all(self.coefficient(k) == self.coefficient(d - k) for k in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for deg in sorted(self.coeffs):
            c = self.coeffs[deg]
            if deg == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"t^{deg}")
            else:
                parts.append(f"{c} t^{deg}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"HilbertSeries({self.coeffs!r})"


def q_int(i: int) -> HilbertSeries:
    """The q-integer 1 + t^2 + ... + t^(2i-2); zero when i = 0."""
    if i < 0:
        raise ValueError("q_int needs a nonnegative argument")
    return HilbertSeries({2 * k: 1 for k in range(i)})


def q_factorial(i: int) -> HilbertSeries:
    """Product of the first i q-integers, with the empty product equal to 1."""
    if i < 0:
        raise ValueError("q_factorial needs a nonnegative argument")
    out = HilbertSeries.one()
    for j in range(1, i + 1):
        out = out * q_int(j)
    return out


@lru_cache(maxsize=256)
def _flag_poincare_coeffs(dvec: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """(degree, coefficient) pairs of flag_poincare(dvec), memoized by block tuple.

    Only [n]! / [d_max]! = [d_max + 1] ... [n] is multiplied out.
    """
    *rest, top = sorted(dvec) or [0]
    out = HilbertSeries.one()
    for j in range(top + 1, sum(dvec) + 1):
        out = out * q_int(j)
    for d in rest:
        out = out.exact_div(q_factorial(d))
    return tuple(out.coeffs.items())


def flag_poincare(dvec: Iterable[int]) -> HilbertSeries:
    """Poincare polynomial of the partial flag variety with block sizes dvec.

    The coefficients depend on the block sizes alone, so they are memoized
    across calls, for the 256 most recently used tuples; each call returns
    a fresh series.
    """
    dvec = tuple(int(d) for d in dvec)
    if any(d < 0 for d in dvec):
        raise ValueError("block sizes must be nonnegative")
    return HilbertSeries(dict(_flag_poincare_coeffs(dvec)))


def fact_ring_rank(dvec: Iterable[int]) -> int:
    """Multinomial coefficient n! / prod d_i!, the t=1 value of flag_poincare."""
    dvec = tuple(int(d) for d in dvec)
    n = sum(dvec)
    rank = math.factorial(n)
    for d in dvec:
        rank //= math.factorial(d)
    return rank


def ci_codim(a1: int, a2: int, b: int, c1: int, c2: int) -> int:
    """Codimension of the composition-vanishing locus in the regime where it
    is a complete intersection."""
    if min(a1, a2, b, c1, c2) < 0:
        raise ValueError("ranks must be nonnegative")
    if a1 + a2 + max(c1, c2) > b:
        raise PreconditionError("not a complete intersection regime")
    return a1 * a2 + c1 * a2 + a1 * c2
