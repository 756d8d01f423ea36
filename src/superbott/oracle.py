"""Brute-force cross-checks: tableau enumeration, monomial expansion,
LR coefficients by Jacobi's bialternant formula, Jacobi-Trudi
specialization.

Everything here is exponential and guarded; it exists to validate the fast
paths in the test suite and is not wired into the CLI.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from .partitions import Partition, SkewShape
from .superschur import _h_table, _int_det

MAX_CELLS = 12


def _guard(shape: Partition | SkewShape) -> None:
    if shape.size > MAX_CELLS:
        raise ValueError(f"oracle input too large: {shape.size} cells")


def _as_skew(shape) -> SkewShape:
    if isinstance(shape, SkewShape):
        return shape
    return SkewShape(Partition(shape), Partition())


def _ssyt_fillings(shape: SkewShape, bound: int) -> Iterator[Tuple[int, ...]]:
    """Yield the content vector of every semistandard filling with entries <= bound."""
    outer, inner = shape.outer, shape.inner
    nrows = outer.length
    grid = [[0] * outer.part(r) for r in range(nrows)]
    cells = [(r, c) for r in range(nrows) for c in range(inner.part(r), outer.part(r))]
    content = [0] * bound

    def fill(k: int) -> Iterator[Tuple[int, ...]]:
        if k == len(cells):
            yield tuple(content)
            return
        r, c = cells[k]
        lo = grid[r][c - 1] if c > inner.part(r) else 1  # rows weakly increase
        if r and c >= inner.part(r - 1):
            lo = max(lo, grid[r - 1][c] + 1)  # columns strictly increase
        for v in range(lo, bound + 1):
            grid[r][c] = v
            content[v - 1] += 1
            yield from fill(k + 1)
            content[v - 1] -= 1

    yield from fill(0)


@lru_cache(maxsize=1024)
def schur_monomials(shape_key, nvars: int) -> Mapping[Tuple[int, ...], int]:
    """Monomial expansion of a (skew) Schur polynomial in nvars variables.

    Memoized across calls; every caller shares the result, so it is a
    read-only view.
    """
    outer, inner = shape_key
    shape = SkewShape(Partition(outer), Partition(inner))
    _guard(shape)
    out: Dict[Tuple[int, ...], int] = {}
    for content in _ssyt_fillings(shape, nvars):
        out[content] = out.get(content, 0) + 1
    return MappingProxyType(out)


def _monomials(shape, nvars: int) -> Mapping[Tuple[int, ...], int]:
    shape = _as_skew(shape)
    return schur_monomials((tuple(shape.outer), tuple(shape.inner)), nvars)


def ssyt_count(shape, bound: int) -> int:
    """Number of semistandard tableaux of the shape with entries <= bound."""
    return sum(_monomials(shape, bound).values())


@lru_cache(maxsize=16)
def _schur_expand_cached(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    nvars = max(1, lam.length + mu.length)
    mono_mu = _monomials(mu, nvars)
    _guard(lam)
    shifted = [lam.part(i) + nvars - 1 - i for i in range(nvars)]
    out: Dict[Partition, int] = {}
    for e, c in mono_mu.items():
        v = [a + b for a, b in zip(shifted, e)]
        if len(set(v)) < nvars:
            continue  # a repeated entry: the alternant vanishes
        inversions = sum(v[i] < v[j] for i in range(nvars) for j in range(i + 1, nvars))
        nu = Partition(x - (nvars - 1 - i) for i, x in enumerate(sorted(v, reverse=True)))
        out[nu] = out.get(nu, 0) + (-c if inversions % 2 else c)
    return MappingProxyType({nu: c for nu, c in out.items() if c})


def schur_expand_bruteforce(lam, mu) -> Mapping[Partition, int]:
    """Expand s_lam * s_mu into Schur polynomials by Jacobi's bialternant formula.

    In N = max(1, l(lam) + l(mu)) variables s_lam = a_(lam+delta) / a_delta,
    with delta = (N-1, ..., 1, 0) and a_v the alternant det(x_i^(v_j))
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3).  Since s_mu
    is symmetric, a_(lam+delta) * s_mu = sum c * a_(lam+delta+e) over the
    monomials c x^e of s_mu.  An alternant with a repeated entry vanishes,
    and otherwise a_v = (-1)^inversions(v) a_(sort(v)), so each monomial
    adds its signed c to the coefficient of s_nu, nu = sort(v) - delta.
    Every nu of the product has at most N rows, so nothing is lost.  No LR
    rule is used.  The last few expansions are cached, so that
    ``lr_bruteforce`` over every nu of one (lam, mu) expands once; every
    caller shares the result, so it is a read-only view.
    """
    return _schur_expand_cached(Partition(lam), Partition(mu))


def lr_bruteforce(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient by monomial expansion."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size + mu.size != nu.size:
        return 0
    return schur_expand_bruteforce(lam, mu).get(nu, 0)


def _jt_matrix(h: Sequence, gamma: Sequence[int], inner: Sequence[int] = ()) -> list:
    """Jacobi-Trudi matrix h(gamma_j - inner_i - j + i), every entry read from h."""
    n = len(gamma)
    starts = [gamma[j] - j for j in range(n)]
    inner = tuple(inner[:n]) + (0,) * (n - len(inner))
    return [[h[k] if k >= 0 else 0 for k in (x + i - inner[i] for x in starts)] for i in range(n)]


def jacobi_trudi_specialize(gamma: Sequence[int], values: Sequence[Fraction], inner=()) -> Fraction:
    """Jacobi-Trudi determinant det h(gamma_j - inner_i - j + i) at the values.

    gamma may be any integer sequence with nonnegative entries; for a
    non-partition sequence the determinant straightens to a signed Schur
    polynomial or zero, matching the Euler characteristic of the
    corresponding homogeneous bundle.  Every entry is read from one integer
    table of h_0, ..., h_{max(gamma) + n - 1} at the values scaled by the
    lcm D of their denominators.  Every nonzero term of the determinant has
    degree |gamma| - |inner[:n]|, so the determinant at the scaled points is
    D to that power times the one at the values; a negative degree leaves
    no nonzero term.
    """
    gamma = tuple(gamma)
    if not gamma:
        return Fraction(1)
    inner = Partition(inner)
    degree = sum(gamma) - sum(inner[: len(gamma)])
    if degree < 0:
        return Fraction(0)
    points, scale = _integer_points(values)
    h = _h_table(max(gamma) + len(gamma) - 1, points)
    return Fraction(_int_det(_jt_matrix(h, gamma, inner)), scale**degree)


def specialize_schur(shape, values: Sequence[Fraction]) -> Fraction:
    """Evaluate a (skew) Schur polynomial at rational points via Jacobi-Trudi."""
    shape = _as_skew(shape)
    return jacobi_trudi_specialize(tuple(shape.outer), values, inner=shape.inner)


def specialize_schur_ssyt(shape, values: Sequence[Fraction]) -> Fraction:
    """Evaluate a (skew) Schur polynomial by summing over its tableaux."""
    monomials = _monomials(shape, len(values)).items()
    return sum((c * math.prod(Fraction(x) ** e for x, e in zip(values, content)) for content, c in monomials), Fraction(0))


def _shift(w: Tuple[int, ...]) -> Tuple[int, Partition]:
    """The shift k = max(0, -min(w)) and the partition w + k*(1, ..., 1)."""
    k = max(0, -min(w, default=0))
    return k, Partition(x + k for x in w)


def specialize_weight(w: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Evaluate a rational GL character via tableaux (no determinant).

    w is shifted by k*(1,...,1) into a partition, that Schur polynomial is
    summed over its tableaux, and the result is divided by the k-th power
    of the product of the values.
    """
    w = tuple(w)
    if len(w) != len(values):
        raise ValueError("need one value per weight entry")
    k, gamma = _shift(w)
    result = specialize_schur_ssyt(gamma, values)
    return result / math.prod(map(Fraction, values)) ** k if k else result


def _integer_points(values: Sequence[Fraction]) -> Tuple[list, int]:
    """The values times the lcm D of their denominators, and D."""
    values = [Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _weight_values(weights, values: Sequence[Fraction]) -> Tuple[Dict[Tuple[int, ...], int], int]:
    """Evaluate rational GL characters of one rank at the same points, as
    integer numerators over one common integer denominator.

    Each weight w is shifted by k = max(0, -min(w)) into the partition
    gamma = w + k*(1, ..., 1).  The points are scaled by the lcm D of their
    denominators to integers, and every determinant reads one integer h
    table of the scaled points, sized for the largest gamma_1 + l(gamma) - 1.
    h_j is homogeneous of degree j, so the Jacobi-Trudi determinant J of
    gamma at the scaled points is D^|gamma| s_gamma, and with S the product
    of the scaled points, s_w = J / (D^|w| S^k).  Over the common
    denominator D^e S^K, e = max(0, max |w|) and K = max k, the numerator
    of w is J * D^(e - |w|) * S^(K - k).
    """
    shifted = []
    for w in weights:
        if len(w) != len(values):
            raise ValueError("need one value per weight entry")
        if any(a < b for a, b in zip(w, w[1:])):
            raise ValueError(f"weight is not dominant: {w}")
        k = max(0, -min(w, default=0))
        gamma = [x + k for x in w]
        while gamma and not gamma[-1]:
            gamma.pop()
        shifted.append((w, sum(w), k, gamma))
    points, scale = _integer_points(values)
    h = _h_table(max([0] + [g[0] + len(g) - 1 for _, _, _, g in shifted if g]), points)
    prod = math.prod(points)
    e = max([0] + [size for _, size, _, _ in shifted])
    top_k = max([0] + [k for _, _, k, _ in shifted])
    out = {}
    for w, size, k, gamma in shifted:
        out[w] = _int_det(_jt_matrix(h, gamma)) * scale ** (e - size) * prod ** (top_k - k)
    return out, scale**e * prod**top_k


def specialize_weight_jt(w: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Same as specialize_weight but through the Jacobi-Trudi determinant."""
    w = tuple(w)
    num, den = _weight_values([w], values)
    return Fraction(num[w], den)


def specialize_character(char, evens: Sequence[Fraction], odds: Sequence[Fraction]) -> Fraction:
    """Evaluate a VirtualCharacter at rational points, one per variable.

    Each distinct even and odd weight is evaluated once, by ``_weight_values``,
    as an integer numerator over one denominator per side; the products of
    the numerators are summed as integers and divided once.
    """
    even, even_den = _weight_values({w0 for (w0, _), _ in char.items()}, evens)
    odd, odd_den = _weight_values({w1 for (_, w1), _ in char.items()}, odds)
    total = 0
    for (w0, w1), mult in char.items():
        total += mult * even[w0] * odd[w1]
    return Fraction(total, even_den * odd_den)
