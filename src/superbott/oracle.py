"""Brute-force cross-checks: tableau enumeration, monomial expansion,
Jacobi-Trudi specialization.

Everything here is exponential and guarded; it exists to validate the fast
paths in the test suite and is not wired into the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, Sequence, Tuple

from .partitions import Partition, SkewShape

MAX_CELLS = 12


def _guard(shape: SkewShape) -> None:
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
    cells = []
    for r in range(nrows):
        for c in range(inner.part(r), outer.part(r)):
            cells.append((r, c))
    content = [0] * bound

    def fill(k: int) -> Iterator[Tuple[int, ...]]:
        if k == len(cells):
            yield tuple(content)
            return
        r, c = cells[k]
        lo = 1
        if c > 0 and c - 1 >= inner.part(r):
            lo = max(lo, grid[r][c - 1])  # rows weakly increase
        if r > 0 and c < outer.part(r - 1) and c >= inner.part(r - 1):
            lo = max(lo, grid[r - 1][c] + 1)  # columns strictly increase
        for v in range(lo, bound + 1):
            grid[r][c] = v
            content[v - 1] += 1
            yield from fill(k + 1)
            content[v - 1] -= 1
            grid[r][c] = 0

    yield from fill(0)


def ssyt_count(shape, bound: int) -> int:
    """Number of semistandard tableaux of the shape with entries <= bound."""
    shape = _as_skew(shape)
    _guard(shape)
    if bound <= 0:
        return 1 if shape.size == 0 else 0
    return sum(1 for _ in _ssyt_fillings(shape, bound))


@lru_cache(maxsize=None)
def schur_monomials(shape_key, nvars: int) -> Dict[Tuple[int, ...], int]:
    """Monomial expansion of a (skew) Schur polynomial in nvars variables."""
    outer, inner = shape_key
    shape = SkewShape(Partition(outer), Partition(inner))
    _guard(shape)
    out: Dict[Tuple[int, ...], int] = {}
    for content in _ssyt_fillings(shape, nvars):
        out[content] = out.get(content, 0) + 1
    return out


def _monomials(shape, nvars: int) -> Dict[Tuple[int, ...], int]:
    shape = _as_skew(shape)
    return schur_monomials((tuple(shape.outer), tuple(shape.inner)), nvars)


@lru_cache(maxsize=16)
def _schur_expand_cached(lam: Partition, mu: Partition) -> Tuple[Tuple[Partition, int], ...]:
    nvars = max(1, lam.length + mu.length)
    prod: Dict[Tuple[int, ...], int] = {}
    for e1, c1 in _monomials(lam, nvars).items():
        for e2, c2 in _monomials(mu, nvars).items():
            key = tuple(a + b for a, b in zip(e1, e2))
            prod[key] = prod.get(key, 0) + c1 * c2
    out = []
    while prod:
        best = max(e for e in prod if all(a >= b for a, b in zip(e, e[1:])))
        coeff = prod[best]
        nu = Partition(best)
        out.append((nu, coeff))
        for e, c in _monomials(nu, nvars).items():
            nc = prod.get(e, 0) - coeff * c
            if nc:
                prod[e] = nc
            else:
                prod.pop(e, None)
    return tuple(out)


def schur_expand_bruteforce(lam, mu) -> Dict[Partition, int]:
    """Expand s_lam * s_mu into Schur polynomials by monomial elimination.

    The product is computed as a plain polynomial and peeled from the
    lexicographically largest weakly decreasing exponent downwards; this
    is triangular with respect to dominance order.  The last few
    expansions are cached, so that ``lr_bruteforce`` over every nu of one
    (lam, mu) expands once.
    """
    return dict(_schur_expand_cached(Partition(lam), Partition(mu)))


def lr_bruteforce(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient by monomial expansion."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size + mu.size != nu.size:
        return 0
    return schur_expand_bruteforce(lam, mu).get(nu, 0)


def complete_homogeneous(k: int, values: Sequence[Fraction]) -> Fraction:
    """h_k specialized at the given rational values; zero for k < 0."""
    if k < 0:
        return Fraction(0)
    table = [Fraction(0)] * (k + 1)
    table[0] = Fraction(1)
    for x in values:
        for j in range(1, k + 1):
            table[j] += Fraction(x) * table[j - 1]
    return table[k]


def _det(mat) -> Fraction:
    n = len(mat)
    mat = [row[:] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = Fraction(1) / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                for c in range(col, n):
                    mat[r][c] -= f * mat[col][c]
    return det


def jacobi_trudi_specialize(gamma: Sequence[int], values: Sequence[Fraction], inner=()) -> Fraction:
    """Jacobi-Trudi determinant det h(gamma_j - inner_i - j + i) at the values.

    gamma may be any integer sequence with nonnegative entries; for a
    non-partition sequence the determinant straightens to a signed Schur
    polynomial or zero, matching the Euler characteristic of the
    corresponding homogeneous bundle.
    """
    gamma = tuple(gamma)
    inner = Partition(inner)
    n = len(gamma)
    if n == 0:
        return Fraction(1)
    mat = [
        [complete_homogeneous(gamma[j] - inner.part(i) - j + i, values) for j in range(n)]
        for i in range(n)
    ]
    return _det(mat)


def specialize_schur(shape, values: Sequence[Fraction]) -> Fraction:
    """Evaluate a (skew) Schur polynomial at rational points via Jacobi-Trudi."""
    shape = _as_skew(shape)
    return jacobi_trudi_specialize(tuple(shape.outer), values, inner=shape.inner)


def specialize_schur_ssyt(shape, values: Sequence[Fraction]) -> Fraction:
    """Evaluate a (skew) Schur polynomial by summing over its tableaux."""
    shape = _as_skew(shape)
    _guard(shape)
    total = Fraction(0)
    for content in _ssyt_fillings(shape, len(values)):
        term = Fraction(1)
        for x, e in zip(values, content):
            term *= Fraction(x) ** e
        total += term
    return total


def _shift_to_partition(w: Tuple[int, ...]):
    k = max(0, -min(w))
    return Partition(x + k for x in w), k


def specialize_weight(w: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Evaluate a rational GL character (possibly negative weight) via tableaux."""
    w = tuple(w)
    if len(w) != len(values):
        raise ValueError("need one value per weight entry")
    if not w:
        return Fraction(1)
    lam, k = _shift_to_partition(w)
    result = specialize_schur_ssyt(lam, values)
    if k:
        denom = Fraction(1)
        for x in values:
            denom *= Fraction(x) ** k
        result /= denom
    return result


def specialize_weight_jt(w: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Same as specialize_weight but through the determinant formula."""
    w = tuple(w)
    if len(w) != len(values):
        raise ValueError("need one value per weight entry")
    if not w:
        return Fraction(1)
    lam, k = _shift_to_partition(w)
    result = jacobi_trudi_specialize(tuple(lam.part(i) for i in range(len(w))), values)
    if k:
        denom = Fraction(1)
        for x in values:
            denom *= Fraction(x) ** k
        result /= denom
    return result


def specialize_character(char, evens: Sequence[Fraction], odds: Sequence[Fraction]) -> Fraction:
    """Evaluate a VirtualCharacter at rational points, one per variable."""
    total = Fraction(0)
    for (w0, w1), mult in char.items():
        total += mult * specialize_weight_jt(w0, evens) * specialize_weight_jt(w1, odds)
    return total
