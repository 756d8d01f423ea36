"""Brute-force cross-checks: tableau enumeration, monomial expansion,
Jacobi-Trudi specialization.

Everything here is exponential and guarded; it exists to validate the fast
paths in the test suite and is not wired into the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from .partitions import Partition, SkewShape, partitions_of
from .superschur import _fraction_det, _h_table

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


def _strips_removed(shape: Tuple[int, ...], size: int) -> Iterator[Tuple[int, ...]]:
    """Every inner shape sigma such that shape/sigma is a horizontal strip of the given size."""
    n = len(shape)

    def rec(i: int, left: int, acc: list) -> Iterator[Tuple[int, ...]]:
        if i == n:
            if left == 0:
                yield tuple(x for x in acc if x)
            return
        below = shape[i + 1] if i + 1 < n else 0
        for s in range(max(below, shape[i] - left), shape[i] + 1):
            acc.append(s)
            yield from rec(i + 1, left - (shape[i] - s), acc)
            acc.pop()

    yield from rec(0, size, [])


@lru_cache(maxsize=4096)
def _kostka(shape: Tuple[int, ...], content: Tuple[int, ...]) -> int:
    """Kostka number: semistandard tableaux of the shape with the given content.

    The cells holding the largest label form a horizontal strip of
    content[-1] cells; removing it leaves a tableau of the rest of the
    content, so the count recurses on the content's length.
    """
    if not content:
        return 0 if shape else 1
    if len(shape) > len(content):
        return 0
    rest = content[:-1]
    return sum(_kostka(inner, rest) for inner in _strips_removed(shape, content[-1]))


def _fitting(trie: dict, kappa: Tuple[int, ...]) -> list:
    """(c, kappa - e) for every monomial c x^e of the trie with e <= kappa entrywise.

    The trie has one level of dicts per exponent, with ascending keys at
    every level, so each level stops at the first exponent past kappa's.
    """
    level = [(trie, ())]
    for k in kappa:
        nxt = []
        for node, rest in level:
            for x, child in node.items():
                if x > k:
                    break
                nxt.append((child, rest + (k - x,)))
        level = nxt
    return level


@lru_cache(maxsize=16)
def _schur_expand_cached(lam: Partition, mu: Partition) -> Tuple[Tuple[Partition, int], ...]:
    nvars = max(1, lam.length + mu.length)
    mono_mu = _monomials(mu, nvars)
    # inserted in lex order, so the keys of every level ascend
    trie: dict = {}
    for e, c in sorted(_monomials(lam, nvars).items()):
        node = trie
        for x in e[:-1]:
            node = node.setdefault(x, {})
        node[e[-1]] = c
    out = []
    for kappa in partitions_of(lam.size + mu.size, max_length=nvars):
        padded = kappa + (0,) * (nvars - kappa.length)
        coeff = sum(c * mono_mu.get(rest, 0) for c, rest in _fitting(trie, padded))
        coeff -= sum(c * _kostka(rho, kappa) for rho, c in out)
        if coeff:
            out.append((kappa, coeff))
    return tuple(out)


def schur_expand_bruteforce(lam, mu) -> Dict[Partition, int]:
    """Expand s_lam * s_mu into Schur polynomials by Kostka triangularity.

    The coefficient of x^kappa in the product is the sum over the
    monomials x^e of s_lam with e <= kappa entrywise of that of
    x^(kappa - e) in s_mu, and only those e are visited; it equals
    sum_nu c_nu K(nu, kappa), where K(nu, kappa) is zero unless nu
    dominates kappa.  Peeling the dominant kappa in lex-decreasing order
    therefore leaves c_kappa.  No LR rule is used.  The last few expansions
    are cached, so that ``lr_bruteforce`` over every nu of one (lam, mu)
    expands once.
    """
    return dict(_schur_expand_cached(Partition(lam), Partition(mu)))


def lr_bruteforce(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient by monomial expansion."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size + mu.size != nu.size:
        return 0
    return schur_expand_bruteforce(lam, mu).get(nu, 0)


def _jt_det(h: Sequence[Fraction], gamma: Tuple[int, ...], inner: Partition) -> Fraction:
    """Jacobi-Trudi determinant det h(gamma_j - inner_i - j + i), every entry read from h."""
    n = len(gamma)
    zero = Fraction(0)
    mat = [
        [h[k] if k >= 0 else zero for k in (gamma[j] - inner.part(i) - j + i for j in range(n))]
        for i in range(n)
    ]
    return _fraction_det(mat)


def jacobi_trudi_specialize(gamma: Sequence[int], values: Sequence[Fraction], inner=()) -> Fraction:
    """Jacobi-Trudi determinant det h(gamma_j - inner_i - j + i) at the values.

    gamma may be any integer sequence with nonnegative entries; for a
    non-partition sequence the determinant straightens to a signed Schur
    polynomial or zero, matching the Euler characteristic of the
    corresponding homogeneous bundle.  Every entry is read from one table
    of h_0, ..., h_{max(gamma) + n - 1} at the values.
    """
    gamma = tuple(gamma)
    if not gamma:
        return Fraction(1)
    return _jt_det(_h_table(max(gamma) + len(gamma) - 1, values), gamma, Partition(inner))


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


def specialize_weight(w: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Evaluate a rational GL character via tableaux (no determinant).

    w is shifted by k*(1,...,1) into a partition, that Schur polynomial is
    summed over its tableaux, and the result is divided by the k-th power
    of the product of the values.
    """
    w = tuple(w)
    if len(w) != len(values):
        raise ValueError("need one value per weight entry")
    if not w:
        return Fraction(1)
    k = max(0, -min(w))
    result = specialize_schur_ssyt(Partition(x + k for x in w), values)
    if k:
        denom = Fraction(1)
        for x in values:
            denom *= Fraction(x) ** k
        result /= denom
    return result


def _weight_values(weights, values: Sequence[Fraction]) -> Dict[Tuple[int, ...], Fraction]:
    """Evaluate rational GL characters of one rank at the same points.

    Each weight w is shifted by k = max(0, -min(w)) into a partition gamma.
    Every Jacobi-Trudi determinant reads one h table, sized for the largest
    gamma_1 + l(gamma) - 1, and the shift is undone by dividing by the k-th
    power of the product of the values.
    """
    shifted = {}
    for w in weights:
        if len(w) != len(values):
            raise ValueError("need one value per weight entry")
        k = max(0, -min(w, default=0))
        shifted[w] = (k, Partition(x + k for x in w))
    h = _h_table(max([0] + [g.part(0) + g.length - 1 for _, g in shifted.values()]), values)
    prod = Fraction(1)
    for x in values:
        prod *= x
    out = {}
    for w, (k, gamma) in shifted.items():
        value = _jt_det(h, gamma, Partition())
        out[w] = value / prod**k if k else value
    return out


def specialize_weight_jt(w: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Same as specialize_weight but through the Jacobi-Trudi determinant."""
    w = tuple(w)
    return _weight_values([w], values)[w]


def specialize_character(char, evens: Sequence[Fraction], odds: Sequence[Fraction]) -> Fraction:
    """Evaluate a VirtualCharacter at rational points, one per variable.

    Each distinct even and odd weight is evaluated once, every determinant
    of a side read from one h table of that side's points.
    """
    even = _weight_values({w0 for (w0, _), _ in char.items()}, evens)
    odd = _weight_values({w1 for (_, w1), _ in char.items()}, odds)
    total = Fraction(0)
    for (w0, w1), mult in char.items():
        total += mult * even[w0] * odd[w1]
    return total
