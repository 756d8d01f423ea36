"""Schur functors of super spaces and rational Schur functor characters."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import index, neg
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .characters import (
    GLWeight,
    VirtualCharacter,
    _lr_count,
    _merge,
    _rational_tensor_cached,
    dual_weight,
    pad_weight,
)
from .errors import PreconditionError
from .partitions import Partition, _HashCons, _trusted, _Value, contains, partitions_in_box, subpartitions


class SuperDim(_Value):
    """Dimension pair m|n of a super vector space."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        self._init(index(m), index(n))
        if m < 0 or n < 0:
            raise ValueError("dimensions must be nonnegative")

    def shifted(self) -> "SuperDim":
        return SuperDim(self.n, self.m)


class SuperWeight(NamedTuple):
    """Weight of gl(m|n) split into even and odd blocks."""

    even: GLWeight
    odd: GLWeight


# The odd factors of one shape: (alpha, factor id) pairs, alpha a plain tuple.
_OddFactors = Tuple[Tuple[Tuple[int, ...], int], ...]

# A product of odd factors: its weights and, in the same order, their
# multiplicities.
_OddProduct = Tuple[Tuple[GLWeight, ...], Tuple[int, ...]]

# Terms of a restricted super Schur functor: ((w0, w1), multiplicity) pairs.
_SuperTerms = Tuple[Tuple[Tuple[GLWeight, GLWeight], int], ...]

# Each distinct odd factor X_alpha on GL(n), ((delta padded to n, c), ...)
# with c = c^lam_{alpha, delta^T}, has one plain int id in _factor_table,
# so ``_odd_product`` hashes two ints, and every memo the closed form reads
# holds only plain tuples and ints.  The readers of the ids are
# ``rational_schur_char`` and a miss of ``_super_schur_terms``.
_factor_table = _HashCons()


@_factor_table.holds
@lru_cache(maxsize=1024)
def _odd_factors(lam: Tuple[int, ...], n: int) -> _OddFactors:
    """The odd factors X_alpha = sum_delta c^lam_{alpha, delta^T} s_delta of
    lam on GL(n) (Macdonald I.5), one per alpha inside lam, as pairs of
    alpha and the id of X_alpha in _factor_table.

    ``_lr_pairs(lam)`` grouped by alpha, in its order, with each delta of at
    most n rows padded to a GL(n) weight; an alpha with no such delta is
    left out.  The table depends on (lam, n) alone, so it is memoized for
    the 1024 most recently used keys and shared by the super Schur
    restriction and both sides of the closed form; lam is a plain tuple.
    Only a reader clears the ids, at its start, never this function.
    """
    groups: Dict[Partition, List[Tuple[GLWeight, int]]] = {}
    for delta, alpha, c in _lr_pairs(lam):
        if delta.length <= n:
            groups.setdefault(alpha, []).append((pad_weight(delta, n), c))
    return tuple((tuple(alpha), _factor_table.id(tuple(x))) for alpha, x in groups.items())


@_factor_table.holds
@lru_cache(maxsize=16384)
def _odd_product(x: int, y: int) -> _OddProduct:
    """The GL(n) product X * Y^* of two odd factors, given by their ids, as
    two parallel tuples (weights, multiplicities).

    y is dualized here.  The product depends on the two factors alone, and
    factors of different shapes are often equal, so it is memoized for the
    16384 most recently used pairs of ids.
    """
    odd: Dict[GLWeight, int] = {}
    factors = _factor_table.values
    x_terms = factors[x]
    for gamma_w, c2 in factors[y]:
        gamma_w = dual_weight(gamma_w)
        for delta_w, c1 in x_terms:
            c12 = c1 * c2
            for w1, c3 in _rational_tensor_cached(gamma_w, delta_w):
                odd[w1] = odd.get(w1, 0) + c12 * c3
    return tuple(odd), tuple(odd.values())


@lru_cache(maxsize=2 ** 15)
def _even_weight(alpha: Tuple[int, ...], beta: Tuple[int, ...], m: int) -> GLWeight | None:
    """``classical_rational_weight(alpha, beta, m)`` for plain tuples, one
    shared tuple per key.

    Each (alpha, beta) pair of a closed form reads its w0 here, so a key
    (w0, w1) of its character holds two old, untracked tuples and is
    untracked when it is first collected.  Memoized for the 32768 most recently
    used keys (one seed-1 pass of the closed-form benchmark asks for about
    23,100).
    """
    return classical_rational_weight(alpha, beta, m)


@lru_cache(maxsize=1024)
def _super_schur_terms(lam: Partition, m: int, n: int) -> _SuperTerms:
    """The terms of ``super_schur_decompose(lam, SuperDim(m, n))``, as a tuple.

    The restriction depends on (lam, m, n) alone, so it is memoized across
    calls, for the 1024 most recently used keys; the first page reads this
    tuple directly, and no caller can change it.  A miss is a reader of
    the factor ids.
    """
    _factor_table.start()
    # each alpha, and each delta of one skew expansion, occurs once: no key repeats
    terms = []
    for alpha, x in _odd_factors(tuple(lam), n):
        if len(alpha) <= m:
            w0 = pad_weight(alpha, m)
            terms.extend(((w0, delta_w), c) for delta_w, c in _factor_table.values[x])
    return tuple(terms)


def super_schur_decompose(lam: Partition, d: SuperDim) -> VirtualCharacter:
    """Restrict S_lam(V0|V1) to GL(V0) x GL(V1).

    The sum runs over alpha inside lam with at most m rows; the companion
    odd factor is s_{(lam/alpha)^T} = sum_delta c^lam_{alpha, delta^T} s_delta
    (Macdonald I.5), truncated to at most n rows.  Both are read from
    ``_odd_factors(lam, n)``, the table the closed form reads.  Each call
    returns a fresh character over ``_super_schur_terms``.
    """
    return VirtualCharacter._trusted(d.m, d.n, dict(_super_schur_terms(Partition(lam), d.m, d.n)))


def _lr_pairs(lam: Partition) -> Iterator[Tuple[Partition, Partition, int]]:
    """Triples (delta, alpha, c) with c = c^lam_{alpha, delta^T} nonzero."""
    outer = tuple(lam)
    for alpha in subpartitions(lam):
        for dt, c in _lr_count(outer, tuple(alpha)):
            yield _trusted(dt).transpose(), alpha, c


def classical_rational_weight(alpha: Partition, beta: Partition, m: int) -> GLWeight | None:
    """Highest weight (alpha, 0, ..., 0, -beta reversed) of length m.

    Returns None when the blocks collide (the functor vanishes).
    """
    gap = m - len(alpha) - len(beta)
    if gap < 0:
        return None
    return alpha + (0,) * gap + tuple(map(neg, beta[::-1]))


def rational_schur_char(lam: Partition, mu: Partition, d: SuperDim) -> VirtualCharacter:
    """Character of the rational Schur functor indexed by (lam; mu) on m|n.

    Requires the complete-intersection bound m >= l(lam) + l(mu) - 1; under
    it the result is an honest (nonnegative) character.

    The sum runs over alpha inside lam and beta inside mu.  The even weight
    w0 = (alpha, 0, ..., 0, -beta reversed) determines the pair: its
    positive entries are alpha and its negative ones beta.  So every term
    (w0, w1) comes from exactly one (alpha, beta), and its odd part is the
    GL(n) product X_alpha * Y_beta, where X_alpha = sum_delta
    c^lam_{alpha, delta^T} s_delta and Y_beta = sum_gamma
    c^mu_{beta, gamma^T} s_gamma^*.  Every coefficient is positive, so no
    term cancels and each is written once.

    X_alpha is read from ``_odd_factors(lam, n)`` and Y_beta from
    ``_odd_factors(mu, n)``, so the LR work of a shape is shared by every
    call on it, and their product from ``_odd_product`` by the two factor
    ids, so equal factors of different shapes share one product.  w0 is
    read from ``_even_weight``, one shared tuple per (alpha, beta, m).  So
    each key (w0, w1) holds two tuples that the memos keep, and no object
    the memos keep is one the cyclic collector tracks.  A call is a reader
    of the factor ids: it may clear them as it starts, never later.
    """
    lam, mu = Partition(lam), Partition(mu)
    m, n = d.m, d.n
    if m < lam.length + mu.length - 1:
        raise PreconditionError("below complete-intersection bound")
    _factor_table.start()
    xs = _odd_factors(tuple(lam), n)
    terms: Dict[Tuple[GLWeight, GLWeight], int] = {}
    for beta, y in _odd_factors(tuple(mu), n):
        for alpha, x in xs:
            w0 = _even_weight(alpha, beta, m)
            if w0 is None:
                continue
            weights, coeffs = _odd_product(x, y)
            for w1, c in zip(weights, coeffs):
                terms[w0, w1] = c
    return VirtualCharacter._trusted(m, n, terms)


def _skew_super_char(outer: Partition, inner: Partition, d: SuperDim) -> VirtualCharacter:
    """Character of the skew super Schur functor of outer/inner on m|n."""
    terms: Dict[Tuple[GLWeight, GLWeight], int] = {}
    for nu, c in _lr_count(tuple(outer), tuple(inner)):
        _merge(terms, super_schur_decompose(_trusted(nu), d).terms, c)
    return VirtualCharacter._trusted(d.m, d.n, terms)


def _box(lam: Partition, mu: Partition, p: int | None, q: int | None) -> Tuple[int, int]:
    """The box (p, q) of a composite character, by default (l(lam), l(mu))."""
    p = lam.length if p is None else p
    q = mu.length if q is None else q
    if p < lam.length or q < mu.length:
        raise PreconditionError("box smaller than the indexing partitions")
    return p, q


def composite_euler_char(
    lam: Partition, mu: Partition, d: SuperDim, p: int | None = None, q: int | None = None
) -> VirtualCharacter:
    """Signed sum over partitions in the q x p box giving the composite character.

    Each term pairs a skew functor of the dual space on mu with one on lam;
    output may be virtual outside the complete-intersection range.
    """
    lam, mu = Partition(lam), Partition(mu)
    p, q = _box(lam, mu, p, q)
    terms: Dict[Tuple[GLWeight, GLWeight], int] = {}
    for gamma in partitions_in_box(q, p):
        if not contains(gamma, mu) or not contains(gamma.transpose(), lam):
            continue
        left = _skew_super_char(mu, gamma, d).dual()
        right = _skew_super_char(lam, gamma.transpose(), d)
        _merge(terms, (left * right).terms, -1 if gamma.size % 2 else 1)
    return VirtualCharacter._trusted(d.m, d.n, terms)


def _h_table(top: int, evens: Sequence[Fraction], odds: Sequence[Fraction] = ()) -> List[Fraction]:
    """Coefficients h_0, ..., h_top of prod(1 + y t) / prod(1 - x t).

    With no odd points these are the complete homogeneous polynomials of
    the evens; in general h_k is the character of Sym^k of the super space.
    Each even point is a forward running sum (a factor 1 / (1 - x t)), each
    odd point a backward pass (a factor 1 + y t).  The table starts from
    the integers 1 and 0, so integer points give an integer table.
    """
    table = [1] + [0] * top
    for x in evens:
        for j in range(1, top + 1):
            table[j] += x * table[j - 1]
    for y in odds:
        for j in range(top, 0, -1):
            table[j] += y * table[j - 1]
    return table


def super_h(k: int, evens: Sequence[Fraction], odds: Sequence[Fraction]) -> Fraction:
    """Character of Sym^k of a super space, specialized at the given points."""
    return Fraction(_h_table(k, evens, odds)[k]) if k >= 0 else Fraction(0)


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Bareiss elimination divides exactly at every step (Bareiss, Math. Comp.
    1968), so every entry stays an integer.  The rows are overwritten.
    """
    n = len(rows)
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        top = rows[col]
        p = top[col]
        for row in rows[col + 1 :]:
            a = row[col]
            for c in range(col + 1, n):
                row[c] = (p * row[c] - a * top[c]) // prev
        prev = p
    return sign * prev


def composite_det_specialized(
    lam: Partition,
    mu: Partition,
    d: SuperDim,
    eval_points: Tuple[Sequence[Fraction], Sequence[Fraction]],
    p: int | None = None,
    q: int | None = None,
) -> Fraction:
    """Determinant of the mixed complete-homogeneous matrix at rational points.

    The first q columns carry dual symmetric powers of mu, the remaining p
    columns symmetric powers of lam; all entries are specialized exactly.
    Row i (1-based) holds hbar_{b_j - i} in column j <= q, with
    b_j = mu_{q-j} + j, and h_{a_j + i} in column q + j, with
    a_j = lam_{j-1} - q - j.

    The determinant is taken over the integers.  With D the lcm of the
    points' denominators and E the lcm of their numerators, D*x and E/x are
    integers, and since h_k is homogeneous of degree k, h_k(x) = H[k] / D^k
    and hbar_k(1/x) = Hbar[k] / E^k for the tables H and Hbar of those
    integer points (``_h_table``).  Taking D^-a_j out of each h-column,
    E^-b_j out of each hbar-column and D^-i out of row i leaves the integer
    matrix M with H[k] in the h-columns and Hbar[k] * (DE)^i in the
    hbar-columns.  So the value is det M * D^(-sum a_j - sum i) *
    E^(-sum b_j) = det M / (D^(|lam| + t) * E^(|mu| + t)), t = q(q+1)/2:
    one division.
    """
    lam, mu = Partition(lam), Partition(mu)
    evens, odds = eval_points
    evens = [Fraction(x) for x in evens]
    odds = [Fraction(y) for y in odds]
    if len(evens) != d.m or len(odds) != d.n:
        raise ValueError("evaluation points do not match the dimensions")
    if any(x == 0 for x in evens) or any(y == 0 for y in odds):
        raise PreconditionError("singular evaluation")
    p, q = _box(lam, mu, p, q)
    points = evens + odds
    dd = lcm(*(x.denominator for x in points))
    ee = lcm(*(x.numerator for x in points))
    scaled = [x.numerator * (dd // x.denominator) for x in points]
    inverse = [ee // x.numerator * x.denominator for x in points]
    # h is read at most p - 1 past lam's first part, hbar q - 1 past mu's
    h = _h_table(lam.part(0) + p - 1, scaled[: d.m], scaled[d.m :])
    hbar = _h_table(mu.part(0) + q - 1, inverse[: d.m], inverse[d.m :])
    rows = []
    lift = 1
    for i in range(1, p + q + 1):
        lift *= dd * ee
        rows.append(
            [hbar[k] * lift if k >= 0 else 0 for k in (mu.part(q - j) - i + j for j in range(1, q + 1))]
            + [h[k] if k >= 0 else 0 for k in (lam.part(j - 1) + i - q - j for j in range(1, p + 1))]
        )
    t = q * (q + 1) // 2
    return Fraction(_int_det(rows), dd ** (lam.size + t) * ee ** (mu.size + t))


def highest_weight(lam: Partition, mu: Partition, d: SuperDim) -> SuperWeight:
    """Distinguished weight of the rational Schur functor on gl(m|n).

    The even block carries lam at the top and the columns of mu beyond the
    first n (negated, reversed) at the bottom; the odd block carries the
    negated reversed first n column lengths of mu.
    """
    lam, mu = Partition(lam), Partition(mu)
    mu_t = mu.transpose()
    t = mu_t.part(d.n)
    r = lam.length
    if r + t > d.m:
        raise PreconditionError("weight blocks collide")
    beta = [mu[i] - d.n for i in range(t)]
    even = [lam.part(i) for i in range(d.m - t)]
    even += [-beta[i] for i in range(t - 1, -1, -1)]
    odd = [-mu_t.part(d.n - j) for j in range(1, d.n + 1)]
    return SuperWeight(tuple(even), tuple(odd))


def is_irreducible_case(lam: Partition, mu: Partition, d: SuperDim) -> bool:
    """Superdimension gap large enough to guarantee irreducibility."""
    return d.m - d.n >= Partition(lam).length + Partition(mu).length
