"""Schur functors of super spaces and rational Schur functor characters."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import neg
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
from .partitions import Partition, contains, partitions_in_box, subpartitions


@dataclass(frozen=True)
class SuperDim:
    """Dimension pair m|n of a super vector space."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("dimensions must be nonnegative")

    def shifted(self) -> "SuperDim":
        return SuperDim(self.n, self.m)


class SuperWeight(NamedTuple):
    """Weight of gl(m|n) split into even and odd blocks."""

    even: GLWeight
    odd: GLWeight


# Odd factors of one shape on GL(n): (alpha, ((delta padded to n, c), ...))
# pairs with c = c^lam_{alpha, delta^T}, one per alpha.
_OddFactors = Tuple[Tuple[Partition, Tuple[Tuple[GLWeight, int], ...]], ...]

# Terms of a restricted super Schur functor: ((w0, w1), multiplicity) pairs.
_SuperTerms = Tuple[Tuple[Tuple[GLWeight, GLWeight], int], ...]


@lru_cache(maxsize=1024)
def _odd_factors(lam: Partition, n: int) -> _OddFactors:
    """The odd factors X_alpha = sum_delta c^lam_{alpha, delta^T} s_delta of
    lam on GL(n) (Macdonald I.5), one per alpha inside lam.

    ``_lr_pairs(lam)`` grouped by alpha, in its order, with each delta of at
    most n rows padded to a GL(n) weight; an alpha with no such delta is
    left out.  The table depends on (lam, n) alone, so it is memoized for
    the 1024 most recently used keys and shared by the super Schur
    restriction and both sides of the closed form.
    """
    groups: Dict[Partition, List[Tuple[GLWeight, int]]] = {}
    for delta, alpha, c in _lr_pairs(lam):
        if delta.length <= n:
            groups.setdefault(alpha, []).append((pad_weight(delta, n), c))
    return tuple((alpha, tuple(x)) for alpha, x in groups.items())


@lru_cache(maxsize=1024)
def _super_schur_terms(lam: Partition, m: int, n: int) -> _SuperTerms:
    """The terms of ``super_schur_decompose(lam, SuperDim(m, n))``, as a tuple.

    The restriction depends on (lam, m, n) alone, so it is memoized across
    calls, for the 1024 most recently used keys; the first page reads this
    tuple directly, and no caller can change it.
    """
    # each alpha, and each delta of one skew expansion, occurs once: no key repeats
    terms = []
    for alpha, x in _odd_factors(lam, n):
        if alpha.length <= m:
            w0 = pad_weight(alpha, m)
            terms.extend(((w0, delta_w), c) for delta_w, c in x)
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
    for alpha in subpartitions(lam):
        for dt, c in _lr_count(lam, alpha):
            yield dt.transpose(), alpha, c


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

    X_alpha is read from ``_odd_factors(lam, n)`` as it is and Y_beta from
    ``_odd_factors(mu, n)`` dualized, so the LR work of a shape is shared
    by every call on it.  w0 depends on alpha only through alpha and its
    length, so each beta builds its tail (0, ..., 0, -beta reversed) once
    per length of alpha.
    """
    lam, mu = Partition(lam), Partition(mu)
    m, n = d.m, d.n
    if m < lam.length + mu.length - 1:
        raise PreconditionError("below complete-intersection bound")
    xs = _odd_factors(lam, n)
    lengths = {alpha.length for alpha, _ in xs}
    terms: Dict[Tuple[GLWeight, GLWeight], int] = {}
    for beta, gammas in _odd_factors(mu, n):
        y = [(dual_weight(gamma_w), c) for gamma_w, c in gammas]
        tails = {k: classical_rational_weight((), beta, m - k) for k in lengths}
        for alpha, x in xs:
            tail = tails[alpha.length]
            if tail is None:
                continue
            w0 = alpha + tail
            odd: Dict[GLWeight, int] = {}
            for gamma_w, c2 in y:
                for delta_w, c1 in x:
                    c12 = c1 * c2
                    for w1, c3 in _rational_tensor_cached(gamma_w, delta_w):
                        odd[w1] = odd.get(w1, 0) + c12 * c3
            for w1, c in odd.items():
                terms[w0, w1] = c
    return VirtualCharacter._trusted(m, n, terms)


def _skew_super_char(outer: Partition, inner: Partition, d: SuperDim) -> VirtualCharacter:
    """Character of the skew super Schur functor of outer/inner on m|n."""
    terms: Dict[Tuple[GLWeight, GLWeight], int] = {}
    for nu, c in _lr_count(outer, inner):
        _merge(terms, super_schur_decompose(nu, d).terms, c)
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
    odd point a backward pass (a factor 1 + y t).
    """
    table = [Fraction(1)] + [Fraction(0)] * top
    for x in evens:
        for j in range(1, top + 1):
            table[j] += x * table[j - 1]
    for y in odds:
        for j in range(top, 0, -1):
            table[j] += y * table[j - 1]
    return table


def super_h(k: int, evens: Sequence[Fraction], odds: Sequence[Fraction]) -> Fraction:
    """Character of Sym^k of a super space, specialized at the given points."""
    return _h_table(k, evens, odds)[k] if k >= 0 else Fraction(0)


def _fraction_det(mat: list[list[Fraction]]) -> Fraction:
    """Determinant of a square matrix of rationals, by fraction-free elimination.

    Each row is scaled to integers by the lcm of its denominators. Bareiss
    elimination then divides exactly at every step (Bareiss, Math. Comp.
    1968), so the one division left is by the product of the row scales.
    """
    n = len(mat)
    rows = []
    scale = 1
    for row in mat:
        d = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
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
    return Fraction(sign * prev, scale)


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
    Every entry is read from one h table of the points (``_h_table``) or
    one of the inverse points, each built once per determinant.
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
    # h is read at most p - 1 past lam's first part, hbar q - 1 past mu's
    h = _h_table(lam.part(0) + p - 1, evens, odds)
    hbar = _h_table(mu.part(0) + q - 1, [1 / x for x in evens], [1 / y for y in odds])
    zero = Fraction(0)
    mat = [
        [hbar[k] if k >= 0 else zero for k in (mu.part(q - j) - i + j for j in range(1, q + 1))]
        + [h[k] if k >= 0 else zero for k in (lam.part(j - 1) + i - q - j for j in range(1, p + 1))]
        for i in range(1, p + q + 1)
    ]
    return _fraction_det(mat)


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
