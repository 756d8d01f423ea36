"""Schur functors of super spaces and rational Schur functor characters."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .characters import (
    GLWeight,
    VirtualCharacter,
    _skew_expand_cached,
    dual_weight,
    pad_weight,
    rational_tensor,
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


def super_schur_decompose(lam: Partition, d: SuperDim) -> VirtualCharacter:
    """Restrict S_lam(V0|V1) to GL(V0) x GL(V1).

    The sum runs over mu inside lam with at most m rows; the companion odd
    factor is the skew transpose shape, truncated to at most n rows.
    """
    lam = Partition(lam)
    out = VirtualCharacter(d.m, d.n)
    lam_t = lam.transpose()
    for mu in subpartitions(lam):
        if mu.length > d.m:
            continue
        for nu, c in _skew_expand_cached(lam_t, mu.transpose()):
            if nu.length <= d.n:
                out.add_term((pad_weight(mu, d.m), pad_weight(nu, d.n)), c)
    return out


def _lr_pairs(lam: Partition) -> Iterator[Tuple[Partition, Partition, int]]:
    """Triples (delta, alpha, c) with c = c^lam_{alpha, delta^T} nonzero."""
    for alpha in subpartitions(lam):
        for dt, c in _skew_expand_cached(lam, alpha):
            yield dt.transpose(), alpha, c


def classical_rational_weight(alpha: Partition, beta: Partition, m: int) -> GLWeight | None:
    """Highest weight (alpha, 0, ..., 0, -beta reversed) of length m.

    Returns None when the blocks collide (the functor vanishes).
    """
    if alpha.length + beta.length > m:
        return None
    gap = (0,) * (m - alpha.length - beta.length)
    return tuple(alpha) + gap + tuple(-x for x in reversed(beta))


def rational_schur_char(lam: Partition, mu: Partition, d: SuperDim) -> VirtualCharacter:
    """Character of the rational Schur functor indexed by (lam; mu) on m|n.

    Requires the complete-intersection bound m >= l(lam) + l(mu) - 1; under
    it the result is an honest (nonnegative) character.
    """
    lam, mu = Partition(lam), Partition(mu)
    if d.m < lam.length + mu.length - 1:
        raise PreconditionError("below complete-intersection bound")
    # lam-pairs grouped by padded delta, mu-pairs by dualised padded gamma
    deltas: Dict[GLWeight, List[Tuple[Partition, int]]] = {}
    for delta, alpha, c in _lr_pairs(lam):
        if delta.length <= d.n:
            deltas.setdefault(pad_weight(delta, d.n), []).append((alpha, c))
    gammas: Dict[GLWeight, List[Tuple[Partition, int]]] = {}
    for gamma, beta, c in _lr_pairs(mu):
        if gamma.length <= d.n:
            gammas.setdefault(dual_weight(pad_weight(gamma, d.n)), []).append((beta, c))
    alphas = {alpha for group in deltas.values() for alpha, _ in group}
    betas = {beta for group in gammas.values() for beta, _ in group}
    even = {(a, b): classical_rational_weight(a, b, d.m) for a in alphas for b in betas}
    out = VirtualCharacter(d.m, d.n)
    for gamma_w, beta_group in gammas.items():
        for delta_w, alpha_group in deltas.items():
            pairs = [
                (even[alpha, beta], c1 * c2)
                for alpha, c1 in alpha_group
                for beta, c2 in beta_group
                if even[alpha, beta] is not None
            ]
            if not pairs:
                continue
            for w1, c3 in rational_tensor(gamma_w, delta_w).items():
                for w0, c12 in pairs:
                    out.add_term((w0, w1), c12 * c3)
    return out


def _skew_super_char(outer: Partition, inner: Partition, d: SuperDim, dualize: bool) -> VirtualCharacter:
    """Character of the skew super Schur functor, optionally of the dual space."""
    out = VirtualCharacter(d.m, d.n)
    for nu, c in _skew_expand_cached(outer, inner):
        piece = super_schur_decompose(nu, d)
        if dualize:
            piece = piece.dual()
        out = out + piece.scale(c)
    return out


def composite_euler_char(
    lam: Partition, mu: Partition, d: SuperDim, p: int | None = None, q: int | None = None
) -> VirtualCharacter:
    """Signed sum over partitions in the q x p box giving the composite character.

    Each term pairs a skew functor of the dual space on mu with one on lam;
    output may be virtual outside the complete-intersection range.
    """
    lam, mu = Partition(lam), Partition(mu)
    if p is None:
        p = lam.length
    if q is None:
        q = mu.length
    if p < lam.length or q < mu.length:
        raise PreconditionError("box smaller than the indexing partitions")
    out = VirtualCharacter(d.m, d.n)
    for gamma in partitions_in_box(q, p):
        if not contains(gamma, mu) or not contains(gamma.transpose(), lam):
            continue
        left = _skew_super_char(mu, gamma, d, dualize=True)
        right = _skew_super_char(lam, gamma.transpose(), d, dualize=False)
        sign = -1 if gamma.size % 2 else 1
        out = out + (left * right).scale(sign)
    return out


def _complete_h(k: int, values: Sequence[Fraction]) -> Fraction:
    """Complete homogeneous symmetric polynomial h_k at the given values."""
    if k < 0:
        return Fraction(0)
    # table[j] = h_j over the variables seen so far
    table = [Fraction(0)] * (k + 1)
    table[0] = Fraction(1)
    for x in values:
        for j in range(1, k + 1):
            table[j] += x * table[j - 1]
    return table[k]


def _elementary_e(k: int, values: Sequence[Fraction]) -> Fraction:
    """Elementary symmetric polynomial e_k at the given values."""
    if k < 0 or k > len(values):
        return Fraction(0)
    table = [Fraction(0)] * (k + 1)
    table[0] = Fraction(1)
    for x in values:
        for j in range(min(k, len(values)), 0, -1):
            table[j] += x * table[j - 1]
    return table[k]


def super_h(k: int, evens: Sequence[Fraction], odds: Sequence[Fraction]) -> Fraction:
    """Character of Sym^k of a super space, specialized at the given points."""
    if k < 0:
        return Fraction(0)
    return sum(
        (_complete_h(j, evens) * _elementary_e(k - j, odds) for j in range(k + 1)),
        Fraction(0),
    )


def _fraction_det(mat: list[list[Fraction]]) -> Fraction:
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
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, n):
                    mat[r][c] -= factor * mat[col][c]
    return det


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
    """
    lam, mu = Partition(lam), Partition(mu)
    evens, odds = eval_points
    evens = [Fraction(x) for x in evens]
    odds = [Fraction(y) for y in odds]
    if len(evens) != d.m or len(odds) != d.n:
        raise ValueError("evaluation points do not match the dimensions")
    if any(x == 0 for x in evens) or any(y == 0 for y in odds):
        raise PreconditionError("singular evaluation")
    if p is None:
        p = lam.length
    if q is None:
        q = mu.length
    if p < lam.length or q < mu.length:
        raise PreconditionError("box smaller than the indexing partitions")
    inv_evens = [Fraction(1) / x for x in evens]
    inv_odds = [Fraction(1) / y for y in odds]

    def h(k: int) -> Fraction:
        return super_h(k, evens, odds)

    def hbar(k: int) -> Fraction:
        return super_h(k, inv_evens, inv_odds)

    size = p + q
    mat = []
    for i in range(1, size + 1):
        row = []
        for j in range(1, q + 1):
            row.append(hbar(mu.part(q - j) - i + j))
        for j in range(1, p + 1):
            row.append(h(lam.part(j - 1) + i - q - j))
        mat.append(row)
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
