"""Borel-Weil-Bott for two-block homogeneous bundles on Grassmannians."""

from __future__ import annotations

from operator import sub
from typing import AbstractSet, Dict, NamedTuple, Optional, Tuple

from .characters import GLWeight, GradedCharacter, external_product


def rho(m: int) -> GLWeight:
    """The strictly decreasing shift (m-1, m-2, ..., 1, 0)."""
    return tuple(range(m - 1, -1, -1))


class LeviWeight(NamedTuple):
    """Blockwise-dominant weight for a two-block Levi of GL(m)."""

    q_block: GLWeight
    r_block: GLWeight


def bott(gamma: GLWeight) -> Optional[Tuple[int, GLWeight]]:
    """Run the Bott algorithm on an integer weight of length m.

    Returns None when gamma + rho has a repeated entry (all cohomology
    vanishes), otherwise the unique (degree, dominant weight) pair. The
    degree is the number of inversions needed to sort gamma + rho.
    """
    m = len(gamma)
    v = [g + r for g, r in zip(gamma, rho(m))]
    if len(set(v)) < m:
        return None
    inversions = sum(1 for i in range(m) for j in range(i + 1, m) if v[i] < v[j])
    w = tuple(x - r for x, r in zip(sorted(v, reverse=True), rho(m)))
    return inversions, w


def rho_shift(w: GLWeight, offset: int) -> GLWeight:
    """One Levi block of gamma + rho: w plus rho of its length plus offset.

    The offset is the rank of the blocks after this one, so the quotient
    block of GL(m) on Gr(p, C^m) takes offset p and the sub block offset 0.
    A dominant block becomes strictly decreasing.
    """
    top = len(w) - 1 + offset
    return tuple(x + top - i for i, x in enumerate(w))


def levi_bott(
    upper: GLWeight, upper_entries: AbstractSet[int], lower: GLWeight
) -> Optional[Tuple[int, GLWeight]]:
    """Bott on a Levi weight given by its two rho-shifted blocks.

    ``upper`` and ``lower`` are the blocks of gamma + rho (see ``rho_shift``)
    and ``upper_entries`` is the set of entries of ``upper``.  Each block is
    strictly decreasing, so gamma + rho repeats an entry exactly when the
    blocks share one, and the inversions to sort it are the pairs x < y
    with x in ``upper`` and y in ``lower``.  Agrees with ``bott`` on the
    concatenated weight.
    """
    if not upper_entries.isdisjoint(lower):
        return None
    v = sorted(upper + lower, reverse=True)
    k, l = len(upper), len(lower)
    # lower[j] sits at v.index(lower[j]) = j + #{x in upper : x > lower[j]},
    # so the entries of upper below it number k + j - v.index(lower[j]).
    degree = k * l + l * (l - 1) // 2 - sum(map(v.index, lower))
    return degree, tuple(map(sub, v, range(len(v) - 1, -1, -1)))


def _check_ranks(w: LeviWeight, p: int, m: int) -> None:
    if len(w.q_block) != m - p or len(w.r_block) != p:
        raise ValueError(
            f"block lengths {len(w.q_block)},{len(w.r_block)} do not match ranks {m - p},{p}"
        )


def levi_to_full(w: LeviWeight, p: int, m: int) -> GLWeight:
    """Concatenate the quotient block (length m-p) and sub block (length p)."""
    _check_ranks(w, p, m)
    return tuple(w.q_block) + tuple(w.r_block)


def grassmannian_cohomology(p: int, m: int, terms: Dict[LeviWeight, int]) -> GradedCharacter:
    """Cohomology on Gr(p, C^m) of a sum of irreducible homogeneous bundles."""
    gc = GradedCharacter(m, 0)
    for lw, mult in terms.items():
        _check_ranks(lw, p, m)
        if not all(a >= b for block in lw for a, b in zip(block, block[1:])):
            raise ValueError(f"Levi weight {lw} is not dominant on each block")
        upper = rho_shift(lw.q_block, p)
        res = levi_bott(upper, frozenset(upper), rho_shift(lw.r_block, 0))
        if res is not None:
            degree, w = res
            gc.add_term(degree, (w, ()), mult)
    return gc


def kunneth(a: GradedCharacter, b: GradedCharacter) -> GradedCharacter:
    """Degree-wise convolution of a GL(m) and a GL(n) graded character."""
    out = GradedCharacter(a.m, b.m)
    for i, ca in a.by_degree.items():
        for j, cb in b.by_degree.items():
            out.add_char(i + j, external_product(ca, cb))
    return out
