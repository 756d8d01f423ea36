"""The two cohomology pipelines for super Grassmannians and partial flags.

The first-page computation expands the associated graded bundle over the
product of classical Grassmannians and pushes every Levi-irreducible term
through the Bott algorithm; the closed form places one rational Schur
character on the Poincare polynomial of a classical flag variety.  A
Grassmannian is the one-step flag: ``BundleSpec`` gives its steps as
``((p, q),)``, and one closed form serves both specs.  Under the main
hypothesis the closed form is the cohomology, which the first page
converges to; the first page need not degenerate, so it may carry more.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import comb
from typing import Callable, ClassVar, Dict, List, Tuple

from .bott import entry_mask, levi_bott, rho_shift
from .characters import (
    GLWeight,
    GradedCharacter,
    VirtualCharacter,
    dual_weight,
    pad_weight,
    rational_tensor,
)
from .errors import HypothesisError, TermLimitError
from .partitions import Partition, partitions_in_box
from .qseries import HilbertSeries, flag_poincare
from .superschur import SuperDim, _super_schur_terms, rational_schur_char

DEFAULT_MAX_TERMS = 10**7
_MAX_TERMS_ENV = "SUPERBOTT_MAX_TERMS"


def _max_terms() -> int:
    raw = os.environ.get(_MAX_TERMS_ENV)
    if not raw:
        return DEFAULT_MAX_TERMS
    message = f"{_MAX_TERMS_ENV} must be a positive integer, got {raw!r}"
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if budget < 1:
        raise ValueError(message)
    return budget


class HypothesisCase(Enum):
    CASE1 = "case1"
    CASE2 = "case2"
    NONE = "none"


@dataclass(frozen=True)
class BundleSpec:
    """A Schur-functor bundle on the super Grassmannian of rank p|q planes."""

    hypothesis_message: ClassVar[str] = "main theorem hypothesis not satisfied"

    p: int
    q: int
    d: SuperDim
    alpha: Partition = Partition()
    beta: Partition = Partition()

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Partition(self.alpha))
        object.__setattr__(self, "beta", Partition(self.beta))
        if not (0 <= self.p <= self.d.m and 0 <= self.q <= self.d.n):
            raise ValueError("sub-bundle ranks out of range")

    @property
    def steps(self) -> Tuple[Tuple[int, int], ...]:
        """The Grassmannian as the one-step flag."""
        return ((self.p, self.q),)

    @property
    def m(self) -> int:
        return self.d.m

    @property
    def n(self) -> int:
        return self.d.n


@dataclass(frozen=True)
class FlagSpec:
    """A Schur-functor bundle on a super partial flag variety."""

    hypothesis_message: ClassVar[str] = "partial flag chain condition not satisfied"

    steps: Tuple[Tuple[int, int], ...]
    d: SuperDim
    alpha: Partition = Partition()
    beta: Partition = Partition()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple((int(p), int(q)) for p, q in self.steps))
        object.__setattr__(self, "alpha", Partition(self.alpha))
        object.__setattr__(self, "beta", Partition(self.beta))
        if not self.steps:
            raise ValueError("flag needs at least one step")
        chain = list(self.steps) + [(self.d.m, self.d.n)]
        prev = (0, 0)
        for p, q in chain:
            if p < prev[0] or q < prev[1] or (p, q) == prev:
                raise ValueError("steps must strictly increase in the product order")
            prev = (p, q)

    @property
    def m(self) -> int:
        return self.d.m

    @property
    def n(self) -> int:
        return self.d.n


def _weakly_decreasing(chain: List[int]) -> bool:
    return chain == sorted(chain, reverse=True)


def hypothesis_case(spec: BundleSpec | FlagSpec) -> HypothesisCase:
    """Which branch of the main-theorem hypothesis the bundle satisfies.

    On the steps p_i|q_i of the flag, CASE1 asks m - n - l(alpha) >= p_k -
    q_k >= ... >= p_1 - q_1 >= l(beta), and CASE2 the same with the parities
    swapped and the first rows of alpha and beta in place of the lengths.
    """
    m, n = spec.m, spec.n
    gaps = [p - q for p, q in reversed(spec.steps)]
    if _weakly_decreasing([m - n - spec.alpha.length, *gaps, spec.beta.length]):
        return HypothesisCase.CASE1
    if _weakly_decreasing([n - m - spec.alpha.part(0), *[-g for g in gaps], spec.beta.part(0)]):
        return HypothesisCase.CASE2
    return HypothesisCase.NONE


def _flag_blocks(ranks: Tuple[int, ...], total: int) -> Tuple[int, ...]:
    """Block sizes of the flag 0 <= r_1 <= ... <= r_k <= total."""
    return tuple(b - a for a, b in zip((0, *ranks), (*ranks, total)))


def structure_sheaf_hilbert(spec: BundleSpec | FlagSpec) -> HilbertSeries:
    """Hilbert series of the structure-sheaf cohomology ring.

    It is the Poincare polynomial of the classical flag variety of the odd
    ranks q_i in C^n in CASE1, and of the even ranks p_i in C^m in CASE2.
    """
    case = hypothesis_case(spec)
    if case is HypothesisCase.CASE1:
        return flag_poincare(_flag_blocks(tuple(q for _, q in spec.steps), spec.n))
    if case is HypothesisCase.CASE2:
        return flag_poincare(_flag_blocks(tuple(p for p, _ in spec.steps), spec.m))
    raise HypothesisError(spec.hypothesis_message)


# One Levi block side of rational_tensor(a, b): (entry_mask, rho-shifted
# block, multiplicity) for each term.
_BlockSide = Tuple[Tuple[int, GLWeight, int], ...]


@lru_cache(maxsize=4096)
def _block_side(a: GLWeight, b: GLWeight, offset: int) -> _BlockSide:
    """Terms of rational_tensor(a, b) as rho-shifted Levi blocks (see rho_shift).

    The result depends on (a, b, offset) alone, so it is memoized across
    calls, for the 4096 most recently used keys (one pass of 3070 small
    bundles asks for about 3100); it is a tuple of tuples, which no caller
    can change.
    """
    shifted = ((rho_shift(w, offset), c) for w, c in rational_tensor(a, b).items())
    return tuple((entry_mask(v), v, c) for v, c in shifted)


def _reach(row: List[_BlockSide]) -> Callable[[int], int]:
    """Which sides of a row hold a block that shares no entry with a given mask.

    ``row`` is one term's block sides, one per shape position.  The result
    maps an entry mask to the bit set of the positions whose side holds a
    block disjoint from it; each mask asked for is answered once per row.
    """
    positions: Dict[int, int] = {}
    for i, side in enumerate(row):
        for mask, _, _ in side:
            positions[mask] = positions.get(mask, 0) | 1 << i
    table = tuple(positions.items())
    seen: Dict[int, int] = {}

    def reach(mask: int) -> int:
        bits = seen.get(mask)
        if bits is None:
            bits = 0
            for other, where in table:
                if not other & mask:
                    bits |= where
            seen[mask] = bits
        return bits

    return reach


def _levi_bott_pairs(upper: _BlockSide, lower: _BlockSide) -> List[Tuple[int, GLWeight, int]]:
    """(degree, weight, multiplicity) of levi_bott on each surviving pair."""
    out = []
    for um, u, c1 in upper:
        for lm, l, c2 in lower:
            if not um & lm:
                degree, w = levi_bott(u, um, l, lm)
                out.append((degree, w, c1 * c2))
    return out


# The exterior-algebra shapes of one box.  Each table depends on its box
# alone, so it is memoized across calls; with m, n <= 7 there are at most
# 64 boxes.
@lru_cache(maxsize=64)
def _box_shapes(rows: int, cols: int) -> Tuple[Tuple[int, GLWeight, GLWeight], ...]:
    """(size, sigma padded to rows, sigma^T padded to cols) for each sigma in the box."""
    return tuple(
        (sigma.size, pad_weight(sigma, rows), pad_weight(sigma.transpose(), cols))
        for sigma in partitions_in_box(rows, cols)
    )


def _e1_terms(spec: BundleSpec) -> Dict[Tuple[int, int], Dict[Tuple[GLWeight, GLWeight], int]]:
    """The first page as {(degree, exterior degree): {(w0, w1): mult}}.

    Each (alpha-term, beta-term, lam, nu) cell gives an even (GL(m)) and an
    odd (GL(n)) Levi weight, each a sum of pairs of rho-shifted blocks, one
    per pair of rational_tensor terms.  A pair survives Bott exactly when
    its blocks share no entry, which is one AND of their ``entry_mask``s.
    Each alpha-term holds a row of even upper sides, one per nu, and each
    beta-term a row of odd lower sides, one per nu; a weight shared by two
    terms reads its row from ``_block_side``'s memo.  ``_reach`` turns each
    such row into bit sets over the nu positions, so for one (alpha-term,
    beta-term, lam) the cells whose even side survives are the OR of the
    reach of every lower block mask, those whose odd side survives the OR of
    the reach of every upper block mask, and the loop walks the set bits of
    both in ascending nu.  ``levi_bott`` computes degrees and weights only
    on those cells.  Every multiplicity is a product of positive super-Schur,
    LR and Bott multiplicities, so no term cancels and no block of the
    result is zero.
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    mq, nq = m - p, n - q  # classical quotient ranks

    page: Dict[Tuple[int, int], Dict[Tuple[GLWeight, GLWeight], int]] = {}
    alpha_terms = _super_schur_terms(spec.alpha, mq, nq)
    beta_terms = _super_schur_terms(spec.beta, p, q)
    if not alpha_terms or not beta_terms:
        return page

    # a rows x cols box holds comb(rows + cols, rows) partitions, so the
    # budget is checked before any shape table is built
    budget = _max_terms()
    count = len(alpha_terms) * len(beta_terms) * comb(p + nq, p) * comb(mq + q, q)
    if count > budget:
        raise TermLimitError(f"expansion of {count} terms exceeds budget {budget}")
    # lam in the p x (n - q) box pairs the sub bundle on the even side with
    # the dual quotient on the odd side, nu in the (m - p) x q box the reverse
    lams = _box_shapes(p, nq)
    nus = _box_shapes(mq, q)
    lam_odds = [dual_weight(w) for _, _, w in lams]
    nu_evens = [dual_weight(w) for _, w, _ in nus]
    alphas = []
    for (a0, a1), ca in alpha_terms:
        eu_row = [_block_side(a0, nu_even, p) for nu_even in nu_evens]
        ou_row = [_block_side(a1, lam_odd, q) for lam_odd in lam_odds]
        alphas.append((ca, eu_row, _reach(eu_row), ou_row))
    betas = []
    for (w0, w1), cb in beta_terms:
        b0, b1 = dual_weight(w0), dual_weight(w1)
        el_row = [_block_side(b0, lam_even, 0) for _, lam_even, _ in lams]
        ol_row = [_block_side(b1, nu_odd, 0) for _, _, nu_odd in nus]
        betas.append((cb, el_row, ol_row, _reach(ol_row)))

    for ca, eu_row, eu_reach, ou_row in alphas:
        for cb, el_row, ol_row, ol_reach in betas:
            mult = ca * cb
            for (lam_size, _, _), even_lower_side, odd_upper_side in zip(lams, el_row, ou_row):
                # upper is the quotient block, lower the sub block; bit j
                # stands for the cell of nus[j], walked in ascending j
                cells = 0
                for mask, _, _ in even_lower_side:
                    cells |= eu_reach(mask)
                if not cells:
                    continue
                odd = 0
                for mask, _, _ in odd_upper_side:
                    odd |= ol_reach(mask)
                cells &= odd
                while cells:
                    low = cells & -cells
                    cells ^= low
                    j = low.bit_length() - 1
                    ext_deg = lam_size + nus[j][0]
                    odd_parts = _levi_bott_pairs(odd_upper_side, ol_row[j])
                    for d0, w0, c0 in _levi_bott_pairs(eu_row[j], even_lower_side):
                        c0 *= mult
                        for d1, w1, c1 in odd_parts:
                            terms = page.get((d0 + d1, ext_deg))
                            if terms is None:
                                terms = page[d0 + d1, ext_deg] = {}
                            terms[w0, w1] = terms.get((w0, w1), 0) + c0 * c1
    return page


def e1_page(spec: BundleSpec) -> GradedCharacter:
    """First page of the ideal-filtration spectral sequence, by total degree."""
    gc = GradedCharacter(spec.m, spec.n)
    for (deg, _ext), terms in _e1_terms(spec).items():
        gc.add_char(deg, VirtualCharacter._trusted(spec.m, spec.n, terms))
    return gc


def e1_bigraded(spec: BundleSpec) -> Dict[Tuple[int, int], VirtualCharacter]:
    """Diagnostic view keyed by (cohomological degree, exterior degree)."""
    return {
        grade: VirtualCharacter._trusted(spec.m, spec.n, terms)
        for grade, terms in _e1_terms(spec).items()
    }


def main_theorem_char(spec: BundleSpec | FlagSpec) -> GradedCharacter:
    """Closed-form cohomology: the structure-sheaf series times one character.

    The character is S_(alpha; beta) of C^{m|n} in CASE1.  CASE2 is CASE1 on
    the parity-shifted space C^{n|m} with both shapes transposed, so there
    the character is computed on n|m and its two blocks are swapped back.
    """
    series = structure_sheaf_hilbert(spec)
    if hypothesis_case(spec) is HypothesisCase.CASE1:
        base = rational_schur_char(spec.alpha, spec.beta, spec.d)
    else:
        shifted = rational_schur_char(
            spec.alpha.transpose(), spec.beta.transpose(), spec.d.shifted()
        )
        swapped = {(w1, w0): c for (w0, w1), c in shifted.items()}
        base = VirtualCharacter._trusted(spec.m, spec.n, swapped)
    gc = GradedCharacter(spec.m, spec.n)
    for deg, coeff in series.coeffs.items():
        gc.add_char(deg, base, coeff)
    return gc


@dataclass
class VerifyReport:
    """Outcome of cross-checking the two pipelines on one bundle."""

    spec: BundleSpec
    matches: bool
    diffs: Dict[int, VirtualCharacter] = field(default_factory=dict)
    possibly_nondegenerate: bool = False


def verify_main_theorem(spec: BundleSpec) -> VerifyReport:
    """Compare the first page with the closed form, degree by degree.

    ``matches`` means the first page already equals the closed form; a
    mismatch may be a surplus that later differentials cancel.
    """
    expected = main_theorem_char(spec)
    actual = e1_page(spec)
    diffs = actual.diff(expected)
    return VerifyReport(
        spec=spec,
        matches=not diffs,
        diffs=diffs,
        possibly_nondegenerate=actual.has_odd_support(),
    )
