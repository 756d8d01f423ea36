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
from enum import Enum
from functools import lru_cache
from math import comb
from typing import Dict, List, Tuple

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
from .partitions import Partition, _HashCons, _Value, partitions_in_box
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


class BundleSpec(_Value):
    """A Schur-functor bundle on the super Grassmannian of rank p|q planes."""

    hypothesis_message = "main theorem hypothesis not satisfied"

    __slots__ = ("p", "q", "d", "alpha", "beta")

    def __init__(
        self,
        p: int,
        q: int,
        d: SuperDim,
        alpha: Partition = Partition(),
        beta: Partition = Partition(),
    ) -> None:
        self._init(p, q, d, Partition(alpha), Partition(beta))
        if not (0 <= p <= d.m and 0 <= q <= d.n):
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


class FlagSpec(_Value):
    """A Schur-functor bundle on a super partial flag variety."""

    hypothesis_message = "partial flag chain condition not satisfied"

    __slots__ = ("steps", "d", "alpha", "beta")

    def __init__(
        self,
        steps: Tuple[Tuple[int, int], ...],
        d: SuperDim,
        alpha: Partition = Partition(),
        beta: Partition = Partition(),
    ) -> None:
        self._init(tuple((int(p), int(q)) for p, q in steps), d, Partition(alpha), Partition(beta))
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
    return _structure_sheaf_hilbert(spec, hypothesis_case(spec))


def _structure_sheaf_hilbert(spec: BundleSpec | FlagSpec, case: HypothesisCase) -> HilbertSeries:
    """``structure_sheaf_hilbert`` given the bundle's ``hypothesis_case``."""
    if case is HypothesisCase.CASE1:
        return flag_poincare(_flag_blocks(tuple(q for _, q in spec.steps), spec.n))
    if case is HypothesisCase.CASE2:
        return flag_poincare(_flag_blocks(tuple(p for p, _ in spec.steps), spec.m))
    raise HypothesisError(spec.hypothesis_message)


# Each distinct rho-shifted block (weight, entry_mask) and each distinct
# block side ((entry_mask, block id, multiplicity), ...) has one plain int
# id in _block_table, so a memo keyed by blocks or sides hashes ints.  The
# reader of the ids is ``_e1_terms``, one first page.
_block_table = _HashCons()


@_block_table.holds
@lru_cache(maxsize=4096)
def _block_side(a: GLWeight, b: GLWeight, offset: int) -> int:
    """Terms of rational_tensor(a, b) as rho-shifted Levi blocks (see rho_shift).

    A block side is the id of a tuple that holds (entry_mask, block id,
    multiplicity) for each term; equal sides of different keys are one id.
    The result depends on (a, b, offset) alone, so it is memoized across
    calls, for the 4096 most recently used keys (one pass of 3070 small
    bundles looks up 11,100 keys, about 3,110 of them distinct, and makes
    1,240 sides of 773 blocks).
    """
    blocks = []
    for w, c in rational_tensor(a, b).items():
        v = rho_shift(w, offset)
        mask = entry_mask(v)
        blocks.append((mask, _block_table.id((v, mask)), c))
    return _block_table.id(tuple(blocks))


@lru_cache(maxsize=8192)
def _interned(value: tuple) -> tuple:
    """The first of equal tuples asked for, so that the memos keep one copy.

    An identity memo for the 8192 most recently used values: Bott weights
    and results, and the weights of closed forms.  One pass of 3070 small
    bundles asks for 46,300 values, about 2,760 of them distinct.
    """
    return value


@_block_table.holds
@lru_cache(maxsize=8192)
def _block_bott(upper: int, lower: int) -> Tuple[int, GLWeight]:
    """``levi_bott`` on two blocks that share no entry, keyed by their ids.

    One pass of 3070 small bundles asks for 10,870 pairs, 3,440 of them
    distinct; the weight is ``_interned``.
    """
    blocks = _block_table.values
    degree, w = levi_bott(*blocks[upper], *blocks[lower])
    return degree, _interned(w)


@_block_table.holds
@lru_cache(maxsize=16384)
def _levi_bott_pairs(upper: int, lower: int) -> Tuple[Tuple[int, GLWeight, int], ...]:
    """(degree, weight, multiplicity) of Bott on each surviving pair of blocks.

    ``upper`` and ``lower`` are block sides (see ``_block_side``), so the
    key is two ids.  The result depends on the two sides alone, so it is
    memoized across calls, for the 16384 most recently used pairs (one pass
    of 3070 small bundles looks up 87,600 pairs, about 8,460 of them
    distinct); Bott runs on each pair of blocks through ``_block_bott``.
    The result and each of its triples are ``_interned``, and no caller can
    change them.
    """
    sides = _block_table.values
    out = []
    for um, u, c1 in sides[upper]:
        for lm, l, c2 in sides[lower]:
            if not um & lm:
                degree, w = _block_bott(u, l)
                out.append(_interned((degree, w, c1 * c2)))
    return _interned(tuple(out))


# Which weight of a _box_shapes entry a Levi row reads.
_SIGMA, _SIGMA_DUAL, _SIGMA_T, _SIGMA_T_DUAL = 1, 2, 3, 4


# The exterior-algebra shapes of one box.  Each table depends on its box
# alone, so it is memoized across calls; with m, n <= 7 there are at most
# 64 boxes.
@lru_cache(maxsize=64)
def _box_shapes(
    rows: int, cols: int
) -> Tuple[Tuple[int, GLWeight, GLWeight, GLWeight, GLWeight], ...]:
    """(size, sigma, its dual, sigma^T, its dual) for each sigma in the box.

    sigma is padded to ``rows`` entries and sigma^T to ``cols``.
    """
    table = []
    for sigma in partitions_in_box(rows, cols):
        even = pad_weight(sigma, rows)
        odd = pad_weight(sigma.transpose(), cols)
        table.append((sigma.size, even, dual_weight(even), odd, dual_weight(odd)))
    return tuple(table)


class _LeviRow(dict):
    """One term's Levi block sides over one box, and which of them a mask reaches.

    ``sides`` is a tuple of block side ids (see ``_block_side``), one per shape
    of the box.  ``row[mask]`` is the bit set of the positions whose side
    holds a block that shares no entry with the entry mask; the row keeps
    the answers to the first ANSWERS masks asked, so a kept answer is read
    without a Python call.
    """

    __slots__ = ("sides", "masks", "wheres")

    # one pass of 3070 small bundles asks at most about 200 distinct masks
    # of one row
    ANSWERS = 256

    def __init__(self, sides: Tuple[int, ...]) -> None:
        self.sides = sides
        self.masks = None

    def __missing__(self, mask: int) -> int:
        if self.masks is None:
            # the distinct block masks and the positions holding each, built
            # on the first miss: the rows of odd upper and even lower sides
            # are never asked
            positions: Dict[int, int] = {}
            values = _block_table.values
            for i, side in enumerate(self.sides):
                for other, _, _ in values[side]:
                    positions[other] = positions.get(other, 0) | 1 << i
            self.masks = tuple(positions)
            self.wheres = tuple(positions.values())
        bits = 0
        for other, where in zip(self.masks, self.wheres):
            if not other & mask:
                bits |= where
        if len(self) < self.ANSWERS:
            self[mask] = bits
        return bits


@_block_table.holds
@lru_cache(maxsize=4096)
def _levi_row(a: GLWeight, rows: int, cols: int, column: int, offset: int) -> _LeviRow:
    """The row of ``_block_side(a, shape[column], offset)`` for each shape of the box.

    The sides follow the order of ``_box_shapes(rows, cols)``.  The row
    depends on its arguments alone, so it is memoized across calls, for the
    4096 most recently used keys (one pass of 3070 small bundles asks for
    about 1650), and each answer it keeps is shared by every call that
    reads the row.
    """
    return _LeviRow(tuple(_block_side(a, shape[column], offset) for shape in _box_shapes(rows, cols)))


def _e1_terms(
    spec: BundleSpec, by_exterior: bool
) -> Dict[int, Dict[int, Dict[Tuple[GLWeight, GLWeight], int]]]:
    """The first page as {exterior degree: {degree: {(w0, w1): mult}}}.

    Without ``by_exterior`` every term is filed under exterior degree 0, so
    the page comes out summed over the exterior degree.

    Each (alpha-term, beta-term, lam, nu) cell gives an even (GL(m)) and an
    odd (GL(n)) Levi weight, each a sum of pairs of rho-shifted blocks, one
    per pair of rational_tensor terms.  A pair survives Bott exactly when
    its blocks share no entry, which is one AND of their ``entry_mask``s.
    Each alpha-term holds a row of even upper sides, one per nu, and each
    beta-term a row of odd lower sides, one per nu; each row is read from
    ``_levi_row``'s memo, and answers, once per process, which of its nu
    positions a block mask reaches.  For one (alpha-term, beta-term, lam)
    the cells whose even side survives are the OR of the even row's answers
    to every lower block mask, those whose odd side survives the OR of the
    odd row's answers to every upper block mask, and the loop walks the set
    bits of both in ascending nu.
    Bott runs only on those cells, through ``_levi_bott_pairs``'s memo,
    keyed by the ids of the two block sides.  One pass of 3070 small
    bundles walks 44,100 (alpha-term, beta-term, lam) triples and visits
    43,800 cells.
    Every multiplicity is a product of positive super-Schur, LR and Bott
    multiplicities, so no term cancels and no block of the result is zero.
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    mq, nq = m - p, n - q  # classical quotient ranks

    page: Dict[int, Dict[int, Dict[Tuple[GLWeight, GLWeight], int]]] = {}
    alpha_terms = _super_schur_terms(spec.alpha, mq, nq)
    beta_terms = _super_schur_terms(spec.beta, p, q)
    if not alpha_terms or not beta_terms:
        return {}

    # a rows x cols box holds comb(rows + cols, rows) partitions, so the
    # budget is checked before any shape table is built
    budget = _max_terms()
    size = len(alpha_terms) * len(beta_terms) * comb(p + nq, p) * comb(mq + q, q)
    if size > budget:
        raise TermLimitError(f"expansion of {size} terms exceeds budget {budget}")
    # lam in the p x (n - q) box pairs the sub bundle on the even side with
    # the dual quotient on the odd side, nu in the (m - p) x q box the reverse
    lams = _box_shapes(p, nq)
    nus = _box_shapes(mq, q)
    # the exterior degree of each shape, or 0 for all of them
    lam_sizes = [shape[0] if by_exterior else 0 for shape in lams]
    nu_sizes = [shape[0] if by_exterior else 0 for shape in nus]
    # the page is the reader of the block ids: it may clear them here,
    # before its first row, never later
    _block_table.start()
    sides = _block_table.values
    alphas = [
        (ca, _levi_row(a0, mq, q, _SIGMA_DUAL, p), _levi_row(a1, p, nq, _SIGMA_T_DUAL, q).sides)
        for (a0, a1), ca in alpha_terms
    ]
    # the beta-terms enter dualized, both blocks of each weight
    betas = [
        (cb, _levi_row(dual_weight(b1), mq, q, _SIGMA_T, 0), _levi_row(dual_weight(b0), p, nq, _SIGMA, 0).sides)
        for (b0, b1), cb in beta_terms
    ]

    for ca, eu, ou_sides in alphas:
        for cb, ol, el_sides in betas:
            mult = ca * cb
            for lam_size, even_lower_side, odd_upper_side in zip(lam_sizes, el_sides, ou_sides):
                # upper is the quotient block, lower the sub block; bit j
                # stands for the cell of nus[j], walked in ascending j
                cells = 0
                for mask, _, _ in sides[even_lower_side]:
                    cells |= eu[mask]
                if not cells:
                    continue
                odd = 0
                for mask, _, _ in sides[odd_upper_side]:
                    odd |= ol[mask]
                cells &= odd
                while cells:
                    low = cells & -cells
                    cells ^= low
                    j = low.bit_length() - 1
                    ext_deg = lam_size + nu_sizes[j]
                    grades = page.get(ext_deg)
                    if grades is None:
                        grades = page[ext_deg] = {}
                    odd_parts = _levi_bott_pairs(odd_upper_side, ol.sides[j])
                    for d0, w0, c0 in _levi_bott_pairs(eu.sides[j], even_lower_side):
                        c0 *= mult
                        for d1, w1, c1 in odd_parts:
                            # one int lookup for the degree, one key tuple
                            terms = grades.get(d0 + d1)
                            if terms is None:
                                terms = grades[d0 + d1] = {}
                            key = w0, w1
                            terms[key] = terms.get(key, 0) + c0 * c1
    return page


def e1_page(spec: BundleSpec) -> GradedCharacter:
    """First page of the ideal-filtration spectral sequence, by total degree."""
    gc = GradedCharacter(spec.m, spec.n)
    for grades in _e1_terms(spec, by_exterior=False).values():
        for deg, terms in grades.items():
            gc._add_terms(deg, terms)
    return gc


def e1_bigraded(spec: BundleSpec) -> Dict[Tuple[int, int], VirtualCharacter]:
    """Diagnostic view keyed by (cohomological degree, exterior degree)."""
    return {
        (deg, ext): VirtualCharacter._trusted(spec.m, spec.n, terms)
        for ext, grades in _e1_terms(spec, by_exterior=True).items()
        for deg, terms in grades.items()
    }


# The character of a closed form's generators as two parallel tuples:
# keys (w0, w1) and multiplicities.
_Base = Tuple[Tuple[Tuple[GLWeight, GLWeight], ...], Tuple[int, ...]]


@lru_cache(maxsize=2048)
def _closed_form_base(alpha: Partition, beta: Partition, m: int, n: int, shifted: bool) -> _Base:
    """The character that ``main_theorem_char`` places on the series.

    It is S_(alpha; beta) of C^{m|n} in CASE1.  CASE2 (``shifted``) is CASE1
    on the parity-shifted space C^{n|m} with both shapes transposed, so there
    the character is computed on n|m and its two blocks are swapped back,
    once per key.  Memoized across calls, for the 2048 most recently used
    keys (one pass of 3070 small bundles asks for about 1320).
    """
    if not shifted:
        terms = rational_schur_char(alpha, beta, SuperDim(m, n)).terms
        keys = ((_interned(w0), _interned(w1)) for w0, w1 in terms)
    else:
        terms = rational_schur_char(alpha.transpose(), beta.transpose(), SuperDim(n, m)).terms
        keys = ((_interned(w1), _interned(w0)) for w0, w1 in terms)
    return tuple(keys), tuple(terms.values())


def main_theorem_char(spec: BundleSpec | FlagSpec) -> GradedCharacter:
    """Closed-form cohomology: the structure-sheaf series times one character.

    The character is read from ``_closed_form_base``, and each degree of the
    series gets its own copy of it, scaled by the series coefficient.
    """
    case = hypothesis_case(spec)
    series = _structure_sheaf_hilbert(spec, case)
    shifted = case is HypothesisCase.CASE2
    keys, mults = _closed_form_base(spec.alpha, spec.beta, spec.m, spec.n, shifted)
    gc = GradedCharacter(spec.m, spec.n)
    for deg, coeff in series.coeffs.items():
        gc._add_terms(deg, dict(zip(keys, mults if coeff == 1 else [coeff * c for c in mults])))
    return gc


class VerifyReport(_Value):
    """Outcome of cross-checking the two pipelines on one bundle."""

    __slots__ = ("spec", "matches", "diffs", "possibly_nondegenerate")
    __setattr__ = object.__setattr__
    __hash__ = None  # mutable

    def __init__(
        self,
        spec: BundleSpec,
        matches: bool,
        diffs: Dict[int, VirtualCharacter] | None = None,
        possibly_nondegenerate: bool = False,
    ) -> None:
        self._init(spec, matches, {} if diffs is None else diffs, possibly_nondegenerate)


def verify_main_theorem(
    spec: BundleSpec, closed_form: GradedCharacter | None = None
) -> VerifyReport:
    """Compare the first page with the closed form, degree by degree.

    ``closed_form`` is ``main_theorem_char(spec)`` when the caller has it
    already; otherwise it is computed here.  ``matches`` means the first
    page already equals the closed form; a mismatch may be a surplus that
    later differentials cancel.
    """
    expected = main_theorem_char(spec) if closed_form is None else closed_form
    actual = e1_page(spec)
    diffs = actual.diff(expected)
    return VerifyReport(
        spec=spec,
        matches=not diffs,
        diffs=diffs,
        possibly_nondegenerate=actual.has_odd_support(),
    )
