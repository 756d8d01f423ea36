"""The two cohomology pipelines for super Grassmannians and partial flags.

The first-page computation expands the associated graded bundle over the
product of classical Grassmannians and pushes every Levi-irreducible term
through the Bott algorithm; the closed form places one rational Schur
character on the Poincare polynomial of the classical Grassmannian.  Under
the main hypothesis the closed form is the cohomology, which the first page
converges to; the first page need not degenerate, so it may carry more.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .bott import entry_mask, levi_bott, rho_shift
from .characters import (
    GLWeight,
    GradedCharacter,
    VirtualCharacter,
    dual_weight,
    pad_weight,
    rational_tensor,
)
from .errors import HypothesisError, SuperbottError, TermLimitError
from .partitions import Partition, partitions_in_box
from .qseries import HilbertSeries, flag_poincare
from .superschur import SuperDim, rational_schur_char, super_schur_decompose

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
    def m(self) -> int:
        return self.d.m

    @property
    def n(self) -> int:
        return self.d.n


@dataclass(frozen=True)
class FlagSpec:
    """A Schur-functor bundle on a super partial flag variety."""

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


def hypothesis_case(spec: BundleSpec) -> HypothesisCase:
    """Which branch of the main-theorem hypothesis the bundle satisfies."""
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    if m - n - spec.alpha.length >= p - q >= spec.beta.length:
        return HypothesisCase.CASE1
    if n - m - spec.alpha.part(0) >= q - p >= spec.beta.part(0):
        return HypothesisCase.CASE2
    return HypothesisCase.NONE


def structure_sheaf_hilbert(spec: BundleSpec) -> HilbertSeries:
    """Hilbert series of the structure-sheaf cohomology ring."""
    case = hypothesis_case(spec)
    if case is HypothesisCase.CASE1:
        return flag_poincare((spec.q, spec.n - spec.q))
    if case is HypothesisCase.CASE2:
        return flag_poincare((spec.p, spec.m - spec.p))
    raise HypothesisError("main theorem hypothesis not satisfied")


# One Levi block side of rational_tensor(a, b): the entry_mask of each
# rho-shifted block, and the blocks with their multiplicities.
_BlockSide = Tuple[Tuple[int, ...], Tuple[Tuple[GLWeight, int], ...]]


@lru_cache(maxsize=1024)
def _block_side(a: GLWeight, b: GLWeight, offset: int) -> _BlockSide:
    """Terms of rational_tensor(a, b) as rho-shifted Levi blocks (see rho_shift).

    The result depends on (a, b, offset) alone, so it is memoized across
    calls, for the 1024 most recently used keys; it is a tuple of tuples,
    which no caller can change.
    """
    blocks = tuple((rho_shift(w, offset), c) for w, c in rational_tensor(a, b).items())
    return tuple(entry_mask(v) for v, _ in blocks), blocks


def _survives(upper_masks: Tuple[int, ...], lower_masks: Tuple[int, ...]) -> bool:
    """Whether some pair of blocks shares no entry, so Bott does not vanish."""
    # loop over the shorter side, scan the longer one at C speed
    if len(lower_masks) > len(upper_masks):
        upper_masks, lower_masks = lower_masks, upper_masks
    for mask in lower_masks:
        if 0 in map(mask.__and__, upper_masks):
            return True
    return False


def _levi_bott_pairs(upper: _BlockSide, lower: _BlockSide) -> List[Tuple[int, GLWeight, int]]:
    """(degree, weight, multiplicity) of levi_bott on each surviving pair."""
    lower_terms = list(zip(*lower))
    out = []
    for um, (u, c1) in zip(*upper):
        for lm, (l, c2) in lower_terms:
            if not um & lm:
                degree, w = levi_bott(u, um, l, lm)
                out.append((degree, w, c1 * c2))
    return out


def _e1_contributions(spec: BundleSpec) -> Iterator[Tuple[int, int, Tuple[tuple, tuple], int]]:
    """Yield (total degree, exterior degree, weight pair, multiplicity).

    Each (alpha-term, beta-term, lam, nu) gives an even (GL(m)) and an odd
    (GL(n)) Levi weight, each a sum of pairs of rho-shifted blocks, one per
    pair of rational_tensor terms.  A pair survives Bott exactly when its
    blocks share no entry, which is one AND of their ``entry_mask``s.  The
    work runs in this order: first the even pairs are tested, and the term
    is dropped if none survives; only then are the odd blocks built and
    tested; only when both sides survive does ``levi_bott`` compute degrees
    and weights.  Each side's blocks come from a table indexed by the shape's
    position, filled on first use: even upper per (a0, nu), even lower per
    (b0, lam), odd upper per (a1, lam) and odd lower per (b1, nu).
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    mq, nq = m - p, n - q  # classical quotient ranks

    alpha_terms = super_schur_decompose(spec.alpha, SuperDim(mq, nq))
    beta_terms = super_schur_decompose(spec.beta, SuperDim(p, q))
    if alpha_terms.is_zero() or beta_terms.is_zero():
        return

    # Exterior-algebra shapes: lam pairs the sub bundle on the even side with
    # the dual quotient on the odd side, nu the other way around.
    lam_list = list(partitions_in_box(p, nq))
    nu_list = list(partitions_in_box(mq, q))

    budget = _max_terms()
    count = len(alpha_terms.terms) * len(beta_terms.terms) * len(lam_list) * len(nu_list)
    if count > budget:
        raise TermLimitError(f"expansion of {count} terms exceeds budget {budget}")

    lams = [
        (lam.size, pad_weight(lam, p), dual_weight(pad_weight(lam.transpose(), nq)))
        for lam in lam_list
    ]
    nus = [
        (nu.size, dual_weight(pad_weight(nu, mq)), pad_weight(nu.transpose(), q))
        for nu in nu_list
    ]

    # Block tables: one row per distinct weight, one slot per shape position.
    even_upper: Dict[GLWeight, List[Optional[_BlockSide]]] = {}
    even_lower: Dict[GLWeight, List[Optional[_BlockSide]]] = {}
    odd_upper: Dict[GLWeight, List[Optional[_BlockSide]]] = {}
    odd_lower: Dict[GLWeight, List[Optional[_BlockSide]]] = {}
    alphas = []
    for (a0, a1), ca in alpha_terms.items():
        eu_row = even_upper.setdefault(a0, [None] * len(nus))
        ou_row = odd_upper.setdefault(a1, [None] * len(lams))
        alphas.append((a0, a1, ca, eu_row, ou_row))
    betas = []
    for (b0, b1), cb in beta_terms.items():
        b0, b1 = dual_weight(b0), dual_weight(b1)
        el_row = even_lower.setdefault(b0, [None] * len(lams))
        ol_row = odd_lower.setdefault(b1, [None] * len(nus))
        betas.append((b0, b1, cb, el_row, ol_row))

    for a0, a1, ca, eu_row, ou_row in alphas:
        for b0, b1, cb, el_row, ol_row in betas:
            mult = ca * cb
            for i, (lam_size, lam_even, lam_odd) in enumerate(lams):
                even_lower_side = el_row[i]
                if even_lower_side is None:
                    even_lower_side = el_row[i] = _block_side(b0, lam_even, 0)
                for j, (nu_size, nu_even, nu_odd) in enumerate(nus):
                    # upper is the quotient block, lower the sub block
                    even_upper_side = eu_row[j]
                    if even_upper_side is None:
                        even_upper_side = eu_row[j] = _block_side(a0, nu_even, p)
                    if not _survives(even_upper_side[0], even_lower_side[0]):
                        continue
                    odd_upper_side = ou_row[i]
                    if odd_upper_side is None:
                        odd_upper_side = ou_row[i] = _block_side(a1, lam_odd, q)
                    odd_lower_side = ol_row[j]
                    if odd_lower_side is None:
                        odd_lower_side = ol_row[j] = _block_side(b1, nu_odd, 0)
                    if not _survives(odd_upper_side[0], odd_lower_side[0]):
                        continue
                    ext_deg = lam_size + nu_size
                    odd_parts = _levi_bott_pairs(odd_upper_side, odd_lower_side)
                    for d0, w0, c0 in _levi_bott_pairs(even_upper_side, even_lower_side):
                        for d1, w1, c1 in odd_parts:
                            yield d0 + d1, ext_deg, (w0, w1), mult * c0 * c1


def e1_page(spec: BundleSpec) -> GradedCharacter:
    """First page of the ideal-filtration spectral sequence, by total degree."""
    gc = GradedCharacter(spec.m, spec.n)
    for deg, _ext, key, mult in _e1_contributions(spec):
        gc.add_term(deg, key, mult)
    return gc


def e1_bigraded(spec: BundleSpec) -> Dict[Tuple[int, int], VirtualCharacter]:
    """Diagnostic view keyed by (cohomological degree, exterior degree)."""
    out: Dict[Tuple[int, int], VirtualCharacter] = {}
    for deg, ext, key, mult in _e1_contributions(spec):
        vc = out.setdefault((deg, ext), VirtualCharacter(spec.m, spec.n))
        vc.add_term(key, mult)
    return {k: v for k, v in out.items() if not v.is_zero()}


def _swap_blocks(char: VirtualCharacter) -> VirtualCharacter:
    out = VirtualCharacter(char.n, char.m)
    for (w0, w1), c in char.items():
        out.add_term((w1, w0), c)
    return out


def _generator_char(spec: BundleSpec, case: HypothesisCase) -> VirtualCharacter:
    if case is HypothesisCase.CASE1:
        return rational_schur_char(spec.alpha, spec.beta, spec.d)
    shifted = rational_schur_char(
        spec.alpha.transpose(), spec.beta.transpose(), spec.d.shifted()
    )
    return _swap_blocks(shifted)


def main_theorem_char(spec: BundleSpec) -> GradedCharacter:
    """Closed-form cohomology: the structure-sheaf series times one character."""
    case = hypothesis_case(spec)
    if case is HypothesisCase.NONE:
        raise HypothesisError("main theorem hypothesis not satisfied")
    base = _generator_char(spec, case)
    series = structure_sheaf_hilbert(spec)
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


def _flag_case(flag: FlagSpec, with_shapes: bool) -> HypothesisCase:
    m, n = flag.m, flag.n
    la = flag.alpha.length if with_shapes else 0
    lb = flag.beta.length if with_shapes else 0
    a1 = flag.alpha.part(0) if with_shapes else 0
    b1 = flag.beta.part(0) if with_shapes else 0
    gaps = [p - q for p, q in flag.steps]
    if all(x >= y for x, y in zip([m - n - la] + gaps[::-1], gaps[::-1] + [lb])):
        return HypothesisCase.CASE1
    gaps = [q - p for p, q in flag.steps]
    if all(x >= y for x, y in zip([n - m - a1] + gaps[::-1], gaps[::-1] + [b1])):
        return HypothesisCase.CASE2
    return HypothesisCase.NONE


def _flag_blocks(values: Tuple[int, ...], total: int) -> Tuple[int, ...]:
    chain = list(values) + [total]
    prev = 0
    blocks = []
    for v in chain:
        blocks.append(v - prev)
        prev = v
    return tuple(blocks)


def partial_flag_hilbert(flag: FlagSpec) -> HilbertSeries:
    """Hilbert series of the structure-sheaf cohomology of a partial flag."""
    case = _flag_case(flag, with_shapes=False)
    if case is HypothesisCase.CASE1:
        return flag_poincare(_flag_blocks(tuple(q for _, q in flag.steps), flag.n))
    if case is HypothesisCase.CASE2:
        return flag_poincare(_flag_blocks(tuple(p for p, _ in flag.steps), flag.m))
    raise HypothesisError("partial flag chain condition not satisfied")


def partial_flag_char(flag: FlagSpec) -> GradedCharacter:
    """Cohomology of the top-quotient / bottom-sub Schur bundle on a flag."""
    case = _flag_case(flag, with_shapes=True)
    if case is HypothesisCase.NONE:
        raise HypothesisError("partial flag chain condition not satisfied")
    if case is HypothesisCase.CASE1:
        base = rational_schur_char(flag.alpha, flag.beta, flag.d)
        qs = tuple(q for _, q in flag.steps)
        series = flag_poincare(_flag_blocks(qs, flag.n))
        # stepwise factorization: each forgetful map contributes one
        # Grassmannian factor
        factor = HilbertSeries.one()
        prev = 0
        for q in qs:
            factor = factor * flag_poincare((q - prev, flag.n - q))
            prev = q
        if factor != series:
            raise SuperbottError("stepwise factorization failed")
    else:
        shifted = rational_schur_char(
            flag.alpha.transpose(), flag.beta.transpose(), flag.d.shifted()
        )
        base = _swap_blocks(shifted)
        ps = tuple(p for p, _ in flag.steps)
        series = flag_poincare(_flag_blocks(ps, flag.m))
    gc = GradedCharacter(flag.m, flag.n)
    for deg, coeff in series.coeffs.items():
        gc.add_char(deg, base, coeff)
    return gc
