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
from typing import Dict, FrozenSet, Iterator, List, Tuple

from .bott import levi_bott, rho_shift
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


# A rho-shifted Levi block with the set of its entries and its multiplicity.
_ShiftedTerm = Tuple[GLWeight, FrozenSet[int], int]


def _shifted_tensor(
    memo: Dict[Tuple[GLWeight, GLWeight, int], List[_ShiftedTerm]],
    a: GLWeight,
    b: GLWeight,
    offset: int,
) -> List[_ShiftedTerm]:
    """Terms of rational_tensor(a, b) as rho-shifted Levi blocks (see rho_shift).

    The key carries the offset: an even-side and an odd-side block can
    share (a, b) but sit at different places in rho.
    """
    key = (a, b, offset)
    terms = memo.get(key)
    if terms is None:
        terms = []
        for w, c in rational_tensor(a, b).items():
            v = rho_shift(w, offset)
            terms.append((v, frozenset(v), c))
        memo[key] = terms
    return terms


def _levi_block_bott(
    upper_terms: List[_ShiftedTerm], lower_terms: List[_ShiftedTerm]
) -> List[Tuple[int, GLWeight, int]]:
    """Nonvanishing (degree, weight, multiplicity) of every pair of blocks."""
    out = []
    for upper, entries, c1 in upper_terms:
        for lower, _, c2 in lower_terms:
            res = levi_bott(upper, entries, lower)
            if res is not None:
                out.append((res[0], res[1], c1 * c2))
    return out


def _e1_contributions(spec: BundleSpec) -> Iterator[Tuple[int, int, Tuple[tuple, tuple], int]]:
    """Yield (total degree, exterior degree, weight pair, multiplicity)."""
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
    betas = [(dual_weight(b0), dual_weight(b1), cb) for (b0, b1), cb in beta_terms.items()]
    memo: Dict[Tuple[GLWeight, GLWeight, int], List[_ShiftedTerm]] = {}

    for (a0, a1), ca in alpha_terms.items():
        for b0_dual, b1_dual, cb in betas:
            mult = ca * cb
            for lam_size, lam_even, lam_odd in lams:
                for nu_size, nu_even, nu_odd in nus:
                    # GL(m) side: quotient block then sub block
                    even_parts = _levi_block_bott(
                        _shifted_tensor(memo, a0, nu_even, p),
                        _shifted_tensor(memo, b0_dual, lam_even, 0),
                    )
                    if not even_parts:
                        continue
                    odd_parts = _levi_block_bott(
                        _shifted_tensor(memo, a1, lam_odd, q),
                        _shifted_tensor(memo, b1_dual, nu_odd, 0),
                    )
                    ext_deg = lam_size + nu_size
                    for d0, w0, c0 in even_parts:
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
