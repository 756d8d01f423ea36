from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbott.characters import pad_weight, schur_product, weyl_dim
from superbott.errors import PreconditionError
from superbott.oracle import specialize_character
from superbott.partitions import Partition, partitions_of, subpartitions
from superbott.superschur import (
    SuperDim,
    SuperWeight,
    _lr_pairs,
    classical_rational_weight,
    composite_det_specialized,
    composite_euler_char,
    highest_weight,
    is_irreducible_case,
    rational_schur_char,
    super_h,
    super_schur_decompose,
)


def test_superdim():
    d = SuperDim(3, 2)
    assert d.shifted() == SuperDim(2, 3)
    with pytest.raises(ValueError):
        SuperDim(-1, 0)


def test_super_schur_decompose_standard():
    c = super_schur_decompose(Partition((1,)), SuperDim(2, 1))
    assert c.terms == {((1, 0), (0,)): 1, ((0, 0), (1,)): 1}
    assert c.total_dim() == 3


def test_super_schur_decompose_vanishing():
    # a shape with lambda_{m+1} > n gives the zero functor
    assert super_schur_decompose(Partition((2, 2)), SuperDim(1, 1)).is_zero()
    assert not super_schur_decompose(Partition((2, 1)), SuperDim(1, 1)).is_zero()


def test_super_schur_dims_match_super_h():
    ones = lambda k: [Fraction(1)] * k
    for m, n in [(2, 1), (1, 2), (2, 2)]:
        for k in range(5):
            c = super_schur_decompose(Partition((k,)), SuperDim(m, n))
            assert c.total_dim() == super_h(k, ones(m), ones(n))


def test_super_schur_degree_additive_dims():
    # dim S_lam(m|n) summed against ordinary dims is basis independent:
    # check transpose duality dim S_lam(m|n) = dim S_{lam^T}(n|m)
    for k in range(6):
        for lam in partitions_of(k):
            a = super_schur_decompose(lam, SuperDim(2, 1))
            b = super_schur_decompose(lam.transpose(), SuperDim(1, 2))
            assert a.total_dim() == b.total_dim()


def test_super_schur_superdimension():
    # sdim S_lam(m|n) is the ordinary dim S_lam(C^(m-n)) for m >= n, and
    # (-1)^|lam| dim S_(lam^T)(C^(n-m)) for m < n
    def ordinary_dim(lam, r):
        return weyl_dim(pad_weight(lam, r)) if lam.length <= r else 0

    for m in range(6):
        for n in range(6):
            for k in range(6):
                for lam in partitions_of(k):
                    char = super_schur_decompose(lam, SuperDim(m, n))
                    sdim = sum(
                        c * weyl_dim(w0) * weyl_dim(w1) * (-1) ** sum(w1)
                        for (w0, w1), c in char.items()
                    )
                    if m >= n:
                        want = ordinary_dim(lam, m - n)
                    else:
                        want = (-1) ** k * ordinary_dim(lam.transpose(), n - m)
                    assert sdim == want, (lam, m, n)


def test_classical_rational_weight():
    assert classical_rational_weight(Partition((2,)), Partition((1,)), 3) == (2, 0, -1)
    assert classical_rational_weight(Partition(), Partition(), 2) == (0, 0)
    assert classical_rational_weight(Partition((1,)), Partition((1,)), 1) is None


def test_lr_pairs_match_per_delta_definition():
    # (delta, alpha, c) with c = c^lam_{alpha, delta^T}, enumerated per delta;
    # _lr_pairs reads the skew expansion, so c comes from the product search
    for k in range(7):
        for lam in partitions_of(k):
            want = Counter()
            for j in range(k + 1):
                for delta in partitions_of(j, max_length=lam.part(0), max_part=lam.length):
                    for alpha in subpartitions(lam):
                        if alpha.size == k - j:
                            c = schur_product(alpha, delta.transpose(), lam.length).get(lam, 0)
                            if c:
                                want[delta, alpha, c] += 1
            assert Counter(_lr_pairs(lam)) == want, lam


def test_rational_schur_char_pgl():
    for m, n in [(3, 1), (4, 2), (5, 2), (2, 0)]:
        c = rational_schur_char((1,), (1,), SuperDim(m, n))
        assert c.total_dim() == (m + n) ** 2 - 1


def test_rational_schur_char_precondition():
    with pytest.raises(PreconditionError, match="complete-intersection"):
        rational_schur_char((2, 1), (1, 1), SuperDim(2, 1))


def test_rational_schur_char_duality():
    d = SuperDim(4, 2)
    a = rational_schur_char((2, 1), (1,), d)
    assert a.dual() == rational_schur_char((1,), (2, 1), d)


def test_composite_euler_equals_rational():
    for m, n in [(3, 1), (4, 2)]:
        d = SuperDim(m, n)
        for ka in range(3):
            for kb in range(3):
                for lam in partitions_of(ka):
                    for mu in partitions_of(kb):
                        if m < lam.length + mu.length - 1:
                            continue
                        assert composite_euler_char(lam, mu, d) == rational_schur_char(
                            lam, mu, d
                        )


def test_composite_box_padding_invariance():
    d = SuperDim(4, 1)
    lam, mu = Partition((2,)), Partition((1,))
    base = composite_euler_char(lam, mu, d)
    assert composite_euler_char(lam, mu, d, p=3, q=2) == base
    with pytest.raises(PreconditionError, match="box smaller"):
        composite_euler_char(lam, mu, d, p=0, q=1)


def test_composite_det_matches_specialization():
    d = SuperDim(3, 1)
    lam, mu = Partition((2, 1)), Partition((1,))
    pts = ([Fraction(2), Fraction(-3), Fraction(1, 2)], [Fraction(5, 3)])
    det = composite_det_specialized(lam, mu, d, pts)
    char = rational_schur_char(lam, mu, d)
    assert det == specialize_character(char, *pts)


@st.composite
def rational_schur_inputs(draw):
    """(lam, mu, m|n) with m at or above the complete-intersection bound."""
    partition = st.lists(st.integers(1, 3), max_size=4).map(
        lambda parts: Partition(sorted(parts, reverse=True))
    )
    lam, mu = draw(partition), draw(partition)
    low = max(0, lam.length + mu.length - 1)
    return lam, mu, SuperDim(draw(st.integers(low, low + 3)), draw(st.integers(0, 3)))


@settings(derandomize=True, deadline=None)
@given(rational_schur_inputs())
def test_rational_schur_dim_matches_determinant_property(inputs):
    lam, mu, d = inputs
    ones = ([1] * d.m, [1] * d.n)
    assert rational_schur_char(lam, mu, d).total_dim() == composite_det_specialized(lam, mu, d, ones)


def test_composite_det_singular_point():
    with pytest.raises(PreconditionError, match="singular evaluation"):
        composite_det_specialized(
            Partition((1,)),
            Partition(),
            SuperDim(2, 0),
            ([Fraction(0), Fraction(1)], []),
        )


def test_super_h_boundaries():
    assert super_h(0, [Fraction(2)], [Fraction(3)]) == 1
    assert super_h(-1, [Fraction(2)], []) == 0
    # pure odd part: e_k vanishes past the dimension
    assert super_h(2, [], [Fraction(1)]) == 0


def test_highest_weight():
    hw = highest_weight(Partition((1,)), Partition((1,)), SuperDim(3, 1))
    assert hw == SuperWeight((1, 0, 0), (-1,))
    # mu wider than n pushes negative entries into the even block
    hw = highest_weight(Partition(), Partition((2, 1)), SuperDim(3, 1))
    assert hw == SuperWeight((0, 0, -1), (-2,))
    with pytest.raises(PreconditionError, match="collide"):
        highest_weight(Partition((1, 1, 1)), Partition((2,)), SuperDim(3, 1))


def test_highest_weight_occurs_once():
    d = SuperDim(4, 2)
    for lam, mu in [((1,), (1,)), ((2,), (1, 1)), ((2, 1), (1,))]:
        lam, mu = Partition(lam), Partition(mu)
        if not is_irreducible_case(lam, mu, d):
            continue
        hw = highest_weight(lam, mu, d)
        char = rational_schur_char(lam, mu, d)
        assert char.terms.get((hw.even, hw.odd)) == 1


def test_is_irreducible_case():
    assert is_irreducible_case((1,), (1,), SuperDim(4, 2))
    assert not is_irreducible_case((1,), (1,), SuperDim(3, 2))
