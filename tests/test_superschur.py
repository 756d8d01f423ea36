import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbott.characters import pad_weight, schur_product, weyl_dim
from superbott.errors import PreconditionError
from superbott.oracle import specialize_character, specialize_weight
from superbott.partitions import Partition, partitions_of, subpartitions
from superbott.superschur import (
    SuperDim,
    SuperWeight,
    _fraction_det,
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
    # generic points, against the tableau route, which builds no h table:
    # this checks the odd (elementary) pass of the table on its own
    evens = [Fraction(2), Fraction(3, 2), Fraction(5)]
    odds = [Fraction(7, 3), Fraction(1, 2), Fraction(-4, 5)]
    for m in range(4):
        for n in range(4):
            xs, ys = evens[:m], odds[:n]
            for k in range(6):
                c = super_schur_decompose(Partition((k,)), SuperDim(m, n))
                expected = Fraction(0)
                for (w0, w1), mult in c.items():
                    expected += mult * specialize_weight(w0, xs) * specialize_weight(w1, ys)
                assert super_h(k, xs, ys) == expected, (m, n, k)


def test_super_schur_is_rational_schur_with_empty_mu():
    # S_lam(C^{m|n}) = S_(lam; empty): the two routes read different skew
    # keys of _lr_count, (lam^T, mu^T) for one and (lam, alpha) for the other
    cases = 0
    for size in range(7):
        for lam in partitions_of(size):
            for m in range(max(0, lam.length - 1), 7):
                for n in range(5):
                    d = SuperDim(m, n)
                    assert super_schur_decompose(lam, d) == rational_schur_char(lam, (), d), (lam, d)
                    cases += 1
    assert cases == 810


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
    # every term, against the independent skew-super-Schur route, from the
    # complete-intersection bound up to two rows past it
    shapes = [lam for k in range(5) for lam in partitions_of(k)]
    for n in (1, 2, 3):
        for lam in shapes:
            for mu in shapes:
                low = max(0, lam.length + mu.length - 1)
                for m in range(low, low + 3):
                    d = SuperDim(m, n)
                    assert composite_euler_char(lam, mu, d) == rational_schur_char(lam, mu, d)


# Large shapes, up to 5,493 terms each; the last-but-two sits at the
# complete-intersection bound.
RATIONAL_SCHUR_PINS = [
    ((4, 3, 2, 1), (3, 3, 1, 1), 9, 3),
    ((3, 2, 2, 2, 1), (3, 3, 2), 7, 3),
    ((3, 2, 2, 2, 1), (2, 1, 1), 9, 3),
    ((5, 2, 2), (2, 2), 4, 3),
    ((4, 2, 1, 1, 1, 1), (2, 2, 2, 1, 1), 11, 2),
    ((5, 1, 1, 1, 1, 1), (5, 1, 1, 1), 9, 2),
]


def test_rational_schur_char_digest_pinned():
    h = hashlib.sha256()
    for alpha, beta, m, n in RATIONAL_SCHUR_PINS:
        char = rational_schur_char(Partition(alpha), Partition(beta), SuperDim(m, n))
        obj = [[list(alpha), list(beta), m, n], char.to_json_obj(), char.total_dim()]
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == "674a276e59c00d721ca74b6497e3c4df8da6f1c3739412667f847575d643fe91"


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


def _leibniz(mat):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(mat))):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= mat[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += -term if inversions % 2 else term
    return total


def test_fraction_det_matches_leibniz():
    # composite_det_specialized and the Jacobi-Trudi oracle both call
    # _fraction_det, so their agreement alone cannot catch a determinant bug
    assert _fraction_det([]) == 1
    assert _fraction_det([[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]) == -6
    rng = random.Random(13)
    singular = 0
    for trial in range(400):
        n = trial % 6
        if trial % 2:
            entries = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 10**12 + 39))) for _ in range(n * n)]
        else:
            # small entries make zero pivots after elimination likely
            entries = [Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(n * n)]
        mat = [entries[i * n : (i + 1) * n] for i in range(n)]
        if n >= 2 and trial % 3 == 0:
            mat[0][0] = Fraction(0)
        if n >= 2 and trial % 5 == 0:
            mat[-1] = [Fraction(-3, 4) * x for x in mat[0]]
        expected = _leibniz(mat)
        singular += expected == 0
        assert _fraction_det(mat) == expected, mat
    assert singular > 20


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
