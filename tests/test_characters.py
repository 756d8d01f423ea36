import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbott.characters import (
    GradedCharacter,
    VirtualCharacter,
    _polynomial_product,
    _rational_tensor_cached,
    dual_weight,
    external_product,
    lr_coefficient,
    pad_weight,
    rational_tensor,
    schur_product,
    skew_expand,
    weyl_dim,
)
from superbott.errors import SuperbottError
from superbott.oracle import schur_expand_bruteforce
from superbott.partitions import (
    Partition,
    SkewShape,
    contains,
    dominates,
    partitions_of,
    row_sum,
    subpartitions,
)


def test_pad_and_dual():
    assert pad_weight(Partition((2, 1)), 4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        pad_weight(Partition((1, 1, 1)), 2)
    assert dual_weight((2, 0, -1)) == (1, 0, -2)
    assert dual_weight(dual_weight((3, 1, 0))) == (3, 1, 0)


def test_weyl_dim():
    assert weyl_dim((1, 0, 0)) == 3
    assert weyl_dim((1, 1, 0)) == 3
    assert weyl_dim((2, 1, 0)) == 8
    assert weyl_dim((0,) * 5) == 1
    assert weyl_dim((1, 0, 0, -1)) == 15  # adjoint of sl4


def test_weyl_dim_rejects_fractional_dimension():
    # the check stays under python -O, unlike an assert
    with pytest.raises(SuperbottError, match="not an integer"):
        weyl_dim((Fraction(1, 2), 0))


def test_lr_basic_values():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((2,), (1,), (2,)) == 0  # size mismatch
    assert lr_coefficient((3,), (1,), (2, 2)) == 0  # no containment
    assert lr_coefficient((1, 1), (1, 1), (3, 1)) == 0  # contained, not dominated


def test_lr_symmetry():
    shapes = [lam for n in range(5) for lam in partitions_of(n)]
    for lam in shapes:
        for mu in shapes:
            for nu in partitions_of(lam.size + mu.size):
                assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_lr_support_properties():
    shapes = [lam for n in range(5) for lam in partitions_of(n)]
    for lam in shapes:
        for mu in shapes:
            for nu in partitions_of(lam.size + mu.size):
                if lr_coefficient(lam, mu, nu):
                    assert contains(lam, nu) and contains(mu, nu)
                    assert dominates(row_sum(lam, mu), nu)


def test_schur_product_pieri():
    got = schur_product(Partition((2, 1)), Partition((1,)), max_length=10)
    assert got == {
        Partition((3, 1)): 1,
        Partition((2, 2)): 1,
        Partition((2, 1, 1)): 1,
    }


def test_schur_product_truncation():
    got = schur_product(Partition((1, 1)), Partition((1, 1)), max_length=2)
    assert got == {Partition((2, 2)): 1}


def test_skew_expand():
    got = skew_expand(SkewShape(Partition((2, 1)), Partition((1,))))
    assert got == {Partition((2,)): 1, Partition((1, 1)): 1}
    assert skew_expand(SkewShape(Partition((2, 2)), Partition((1,)))) == {
        Partition((2, 1)): 1
    }


def test_rational_tensor_shift_invariance():
    # V tensor V* in GL(2): adjoint plus trivial
    got = rational_tensor((1, 0), (0, -1))
    assert got == {(1, -1): 1, (0, 0): 1}
    # dimensions match on both sides
    for a, b in [((2, 0), (1, -1)), ((1, 1, 0), (0, -1, -2))]:
        got = rational_tensor(a, b)
        assert sum(c * weyl_dim(w) for w, c in got.items()) == weyl_dim(a) * weyl_dim(b)


def dominant_weights(rank, lo, hi):
    return itertools.combinations_with_replacement(range(hi, lo - 1, -1), rank)


@st.composite
def dominant_weight_pairs(draw):
    """Two dominant weights of one rank <= 5, entries in [-3, 3]."""
    rank = draw(st.integers(0, 5))
    entries = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    return tuple(sorted(draw(entries), reverse=True)), tuple(sorted(draw(entries), reverse=True))


@settings(derandomize=True, deadline=None)
@given(dominant_weight_pairs())
def test_rational_tensor_dimension_property(pair):
    a, b = pair
    got = rational_tensor(a, b)
    assert sum(c * weyl_dim(w) for w, c in got.items()) == weyl_dim(a) * weyl_dim(b)


def test_rational_tensor_is_symmetric():
    # rational_tensor multiplies with the smaller shape as the content,
    # so swapping the operands must not change the result
    weights = [w for rank in range(4) for w in dominant_weights(rank, -2, 2)]
    for a in weights:
        for b in weights:
            if len(a) == len(b):
                assert rational_tensor(a, b) == rational_tensor(b, a), (a, b)


def test_rational_tensor_shifts_with_its_factors():
    # V_(a+t) x V_b = det^t x (V_a x V_b): every weight of the product moves by t
    weights = [w for rank in range(1, 4) for w in dominant_weights(rank, -2, 3)]
    pairs = 0
    for a in weights:
        for b in weights:
            if len(a) != len(b):
                continue
            base = rational_tensor(a, b)
            if a[-1] >= 0 and b[-1] >= 0:
                # polynomial weights: one LR product, as the oracle-checked search gives it
                product = schur_product(Partition(a), Partition(b), len(a))
                assert base == {pad_weight(nu, len(a)): c for nu, c in product.items()}, (a, b)
            for t in range(-2, 3):
                shifted = tuple(x + t for x in a)
                want = {tuple(x + t for x in w): c for w, c in base.items()}
                assert rational_tensor(shifted, b) == want, (a, b, t)
                pairs += 1
    assert pairs == 5 * (6**2 + 21**2 + 56**2)


def test_shifted_pairs_share_one_polynomial_product():
    _rational_tensor_cached.cache_clear()
    _polynomial_product.cache_clear()
    rational_tensor((2, 2, 0), (1, 0, 0))
    misses = _polynomial_product.cache_info().misses
    assert misses == 1
    # (3, 3, 1) and (2, 1, 1) end in 1: shifted by it, they are the pair above
    rational_tensor((3, 3, 1), (2, 1, 1))
    # the factors swapped are the same unordered pair
    rational_tensor((0, -1, -1), (1, 1, -1))
    assert _polynomial_product.cache_info().misses == misses
    assert _rational_tensor_cached.cache_info().misses == 3


def test_rational_tensor_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        rational_tensor((1, 0), (1, 0, 0))


def test_virtual_character_arithmetic():
    a = VirtualCharacter(2, 1)
    a.add_term(((1, 0), (0,)), 1)
    b = VirtualCharacter(2, 1)
    b.add_term(((1, 0), (0,)), -1)
    assert (a + b).is_zero()
    assert a - a == VirtualCharacter(2, 1)
    assert a.scale(3).total_dim() == 6
    assert a.scale(0).is_zero()
    assert (a + a).terms == {((1, 0), (0,)): 2}
    assert a.terms == {((1, 0), (0,)): 1}
    with pytest.raises(ValueError, match="rank mismatch"):
        a.add_term(((1,), (0,)), 1)
    with pytest.raises(ValueError, match="rank mismatch"):
        a + VirtualCharacter(1, 1)


def test_virtual_character_tensor_and_dual():
    a = VirtualCharacter(2, 0)
    a.add_term(((1, 0), ()), 1)
    sq = a * a
    assert sq.terms == {((2, 0), ()): 1, ((1, 1), ()): 1}
    d = a.dual()
    assert d.terms == {((0, -1), ()): 1}
    assert d.total_dim() == a.total_dim()
    # (a - d)(a + d): the two cross terms cancel and leave no zero behind
    assert ((a - d) * (a + d)).terms == {
        ((2, 0), ()): 1,
        ((1, 1), ()): 1,
        ((0, -2), ()): -1,
        ((-1, -1), ()): -1,
    }
    with pytest.raises(ValueError, match="rank mismatch"):
        VirtualCharacter._trusted(2, 0, {((1,), ()): 1})


def test_virtual_character_json_roundtrip():
    a = VirtualCharacter(2, 1)
    a.add_term(((2, -1), (3,)), -4)
    a.add_term(((1, 0), (0,)), 2)
    obj = a.to_json_obj()
    assert VirtualCharacter.from_json_obj(2, 1, obj) == a


def test_external_product():
    a = VirtualCharacter(2, 0)
    a.add_term(((1, 0), ()), 2)
    b = VirtualCharacter(1, 0)
    b.add_term(((3,), ()), 1)
    got = external_product(a, b)
    assert got.terms == {((1, 0), (3,)): 2}
    assert (got.m, got.n) == (2, 1)
    with pytest.raises(ValueError, match="single-group"):
        external_product(got, b)


def test_graded_character():
    gc = GradedCharacter(2, 0)
    gc.add_term(0, ((1, 0), ()), 1)
    gc.add_term(2, ((1, 0), ()), 1)
    assert gc.degrees() == [0, 2]
    assert gc.total_dim() == 4
    assert not gc.has_odd_support()
    assert gc.euler_characteristic().terms == {((1, 0), ()): 2}
    gc.add_term(2, ((1, 0), ()), -1)
    assert gc.degrees() == [0]


def test_graded_character_add_char():
    base = VirtualCharacter(2, 0)
    base.add_term(((1, 0), ()), 2)
    base.add_term(((0, 0), ()), -1)
    gc = GradedCharacter(2, 0)
    gc.add_char(1, base, 3)
    assert gc.degree(1).terms == {((1, 0), ()): 6, ((0, 0), ()): -3}
    gc.add_char(2, base)
    gc.add_term(2, ((0, 0), ()), 1)
    assert gc.degree(2).terms == {((1, 0), ()): 2}
    gc.add_char(1, base, -3)
    gc.add_char(2, base, -1)
    assert gc.degrees() == [2]
    assert gc.degree(2).terms == {((0, 0), ()): 1}
    gc.add_char(0, VirtualCharacter(2, 0))
    assert gc.degrees() == [2]
    assert base.terms == {((1, 0), ()): 2, ((0, 0), ()): -1}
    with pytest.raises(ValueError, match="rank mismatch"):
        gc.add_char(0, VirtualCharacter(1, 0))


def test_graded_character_diff():
    a = GradedCharacter(1, 0)
    a.add_term(0, ((2,), ()), 1)
    b = GradedCharacter(1, 0)
    b.add_term(1, ((2,), ()), 1)
    d = a.diff(b)
    assert set(d) == {0, 1}
    assert a.diff(a) == {}
    with pytest.raises(ValueError, match="rank mismatch"):
        a.diff(GradedCharacter(2, 0))


def test_graded_character_diff_copies_one_sided_degrees():
    # a degree only self has is copied, one only other has is negated, and
    # one both have is merged; no degree of the result aliases an input
    a = GradedCharacter(1, 1)
    a.add_term(0, ((2,), (0,)), 3)
    a.add_term(1, ((1,), (1,)), 1)
    a.add_term(1, ((0,), (0,)), 2)
    b = GradedCharacter(1, 1)
    b.add_term(1, ((0,), (0,)), 2)
    b.add_term(2, ((1,), (0,)), 4)
    b.add_term(2, ((0,), (1,)), -1)
    d = a.diff(b)
    assert {deg: vc.terms for deg, vc in d.items()} == {
        0: {((2,), (0,)): 3},
        1: {((1,), (1,)): 1},
        2: {((1,), (0,)): -4, ((0,), (1,)): 1},
    }
    for vc in d.values():
        vc.terms.clear()
    assert a.degree(0).terms == {((2,), (0,)): 3}
    assert b.degree(2).terms == {((1,), (0,)): 4, ((0,), (1,)): -1}


def test_schur_product_grid_matches_lr_coefficient():
    # every truncation, including max_length below the length of lam
    shapes = [lam for n in range(5) for lam in partitions_of(n)]
    for lam in shapes:
        for mu in shapes:
            for cap in range(lam.length + mu.length + 1):
                want = {}
                for nu in partitions_of(lam.size + mu.size, max_length=cap):
                    c = lr_coefficient(lam, mu, nu)
                    if c:
                        want[nu] = c
                assert schur_product(lam, mu, cap) == want, (lam, mu, cap)


def test_schur_product_is_symmetric():
    shapes = [lam for n in range(5) for lam in partitions_of(n)]
    for lam in shapes:
        for mu in shapes:
            for cap in range(lam.length + mu.length + 1):
                assert schur_product(lam, mu, cap) == schur_product(mu, lam, cap), (lam, mu, cap)


def test_schur_product_grid_matches_bruteforce():
    shapes = [lam for n in range(6) for lam in partitions_of(n)]
    for lam in shapes:
        for mu in shapes:
            got = schur_product(lam, mu, lam.length + mu.length)
            assert got == schur_expand_bruteforce(lam, mu), (lam, mu)


def test_skew_expand_grid_matches_schur_product():
    # lr_coefficient reads the skew expansion, so the reference is the
    # strip-by-strip product search: c^outer_{inner, nu} from s_inner * s_nu
    for k in range(8):
        for outer in partitions_of(k):
            for inner in subpartitions(outer):
                want = {}
                for nu in partitions_of(k - inner.size):
                    c = schur_product(inner, nu, outer.length).get(outer, 0)
                    if c:
                        want[nu] = c
                assert skew_expand(SkewShape(outer, inner)) == want, (outer, inner)
