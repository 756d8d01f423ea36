import itertools
from fractions import Fraction

import pytest

from superbott.bott import (
    LeviWeight,
    bott,
    entry_mask,
    grassmannian_cohomology,
    kunneth,
    levi_bott,
    levi_to_full,
    rho,
    rho_shift,
)
from superbott.characters import GradedCharacter, dual_weight, pad_weight
from superbott.oracle import jacobi_trudi_specialize, specialize_weight
from superbott.partitions import Partition, partitions_of
from superbott.superschur import classical_rational_weight


def test_rho():
    assert rho(4) == (3, 2, 1, 0)
    assert rho(1) == (0,)
    assert rho(0) == ()


def test_bott_dominant_weight_is_fixed():
    for w in [(3, 1, 0), (0, 0, 0), (2, -1, -1)]:
        assert bott(w) == (0, w)


def test_bott_vanishing():
    # gamma + rho = (1, 1) repeats
    assert bott((0, 1)) is None
    assert bott((1, 2, 0)) is None


def test_bott_single_reflection():
    # (0, 2) + rho = (1, 2); one swap, dominant weight (1, 1)
    assert bott((0, 2)) == (1, (1, 1))


def test_bott_inversion_invariant_exhaustive():
    # degree equals the inversion count of gamma + rho whenever defined
    for m in range(1, 5):
        shift = rho(m)
        for gamma in itertools.product(range(-3, 4), repeat=m):
            res = bott(gamma)
            v = [g + r for g, r in zip(gamma, shift)]
            if len(set(v)) < m:
                assert res is None
                continue
            degree, w = res
            inversions = sum(
                1 for i in range(m) for j in range(i + 1, m) if v[i] < v[j]
            )
            assert degree == inversions
            assert all(a >= b for a, b in zip(w, w[1:]))
            assert sum(w) == sum(gamma)


def test_bott_euler_characteristic_matches_determinant():
    # the signed Bott output agrees with the straightened Jacobi-Trudi value
    pts = (Fraction(2), Fraction(3), Fraction(5))
    for gamma in itertools.product(range(4), repeat=3):
        expected = jacobi_trudi_specialize(gamma, pts)
        res = bott(gamma)
        if res is None:
            assert expected == 0
        else:
            degree, w = res
            sign = -1 if degree % 2 else 1
            assert expected == sign * specialize_weight(w, pts)


def dominant_weights(length, lo, hi):
    # positions chosen with replacement from a decreasing range: weakly decreasing
    return itertools.combinations_with_replacement(range(hi, lo - 1, -1), length)


def test_levi_bott_matches_bott():
    outcomes = {True: 0, False: 0}
    for m in range(6):
        for p in range(m + 1):
            for q_block in dominant_weights(m - p, -2, 2):
                for r_block in dominant_weights(p, -2, 2):
                    upper = rho_shift(q_block, p)
                    lower = rho_shift(r_block, 0)
                    res = levi_bott(upper, entry_mask(upper), lower, entry_mask(lower))
                    assert res == bott(levi_to_full(LeviWeight(q_block, r_block), p, m))
                    outcomes[res is None] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


def strictly_decreasing_blocks(max_length, lo, hi):
    for length in range(max_length + 1):
        yield from itertools.combinations(range(hi, lo - 1, -1), length)


def test_entry_mask_meets_exactly_when_blocks_share_an_entry():
    blocks = list(strictly_decreasing_blocks(3, -5, 5))
    assert (0,) in blocks and (-1,) in blocks and (2, 0, -5) in blocks
    meets = 0
    for u in blocks:
        for l in blocks:
            shared = not set(u).isdisjoint(l)
            assert bool(entry_mask(u) & entry_mask(l)) == shared, (u, l)
            meets += shared
    assert 0 < meets < len(blocks) ** 2


def test_entry_mask_bits():
    assert entry_mask(()) == 0
    assert entry_mask((0,)) == 1
    assert entry_mask((-1,)) == 2
    assert entry_mask((1,)) == 4
    assert entry_mask((2, 0, -2)) == (1 << 4) | 1 | (1 << 3)


def test_levi_to_full():
    lw = LeviWeight((2, 0), (1,))
    assert levi_to_full(lw, p=1, m=3) == (2, 0, 1)
    with pytest.raises(ValueError):
        levi_to_full(lw, p=2, m=3)


def test_borel_weil_anchor():
    # a dominant bundle weight has only sections, with the expected weight
    for m in range(1, 6):
        for na in range(4):
            for nb in range(4):
                for alpha in partitions_of(na):
                    for beta in partitions_of(nb):
                        if alpha.length + beta.length > m:
                            continue
                        for p in range(beta.length, m - alpha.length + 1):
                            lw = LeviWeight(
                                pad_weight(alpha, m - p),
                                dual_weight(pad_weight(beta, p)),
                            )
                            gc = grassmannian_cohomology(p, m, {lw: 1})
                            expected = classical_rational_weight(alpha, beta, m)
                            assert gc.degrees() == [0]
                            assert gc.degree(0).terms == {(expected, ()): 1}


def test_grassmannian_cohomology_drops_vanishing_terms():
    # weight (0 | 1) on Gr(1, C^2) has gamma + rho = (1, 1)
    gc = grassmannian_cohomology(1, 2, {LeviWeight((0,), (1,)): 1})
    assert gc.is_zero()


def test_grassmannian_cohomology_rejects_bad_levi_weights():
    with pytest.raises(ValueError, match="do not match ranks"):
        grassmannian_cohomology(2, 3, {LeviWeight((2, 0), (1,)): 1})
    with pytest.raises(ValueError, match="not dominant"):
        grassmannian_cohomology(1, 3, {LeviWeight((0, 2), (1,)): 1})


def test_kunneth():
    a = GradedCharacter(2, 0)
    a.add_term(0, ((1, 0), ()), 1)
    a.add_term(2, ((0, 0), ()), 1)
    b = GradedCharacter(1, 0)
    b.add_term(1, ((3,), ()), 2)
    out = kunneth(a, b)
    assert out.degrees() == [1, 3]
    assert out.degree(1).terms == {((1, 0), (3,)): 2}
    assert out.degree(3).terms == {((0, 0), (3,)): 2}
