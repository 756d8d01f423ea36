import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbott import superschur
from superbott.characters import _lr_count, pad_weight, weyl_dim
from superbott.errors import PreconditionError
from superbott.oracle import lr_bruteforce, specialize_character, specialize_weight
from superbott.partitions import Partition, partitions_of, subpartitions
from superbott.superschur import (
    SuperDim,
    SuperWeight,
    _h_table,
    _int_det,
    _lr_pairs,
    _odd_factors,
    _super_schur_terms,
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
    # S_lam(C^{m|n}) = S_(lam; empty): both routes read the skew expansions
    # of _lr_pairs(lam); the determinant test below shares no LR code with them
    cases = 0
    for size in range(7):
        for lam in partitions_of(size):
            for m in range(max(0, lam.length - 1), 7):
                for n in range(5):
                    d = SuperDim(m, n)
                    assert super_schur_decompose(lam, d) == rational_schur_char(lam, (), d), (lam, d)
                    cases += 1
    assert cases == 810


def test_super_schur_matches_super_jacobi_trudi():
    # s_lam(x / y) = det h_{lam_i - i + j}(x / y) (Berele-Regev 1987): the
    # determinant reads one h table of the points and no LR coefficient
    evens = [Fraction(2), Fraction(-3, 2), Fraction(5)]
    odds = [Fraction(-7, 3), Fraction(1, 2), Fraction(4, 5)]
    cases = 0
    for size in range(6):
        for lam in partitions_of(size):
            for m, n in itertools.product(range(4), repeat=2):
                d, xs, ys = SuperDim(m, n), evens[:m], odds[:n]
                got = specialize_character(super_schur_decompose(lam, d), xs, ys)
                assert got == composite_det_specialized(lam, (), d, (xs, ys)), (lam, d)
                cases += 1
    assert cases == 304


def test_super_schur_and_rational_schur_share_lr_keys():
    # the restriction reads c^lam_{alpha, delta^T} in the closed form's
    # orientation, so after rational_schur_char(lam; empty) it counts no
    # new LR tableaux; lam is not self-conjugate, so a transposed reading
    # would miss
    d = SuperDim(3, 2)
    for lam in (Partition((3, 1)), Partition((4, 2, 1))):
        _lr_count.cache_clear()
        _super_schur_terms.cache_clear()
        rational_schur_char(lam, (), d)
        misses = _lr_count.cache_info().misses
        super_schur_decompose(lam, d)
        assert _lr_count.cache_info().misses == misses, lam


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
    # _lr_pairs reads the skew search, so c comes from the oracle's
    # bialternant expansion of s_alpha * s_(delta^T)
    for k in range(7):
        for lam in partitions_of(k):
            want = Counter()
            for j in range(k + 1):
                for delta in partitions_of(j, max_length=lam.part(0), max_part=lam.length):
                    for alpha in subpartitions(lam):
                        if alpha.size == k - j:
                            c = lr_bruteforce(alpha, delta.transpose(), lam)
                            if c:
                                want[delta, alpha, c] += 1
            assert Counter(_lr_pairs(lam)) == want, lam


def test_odd_factor_table_is_the_per_triple_definition():
    # the restriction as a per-triple read of _lr_pairs, before the shared
    # odd-factor table: same terms in the same order
    def per_triple_terms(lam, m, n):
        return tuple(
            ((pad_weight(alpha, m), pad_weight(delta, n)), c)
            for delta, alpha, c in _lr_pairs(lam)
            if alpha.length <= m and delta.length <= n
        )

    cases = 0
    for size in range(7):
        for lam in partitions_of(size):
            for n in range(5):
                grouped = {}
                for delta, alpha, c in _lr_pairs(lam):
                    if delta.length <= n:
                        grouped.setdefault(alpha, []).append((pad_weight(delta, n), c))
                want = tuple((alpha, tuple(x)) for alpha, x in grouped.items())
                got = tuple((alpha, superschur._factors[x]) for alpha, x in _odd_factors(lam, n))
                assert got == want, (lam, n)
                for m in range(5):
                    assert _super_schur_terms(lam, m, n) == per_triple_terms(lam, m, n), (lam, m, n)
                    cases += 1
    assert cases == 25 * sum(1 for size in range(7) for _ in partitions_of(size))


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
@given(rational_schur_inputs(), st.data())
def test_rational_schur_dim_matches_determinant_property(inputs, data):
    # the dimension at all-ones points, then the whole character at distinct
    # nonzero rational points: the determinant reads no LR coefficient
    lam, mu, d = inputs
    char = rational_schur_char(lam, mu, d)
    ones = ([1] * d.m, [1] * d.n)
    assert char.total_dim() == composite_det_specialized(lam, mu, d, ones)
    point = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5))
    points = data.draw(st.lists(point, min_size=d.m + d.n, max_size=d.m + d.n, unique=True))
    pts = (points[: d.m], points[d.m :])
    assert specialize_character(char, *pts) == composite_det_specialized(lam, mu, d, pts)


def _leibniz(mat):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(mat))):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= mat[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += -term if inversions % 2 else term
    return total


def test_int_det_matches_leibniz():
    # composite_det_specialized and the Jacobi-Trudi oracle both call
    # _int_det, so their agreement alone cannot catch a determinant bug
    assert _int_det([]) == 1
    assert _int_det([[0, 2], [3, 1]]) == -6
    rng = random.Random(13)
    singular = 0
    for trial in range(400):
        n = trial % 6
        if trial % 2:
            entries = [rng.randint(-9, 9) * rng.choice((1, 2, 3, 7, 10**12 + 39)) for _ in range(n * n)]
        else:
            # small entries make zero pivots after elimination likely
            entries = [rng.choice((-1, 0, 0, 1)) for _ in range(n * n)]
        mat = [entries[i * n : (i + 1) * n] for i in range(n)]
        if n >= 2 and trial % 3 == 0:
            mat[0][0] = 0
        if n >= 2 and trial % 5 == 0:
            mat[-1] = [-3 * x for x in mat[0]]
        expected = _leibniz(mat)
        singular += expected == 0
        assert _int_det([row[:] for row in mat]) == expected, mat
    assert singular > 20


def _composite_det_reference(lam, mu, evens, odds, p, q):
    """The composite determinant over Fraction h tables, by Leibniz."""
    evens = [Fraction(x) for x in evens]
    odds = [Fraction(y) for y in odds]
    h = _h_table(lam.part(0) + p - 1, evens, odds)
    hbar = _h_table(mu.part(0) + q - 1, [1 / x for x in evens], [1 / y for y in odds])
    mat = [
        [hbar[k] if k >= 0 else 0 for k in (mu.part(q - j) - i + j for j in range(1, q + 1))]
        + [h[k] if k >= 0 else 0 for k in (lam.part(j - 1) + i - q - j for j in range(1, p + 1))]
        for i in range(1, p + q + 1)
    ]
    return _leibniz(mat)


def _rational_point(rng):
    return Fraction(rng.choice((-9, -4, -1, 1, 2, 3, 7)), rng.choice((1, 2, 3, 7, 10)))


def test_composite_det_matches_a_fraction_reference():
    # the determinant is taken over integer tables of the points scaled by
    # the lcm of their denominators and of the inverse points scaled by the
    # lcm of their numerators; against Fraction tables and Leibniz, with
    # negative numerators, non-unit denominators, odd points, boxes padded
    # past l(lam) and l(mu), and plain int points as total_dim() is checked
    rng = random.Random(24)
    shapes = [lam for k in range(5) for lam in partitions_of(k) if lam.length <= 2]
    kinds = Counter()
    for trial in range(320):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        p = lam.length + rng.randint(0, 1)
        q = mu.length + rng.randint(0, 1)
        if p + q > 5:
            p, q = lam.length, mu.length
        m, n = rng.randint(0, 3), rng.randint(0, 2)
        if trial % 4 == 0:
            evens, odds = [1] * m, [1] * n
        elif trial % 4 == 1:
            evens = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(m)]
            odds = [rng.choice((-2, 1, 3)) for _ in range(n)]
        else:
            evens = [_rational_point(rng) for _ in range(m)]
            odds = [_rational_point(rng) for _ in range(n)]
        points = [Fraction(x) for x in evens + odds]
        kinds["negative"] += any(x < 0 for x in points)
        kinds["denominator"] += any(x.denominator > 1 for x in points)
        kinds["numerator"] += any(abs(x.numerator) > 1 for x in points)
        kinds["odd"] += n > 0
        kinds["padded"] += (p, q) != (lam.length, mu.length)
        kinds["int"] += all(type(x) is int for x in evens + odds)
        got = composite_det_specialized(lam, mu, SuperDim(m, n), (evens, odds), p, q)
        assert type(got) is Fraction
        assert got == _composite_det_reference(lam, mu, evens, odds, p, q), (lam, mu, evens, odds, p, q)
    assert min(kinds.values()) > 50, kinds


def test_composite_det_singular_point():
    with pytest.raises(PreconditionError, match="singular evaluation"):
        composite_det_specialized(
            Partition((1,)),
            Partition(),
            SuperDim(2, 0),
            ([Fraction(0), Fraction(1)], []),
        )
    with pytest.raises(ValueError, match="do not match the dimensions"):
        composite_det_specialized(Partition((1,)), Partition(), SuperDim(2, 1), ([Fraction(1)], [Fraction(1)]))
    with pytest.raises(PreconditionError, match="box smaller"):
        composite_det_specialized(
            Partition((1, 1)), Partition(), SuperDim(2, 1), ([Fraction(1), Fraction(2)], [Fraction(3)]), p=1
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
