import ast
from collections import Counter
from itertools import product
from fractions import Fraction
from pathlib import Path

import pytest

import superbott.oracle
from superbott.characters import VirtualCharacter, lr_coefficient, pad_weight, weyl_dim
from superbott.oracle import (
    jacobi_trudi_specialize,
    lr_bruteforce,
    schur_expand_bruteforce,
    schur_monomials,
    specialize_character,
    specialize_schur,
    specialize_schur_ssyt,
    specialize_weight,
    specialize_weight_jt,
    ssyt_count,
)
from superbott.partitions import Partition, SkewShape, partitions_of
from superbott.superschur import SuperDim, rational_schur_char


def test_ssyt_count_small():
    assert ssyt_count((1,), 4) == 4
    assert ssyt_count((1, 1), 3) == 3
    assert ssyt_count((2,), 2) == 3
    assert ssyt_count((), 3) == 1
    assert ssyt_count((1, 1, 1), 2) == 0
    assert ssyt_count((), 0) == 1
    assert ssyt_count((1,), 0) == 0


def test_ssyt_count_matches_weyl_dim():
    for n in range(6):
        for lam in partitions_of(n):
            for m in range(1, 5):
                if lam.length <= m:
                    assert ssyt_count(lam, m) == weyl_dim(pad_weight(lam, m))


def test_ssyt_guard():
    with pytest.raises(ValueError, match="too large"):
        ssyt_count((7, 6), 3)


@pytest.mark.parametrize("lam, mu", [((13,), (1,)), ((1,), (13,)), ((7, 6), ()), ((), (7, 6))])
def test_lr_oracle_guards_both_shapes(lam, mu):
    with pytest.raises(ValueError, match="^oracle input too large: 13 cells$"):
        schur_expand_bruteforce(lam, mu)


def test_lr_bruteforce_values():
    assert lr_bruteforce((2, 1), (), (2, 1)) == 1
    assert lr_bruteforce((1,), (1,), (2,)) == 1
    assert lr_bruteforce((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_bruteforce((1,), (1,), (3,)) == 0


def test_schur_expand_bruteforce_is_a_decomposition():
    got = schur_expand_bruteforce((2,), (1, 1))
    assert got == {Partition((3, 1)): 1, Partition((2, 1, 1)): 1}


def test_lr_oracle_decomposes_the_product():
    # the oracle never forms the product; its expansion must still sum back to it
    shapes = [lam for k in range(4) for lam in partitions_of(k)]
    for lam in shapes:
        for mu in shapes:
            nvars = max(1, lam.length + mu.length)
            product = Counter()
            for e1, c1 in schur_monomials((lam, ()), nvars).items():
                for e2, c2 in schur_monomials((mu, ()), nvars).items():
                    product[tuple(a + b for a, b in zip(e1, e2))] += c1 * c2
            expanded = Counter()
            for nu, c in schur_expand_bruteforce(lam, mu).items():
                for e, k in schur_monomials((nu, ()), nvars).items():
                    expanded[e] += c * k
            assert expanded == product, (lam, mu)


def test_specialize_schur_values():
    ones3 = (Fraction(1), Fraction(1), Fraction(1))
    assert specialize_schur((), ones3) == 1
    assert specialize_schur((1,), (Fraction(1), Fraction(1))) == 2
    assert specialize_schur((2, 1), ones3) == 8


def test_specialize_schur_routes_agree():
    pts = (Fraction(1, 2), Fraction(3), Fraction(-2))
    for n in range(5):
        for lam in partitions_of(n):
            if lam.length <= 3:
                assert specialize_schur(lam, pts) == specialize_schur_ssyt(lam, pts)


def test_specialize_skew_vs_lr_expansion():
    pts = (Fraction(2), Fraction(1, 3))
    outer, inner = Partition((3, 1)), Partition((1,))
    shape = SkewShape(outer, inner)
    direct = specialize_schur(shape, pts)
    expanded = sum(
        lr_coefficient(inner, nu, outer) * specialize_schur(nu, pts)
        for nu in partitions_of(shape.size)
    )
    assert direct == expanded
    # an inner shape larger than gamma leaves every term of the determinant
    # a negative h index, so the determinant is 0
    assert jacobi_trudi_specialize((1,), pts, inner=(2,)) == 0
    assert jacobi_trudi_specialize((1, 0), pts, inner=(1, 1)) == 0


def test_specialize_weight_negative_entries():
    pts = (Fraction(2), Fraction(3))
    # determinant weight (-1, -1) is 1/(xy)
    assert specialize_weight((-1, -1), pts) == Fraction(1, 6)
    for w in [(1, -1), (2, 0), (0, -2), (3, -1)]:
        assert specialize_weight(w, pts) == specialize_weight_jt(w, pts)


def test_specialize_weight_routes_agree_on_a_signed_grid():
    # the Jacobi-Trudi route scales the points to integers; against the
    # tableau route on every weight of rank <= 3 with entries in [-2, 2],
    # at negative points and points with non-unit denominators
    pts = (Fraction(-3, 2), Fraction(2, 5), Fraction(-7), Fraction(5, 6))
    for rank in (1, 2, 3):
        for start in range(len(pts) - rank + 1):
            values = pts[start : start + rank]
            for w in product(range(2, -3, -1), repeat=rank):
                if list(w) != sorted(w, reverse=True):
                    continue
                got = specialize_weight_jt(w, values)
                assert type(got) is Fraction
                assert got == specialize_weight(w, values), (w, values)


def _tableau_route(char, evens, odds):
    total = Fraction(0)
    for (w0, w1), mult in char.items():
        total += mult * specialize_weight(w0, evens) * specialize_weight(w1, odds)
    return total


def test_specialize_character_matches_tableau_route():
    evens = [Fraction(2), Fraction(-3, 2), Fraction(1, 3), Fraction(5)]
    odds = [Fraction(7, 3), Fraction(-1, 2), Fraction(5, 4), Fraction(-2)]
    # negative weights, one and two odd points, an empty even or odd side,
    # and CASE2-shaped characters with more odd than even points
    cases = [
        ((2, 1), (1,), 2, 1),
        ((2, 1), (1, 1), 3, 2),
        ((1,), (2, 1), 2, 2),
        ((3,), (1,), 2, 1),
        ((2,), (), 0, 2),
        ((), (1,), 0, 2),
        ((1, 1), (1,), 3, 0),
        ((1,), (1,), 1, 3),
        ((2, 1), (1,), 2, 4),
        ((1,), (2,), 1, 4),
    ]
    shifted = set()
    for lam, mu, m, n in cases:
        char = rational_schur_char(Partition(lam), Partition(mu), SuperDim(m, n))
        assert char.terms
        pts = (evens[:m], odds[:n])
        got = specialize_character(char, *pts)
        assert type(got) is Fraction
        assert got == _tableau_route(char, *pts), (lam, mu, m, n)
        for w0, w1 in char.terms:
            assert specialize_weight_jt(w0, pts[0]) == specialize_weight(w0, pts[0])
            assert specialize_weight_jt(w1, pts[1]) == specialize_weight(w1, pts[1])
            shifted |= {side for side, w in (("even", w0), ("odd", w1)) if min(w, default=0) < 0}
    assert shifted == {"even", "odd"}
    # terms sharing w0, with weights of one side that need tables of different sizes
    shared = VirtualCharacter(
        2, 1, {((0, -2), (1,)): 3, ((0, -2), (-1,)): -2, ((3, 1), (0,)): 1, ((1, -1), (2,)): 5, ((0, 0), (1,)): 1}
    )
    assert specialize_character(shared, evens[:2], odds[:1]) == _tableau_route(shared, evens[:2], odds[:1])
    with pytest.raises(ValueError):
        specialize_character(shared, evens[:3], odds[:1])
    empty = specialize_character(VirtualCharacter(2, 1), evens[:2], odds[:1])
    assert type(empty) is Fraction and empty == 0


def test_specialize_weight_needs_matching_rank():
    with pytest.raises(ValueError):
        specialize_weight((1, 0), (Fraction(1),))
    with pytest.raises(ValueError):
        specialize_weight_jt((1, 0), (Fraction(1),))
    with pytest.raises(ValueError):
        specialize_weight_jt((0, 1), (Fraction(1), Fraction(2)))
    assert specialize_weight_jt((), ()) == specialize_weight((), ()) == 1


def test_oracle_imports_no_fast_path():
    # the oracle checks the fast paths, so of the engine it may use only the
    # h table and the integer determinant of superschur, imported by name
    tree = ast.parse(Path(superbott.oracle.__file__).read_text())
    forbidden = {"characters", "cohomology", "bott"}
    shared = {"_h_table", "_int_det"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = {part for alias in node.names for part in alias.name.split(".")}
            assert not modules & (forbidden | {"superschur"}), (node.lineno, modules)
        elif isinstance(node, ast.ImportFrom):
            module = set((node.module or "").split("."))
            names = {alias.name for alias in node.names}
            assert not (module | names) & forbidden, (node.lineno, module | names)
            assert "superschur" not in names, node.lineno
            if "superschur" in module:
                assert names <= shared, (node.lineno, names)
