import ast
from fractions import Fraction
from pathlib import Path

import pytest

import superbott.oracle
from superbott.characters import lr_coefficient, pad_weight, weyl_dim
from superbott.oracle import (
    lr_bruteforce,
    schur_expand_bruteforce,
    specialize_schur,
    specialize_schur_ssyt,
    specialize_weight,
    specialize_weight_jt,
    ssyt_count,
)
from superbott.partitions import Partition, SkewShape, partitions_of


def test_ssyt_count_small():
    assert ssyt_count((1,), 4) == 4
    assert ssyt_count((1, 1), 3) == 3
    assert ssyt_count((2,), 2) == 3
    assert ssyt_count((), 3) == 1
    assert ssyt_count((1, 1, 1), 2) == 0


def test_ssyt_count_matches_weyl_dim():
    for n in range(6):
        for lam in partitions_of(n):
            for m in range(1, 5):
                if lam.length <= m:
                    assert ssyt_count(lam, m) == weyl_dim(pad_weight(lam, m))


def test_ssyt_guard():
    with pytest.raises(ValueError, match="too large"):
        ssyt_count((7, 6), 3)


def test_lr_bruteforce_values():
    assert lr_bruteforce((2, 1), (), (2, 1)) == 1
    assert lr_bruteforce((1,), (1,), (2,)) == 1
    assert lr_bruteforce((2, 1), (2, 1), (3, 2, 1)) == 2


def test_schur_expand_bruteforce_is_a_decomposition():
    got = schur_expand_bruteforce((2,), (1, 1))
    assert got == {Partition((3, 1)): 1, Partition((2, 1, 1)): 1}


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


def test_specialize_weight_negative_entries():
    pts = (Fraction(2), Fraction(3))
    # determinant weight (-1, -1) is 1/(xy)
    assert specialize_weight((-1, -1), pts) == Fraction(1, 6)
    for w in [(1, -1), (2, 0), (0, -2), (3, -1)]:
        assert specialize_weight(w, pts) == specialize_weight_jt(w, pts)


def test_specialize_weight_needs_matching_rank():
    with pytest.raises(ValueError):
        specialize_weight((1, 0), (Fraction(1),))


def test_oracle_imports_no_fast_path():
    # the oracle checks the fast paths, so of the engine it may use only the
    # Fraction helpers of superschur, imported by name
    tree = ast.parse(Path(superbott.oracle.__file__).read_text())
    forbidden = {"characters", "cohomology", "bott"}
    shared = {"_h_table", "_fraction_det"}
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
