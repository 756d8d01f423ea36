"""Memos shared across calls: every cache is bounded, no caller can change one."""

import importlib
import pkgutil

import pytest

import superbott
from superbott.characters import rational_tensor, skew_expand
from superbott.oracle import schur_monomials
from superbott.partitions import Partition, SkewShape
from superbott.qseries import flag_poincare
from superbott.superschur import SuperDim, rational_schur_char, super_schur_decompose


def test_every_functools_cache_is_bounded():
    maxsizes = {}
    for info in pkgutil.iter_modules(superbott.__path__):
        module = importlib.import_module(f"superbott.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                maxsizes[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {
        "characters._lr_count",
        "cohomology._block_side",
        "cohomology._lam_shapes",
        "cohomology._nu_shapes",
        "oracle._kostka",
        "oracle.schur_monomials",
        "qseries._flag_poincare_coeffs",
        "superschur._super_schur_terms",
    } <= set(maxsizes)
    assert [name for name, size in maxsizes.items() if size is None] == []


def test_memoized_results_are_not_aliased():
    shape = SkewShape(Partition((3, 2, 1)), Partition((2, 1)))
    got = skew_expand(shape)
    expected = dict(got)
    got[Partition((9,))] = 1
    got.pop(Partition((2, 1)))
    assert skew_expand(shape) == expected

    got = rational_tensor((1, 0, -1), (2, 1, 0))
    expected = dict(got)
    got.clear()
    assert rational_tensor((1, 0, -1), (2, 1, 0)) == expected

    got = schur_monomials(((2, 1), ()), 2)
    assert dict(got) == {(2, 1): 1, (1, 2): 1}
    with pytest.raises(TypeError):
        got[(3, 0)] = 1

    d = SuperDim(3, 2)
    for char in (
        lambda: super_schur_decompose(Partition((2, 1)), d),
        lambda: rational_schur_char(Partition((2, 1)), Partition((1,)), d),
    ):
        first = char()
        expected = dict(first.terms)
        assert expected
        first.terms.clear()
        assert char().terms == expected

    first = flag_poincare((2, 1))
    assert first.coeffs == {0: 1, 2: 1, 4: 1}
    first.coeffs.clear()
    assert flag_poincare((2, 1)).coeffs == {0: 1, 2: 1, 4: 1}
