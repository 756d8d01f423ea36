"""Memos shared across calls: every cache is bounded, no caller can change one."""

import importlib
import pkgutil

import pytest

import superbott
from superbott import characters, cli, cohomology, superschur
from superbott.characters import rational_tensor, skew_expand
from superbott.cohomology import BundleSpec, HypothesisCase, hypothesis_case
from superbott.oracle import schur_monomials
from superbott.partitions import Partition, SkewShape
from superbott.qseries import flag_poincare
from superbott.superschur import SuperDim, rational_schur_char, super_schur_decompose
from test_superschur import RATIONAL_SCHUR_PINS


def package_caches():
    """Every functools cache of the package, once, by defining module.name.

    A cache imported into a second module is the same object under the
    name of the module that defines it.
    """
    caches = {}
    for info in pkgutil.iter_modules(superbott.__path__):
        module = importlib.import_module(f"superbott.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                name = f"{value.__module__.removeprefix('superbott.')}.{value.__qualname__}"
                caches[name] = value
    return caches


def test_every_functools_cache_is_bounded():
    caches = package_caches()
    maxsizes = {name: cache.cache_parameters()["maxsize"] for name, cache in caches.items()}
    assert set(maxsizes) == {
        "characters._lr_count",
        "characters._polynomial_product",
        "characters._rational_tensor_cached",
        "cohomology._block_side",
        "cohomology._box_shapes",
        "cohomology._closed_form_base",
        "cohomology._dual_terms",
        "cohomology._interned",
        "cohomology._levi_bott_pairs",
        "cohomology._levi_row",
        "oracle._schur_expand_cached",
        "oracle.schur_monomials",
        "qseries._flag_poincare_coeffs",
        "superschur._odd_factors",
        "superschur._odd_product",
        "superschur._super_schur_terms",
    }
    assert [name for name, size in maxsizes.items() if size is None] == []
    # a Levi row keeps at most ANSWERS answers, and answers every mask
    # alike: a position is reached when its side holds a block that shares
    # no entry with the mask
    sides = cohomology._levi_row((2, 1, 0), 3, 2, cohomology._SIGMA_DUAL, 2).sides
    row = cohomology._LeviRow(sides)
    masks = range(1, row.ANSWERS + 64)
    for mask in masks:
        assert row[mask] == sum(
            1 << i for i, side in enumerate(sides) if any(not other & mask for other, _, _ in side)
        )
    assert len(row) == row.ANSWERS
    assert [row[mask] for mask in masks] == [row[mask] for mask in masks]


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


# (p, q), (m, n), alpha, beta: the four rungs of the benchmark ladder (the
# third is CASE2, the others CASE1), then eight CASE2 bundles of the verify
# grid; the first page of the first six differs from the closed form
WARM_COLD_BUNDLES = [
    ((2, 1), (9, 4), "[2,1]", "[1]"),
    ((3, 2), (12, 6), "[2,1]", "[1]"),
    ((2, 4), (6, 14), "[2,1]", "[1]"),
    ((4, 2), (14, 6), "[2,2]", "[1,1]"),
    ((1, 2), (2, 4), "[1]", "[1]"),
    ((1, 2), (2, 7), "[1,1]", "[1,1,1]"),
    ((2, 4), (3, 6), "[1,1,1]", "[2]"),
    ((1, 4), (3, 7), "[1,1]", "[2]"),
    ((1, 2), (4, 7), "[2,1]", "[1]"),
    ((3, 4), (4, 7), "[2]", "[1]"),
    ((1, 3), (4, 7), "[1,1]", "[]"),
    ((0, 2), (1, 6), "[3]", "[2,1]"),
]


def test_warm_and_cold_memos_give_the_same_bytes(capsys):
    # the first page and the cross-check read every memo of the package;
    # recomputed from empty memos, in the reverse order, they print the
    # same bytes
    runs = []
    for (p, q), (m, n), alpha, beta in WARM_COLD_BUNDLES:
        spec = BundleSpec(p, q, SuperDim(m, n), Partition.parse(alpha), Partition.parse(beta))
        assert hypothesis_case(spec) is (HypothesisCase.CASE1 if m > n else HypothesisCase.CASE2)
        bundle = ["--grass", f"{p},{q}", "--dim", f"{m},{n}", "--alpha", alpha, "--beta", beta]
        runs += [["--output", "json", "e1", *bundle], ["--output", "json", "verify", *bundle]]
    # two large closed forms, and the closed form of one CASE2 bundle alone
    for alpha, beta, m, n in RATIONAL_SCHUR_PINS[:2]:
        shapes = ["--alpha", str(Partition(alpha)), "--beta", str(Partition(beta)), "--dim", f"{m},{n}"]
        runs.append(["--output", "json", "char-rational", *shapes])
    runs.append(["--output", "json", "cohom", "--grass", "1,2", "--dim", "2,7", "--alpha", "[1,1]", "--beta", "[1,1,1]"])

    def outputs(argvs):
        got = []
        for argv in argvs:
            code = cli.run(argv)
            got.append((code, capsys.readouterr()))
        return got

    warm = outputs(runs)
    assert {code for code, _ in warm} == {0, 2}
    caches = package_caches()
    for cache in caches.values():
        cache.cache_clear()
    cold = outputs(runs[::-1])[::-1]
    assert cold == warm
    for name in (
        "cohomology._closed_form_base",
        "cohomology._dual_terms",
        "cohomology._interned",
        "cohomology._levi_bott_pairs",
        "cohomology._levi_row",
        "superschur._odd_product",
    ):
        info = caches[name].cache_info()
        assert info.misses > 0 and info.hits > 0, name


def test_odd_products_are_shared_by_content():
    # X_alpha * Y_beta is keyed by the two factors, not by the shapes they
    # come from, so equal factors of different (alpha, beta) share one
    # product; the counts are those of the pinned closed forms from empty
    # memos, in order
    for cache in package_caches().values():
        cache.cache_clear()
    for alpha, beta, m, n in RATIONAL_SCHUR_PINS:
        rational_schur_char(Partition(alpha), Partition(beta), SuperDim(m, n))
    info = superschur._odd_product.cache_info()
    assert (info.misses, info.hits) == (1271, 1343)
    assert characters._rational_tensor_cached.cache_info().misses == 1218
    # the value is two parallel tuples, which no caller can change
    _, x = superschur._odd_factors(Partition((2, 1)), 2)[0]
    weights, coeffs = superschur._odd_product(x, x)
    assert type(weights) is tuple and type(coeffs) is tuple and len(weights) == len(coeffs) > 0


def test_equal_bott_weights_are_one_object():
    # the Bott memo interns what it keeps: two different pairs of block
    # sides, (1 | 0) at degree 0 and (0 | 1) at degree 1, both give the
    # weight (0, 0), and the two results hold one tuple for it
    for cache in package_caches().values():
        cache.cache_clear()
    pairs = cohomology._levi_bott_pairs
    side = cohomology._block_side
    ((d1, w1, _),) = pairs(side((0,), (0,), 1), side((0,), (0,), 0))
    ((d2, w2, _),) = pairs(side((-1,), (0,), 1), side((1,), (0,), 0))
    assert (d1, d2) == (0, 1)
    assert w1 == w2 == (0, 0)
    assert w1 is w2
