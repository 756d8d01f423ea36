"""Memos shared across calls: every cache is bounded, no caller can change one."""

import gc
import importlib
import json
import pkgutil
import sys
from functools import partial

import pytest

import superbott
from superbott import characters, cli, cohomology, superschur
from superbott.characters import rational_tensor, skew_expand
from superbott.cohomology import BundleSpec, HypothesisCase, e1_page, hypothesis_case
from superbott.oracle import schur_monomials
from superbott.partitions import Partition, SkewShape, _HashCons
from superbott.qseries import flag_poincare
from superbott.superschur import SuperDim, rational_schur_char, super_schur_decompose
from test_acceptance import case1_grid
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
        "cohomology._block_bott",
        "cohomology._block_side",
        "cohomology._box_shapes",
        "cohomology._closed_form_base",
        "cohomology._interned",
        "cohomology._levi_bott_pairs",
        "cohomology._levi_row",
        "oracle._schur_expand_cached",
        "oracle.schur_monomials",
        "qseries._flag_poincare_coeffs",
        "superschur._even_weight",
        "superschur._odd_factors",
        "superschur._odd_product",
        "superschur._super_schur_terms",
    }
    assert [name for name, size in maxsizes.items() if size is None] == []
    # a Levi row keeps at most ANSWERS answers, and answers every mask
    # alike: a position is reached when its side holds a block that shares
    # no entry with the mask
    sides = cohomology._levi_row((2, 1, 0), 3, 2, cohomology._SIGMA_DUAL, 2).sides
    values = cohomology._block_table.values
    row = cohomology._LeviRow(sides)
    masks = range(1, row.ANSWERS + 64)
    for mask in masks:
        assert row[mask] == sum(
            1 << i for i, side in enumerate(sides) if any(not other & mask for other, _, _ in values[side])
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
        "cohomology._block_bott",
        "cohomology._closed_form_base",
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


def _plain(value):
    """Whether value is an int, None, or a plain tuple of such values."""
    if value is None or type(value) is int:
        return True
    return type(value) is tuple and all(map(_plain, value))


def test_closed_form_and_first_page_memos_hold_nothing_the_collector_tracks(monkeypatch):
    # a tuple subclass such as Partition is never untracked by the cyclic
    # collector, while a tuple that holds only untracked values is untracked
    # when it is collected: every value the closed form's memos and the
    # first page's id-keyed memos return, and every value of the two id
    # tables, is untracked once collected, and every argument the memos
    # are keyed by is plain.  _levi_row stays out: its value is a _LeviRow,
    # a dict subclass with slots, which the collector always tracks, and it
    # keeps at most 4,096 of them; _super_schur_terms and _closed_form_base
    # keep Partition keys
    for cache in package_caches().values():
        cache.cache_clear()
    seen = {}

    def recorded(name, memo):
        def call(*args):
            result = memo(*args)
            seen.setdefault(name, []).append((args, result))
            return result

        return call

    for module, names in (
        (superschur, ("_lr_count", "_odd_factors", "_odd_product", "_even_weight")),
        (cohomology, ("_block_side", "_block_bott", "_levi_bott_pairs")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    shapes = [((2, 1), (1,), 3, 2), ((1,), (1,), 1, 1), ((3, 1), (2, 2), 4, 0)] + RATIONAL_SCHUR_PINS[:3]
    for alpha, beta, m, n in shapes:
        rational_schur_char(Partition(alpha), Partition(beta), SuperDim(m, n))
    # the first rung of the benchmark ladder and two CASE2 bundles
    for (p, q), (m, n), alpha, beta in [WARM_COLD_BUNDLES[i] for i in (0, 4, 6)]:
        e1_page(BundleSpec(p, q, SuperDim(m, n), Partition.parse(alpha), Partition.parse(beta)))
    # a tuple is untracked only after its items are; tuple() of an iterator
    # makes the tuple before its items, so each level of nesting may take
    # one more collection
    for _ in range(3):
        gc.collect()
    assert sorted(seen) == [
        "_block_bott",
        "_block_side",
        "_even_weight",
        "_levi_bott_pairs",
        "_lr_count",
        "_odd_factors",
        "_odd_product",
    ]
    # the pair (2, 1; 1) of rank 1 collides: its even weight is None
    assert None in (result for _, result in seen["_even_weight"])
    for name, calls in seen.items():
        for args, result in calls:
            assert _plain(args), (name, args)
            assert _plain(result) and not gc.is_tracked(result), (name, args)
    for table in (superschur._factor_table, cohomology._block_table):
        assert table.values
        for value in table.values.values():
            assert _plain(value) and not gc.is_tracked(value), value


# Closed forms and restrictions, each a reader of the factor ids: no
# restriction repeats a (lam, m, n), so each misses _super_schur_terms.
FACTOR_READERS = [
    ("rational", (2, 1), (1,), 3, 2),
    ("super", (3, 1), 2, 2),
    ("rational", (4, 3, 2, 1), (3, 3, 1, 1), 9, 3),
    ("super", (2, 2, 1), 3, 1),
    ("rational", (2, 1), (1,), 3, 2),
    ("rational", (3, 2, 2, 2, 1), (2, 1, 1), 9, 3),
    ("super", (3, 1), 1, 2),
    ("rational", (5, 2, 2), (2, 2), 4, 3),
    ("super", (4, 2, 1), 2, 3),
    ("rational", (1, 1), (2,), 2, 3),
]


def factor_readers():
    """One call per FACTOR_READERS entry; each returns its character."""
    for kind, *args in FACTOR_READERS:
        if kind == "rational":
            lam, mu, m, n = args
            yield partial(rational_schur_char, Partition(lam), Partition(mu), SuperDim(m, n))
        else:
            lam, m, n = args
            yield partial(super_schur_decompose, Partition(lam), SuperDim(m, n))


def page_readers():
    """First pages, each a reader of the block ids: every fourth
    criterion-4 bundle with four nonzero classical ranks, and its CASE2
    mirror."""
    grid = [(s, *s.steps[0]) for s in case1_grid()]
    chosen = [(s, p, q) for s, p, q in grid if p and q and s.m - p and s.n - q][::4]
    specs = [s for s, _, _ in chosen]
    specs += [BundleSpec(q, p, s.d.shifted(), s.alpha.transpose(), s.beta.transpose()) for s, p, q in chosen]
    assert len(specs) == 50
    return [partial(e1_page, spec) for spec in specs]


# each id table: its module, the memos that hold its ids (in the order they
# are registered), its readers, and the functions that start a reader
ID_TABLES = {
    "factors": (
        superschur,
        "_factor_table",
        ("_odd_factors", "_odd_product"),
        factor_readers,
        {"rational_schur_char", "_super_schur_terms"},
    ),
    "blocks": (
        cohomology,
        "_block_table",
        ("_block_side", "_block_bott", "_levi_bott_pairs", "_levi_row"),
        page_readers,
        {"_e1_terms"},
    ),
}


@pytest.mark.parametrize("kind", sorted(ID_TABLES))
def test_id_tables_are_bounded_and_cleared_only_when_a_reader_starts(monkeypatch, kind):
    module, table_name, memo_names, readers, starts = ID_TABLES[kind]
    table = getattr(module, table_name)
    memos = [getattr(module, name) for name in memo_names]
    calls = list(readers())

    def outputs():
        for call in calls:
            yield json.dumps(call().to_json_obj(), sort_keys=True)

    for cache in package_caches().values():
        cache.cache_clear()
    cold = list(outputs())
    # a reset empties the table and every memo registered with it
    assert table.memos == memos
    assert table.values and all(memo.cache_info().currsize for memo in memos)
    old = max(table.values)
    monkeypatch.setattr(_HashCons, "BOUND", 1)
    table.start()
    assert not table.values and not table.ids
    for name, memo in zip(memo_names, memos):
        assert memo.cache_info().currsize == 0, name
    # with the bound cut to 1 id, every reader that finds an id clears the
    # table as it starts, and nothing clears it later: every call prints
    # the same bytes as the cold run, and after each call the table holds
    # only ids that the call made, all of them new, since ids only grow
    for cache in package_caches().values():
        cache.cache_clear()
    clears = []
    start = _HashCons.start

    def recorded_start(self):
        if self is table and len(self.values) >= self.BOUND:
            clears.append(sys._getframe(1).f_code.co_name)
        start(self)

    monkeypatch.setattr(_HashCons, "start", recorded_start)
    bounded = []
    for out in outputs():
        bounded.append(out)
        assert table.values and min(table.values) > old
        old = max(table.values)
    assert bounded == cold
    assert len(clears) >= len(calls) - 1
    assert set(clears) == starts


def test_equal_bott_weights_are_one_object():
    # the Bott tables are keyed by the ids of block sides: equal sides of
    # different keys are one id, and two different pairs of sides, (1 | 0)
    # at degree 0 and (0 | 1) at degree 1, both give the weight (0, 0), and
    # the two results hold one tuple for it
    for cache in package_caches().values():
        cache.cache_clear()
    pairs = cohomology._levi_bott_pairs
    side = cohomology._block_side
    upper, lower = side((0,), (0,), 1), side((0,), (0,), 0)
    assert side((1,), (-1,), 1) is upper
    assert type(upper) is int and upper != lower
    ((d1, w1, _),) = pairs(upper, lower)
    ((d2, w2, _),) = pairs(side((-1,), (0,), 1), side((1,), (0,), 0))
    assert (d1, d2) == (0, 1)
    assert w1 == w2 == (0, 0)
    assert w1 is w2


