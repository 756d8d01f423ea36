import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import superbott
from superbott.cli import run
from superbott.cohomology import (
    BundleSpec,
    FlagSpec,
    HypothesisCase,
    VerifyReport,
    _box_shapes,
    e1_bigraded,
    e1_page,
    hypothesis_case,
    main_theorem_char,
    structure_sheaf_hilbert,
    verify_main_theorem,
)
from superbott import cohomology
from superbott.bott import LeviWeight, bott, grassmannian_cohomology, kunneth, rho
from superbott.characters import (
    GradedCharacter,
    VirtualCharacter,
    dual_weight,
    pad_weight,
    rational_tensor,
)
from superbott.errors import HypothesisError, PreconditionError, TermLimitError
from superbott.partitions import Partition, SkewShape, partitions_in_box, partitions_of
from superbott.qseries import HilbertSeries, flag_poincare, q_factorial
from superbott.superschur import SuperDim, rational_schur_char, super_schur_decompose
from test_acceptance import case1_grid


def bundle(p, q, m, n, alpha=(), beta=()):
    return BundleSpec(p=p, q=q, d=SuperDim(m, n), alpha=alpha, beta=beta)


def mirror(spec):
    # the parity shift: even and odd ranks swapped, both shapes transposed
    steps = [(q, p) for p, q in spec.steps]
    return FlagSpec(steps, spec.d.shifted(), spec.alpha.transpose(), spec.beta.transpose())


def test_bundle_spec_validation():
    with pytest.raises(ValueError, match="out of range"):
        bundle(3, 0, 2, 1)
    with pytest.raises(ValueError, match="out of range"):
        bundle(1, 2, 3, 1)


def test_flag_spec_validation():
    with pytest.raises(ValueError, match="at least one step"):
        FlagSpec(steps=(), d=SuperDim(2, 1))
    with pytest.raises(ValueError, match="strictly increase"):
        FlagSpec(steps=((2, 1), (1, 2)), d=SuperDim(3, 3))
    # a longer flag ends below m|n and starts above 0|0; one step may be either
    for steps in (((1, 1), (3, 3)), ((0, 0), (1, 1))):
        with pytest.raises(ValueError, match="strictly increase"):
            FlagSpec(steps=steps, d=SuperDim(3, 3))


def test_value_classes_compare_by_type_and_freeze():
    d = SuperDim(4, 2)
    spec = BundleSpec(1, 1, d, (2, 1), (1,))
    flag = FlagSpec(((1, 1),), d, (2, 1), (1,))
    skew = SkewShape((3, 2), (1,))
    # positional and keyword construction give equal objects with equal hashes
    for a, b in (
        (spec, BundleSpec(p=1, q=1, d=SuperDim(m=4, n=2), alpha=Partition((2, 1)), beta=[1])),
        (flag, FlagSpec(steps=[[1, 1]], d=d, alpha=(2, 1), beta=(1,))),
        (skew, SkewShape(outer=Partition((3, 2)), inner=[1])),
        (d, SuperDim(m=4, n=2)),
    ):
        assert a == b and hash(a) == hash(b) and not a != b
    assert spec != BundleSpec(1, 1, d, (2, 1)) and d != d.shifted()
    # a Grassmannian is the one-step flag: BundleSpec builds a FlagSpec
    assert type(spec) is FlagSpec and spec == flag and hash(spec) == hash(flag)
    # equality is by exact type: not a tuple of the same fields
    assert spec != (((1, 1),), d, Partition((2, 1)), Partition((1,))) and d != (4, 2)
    assert repr(spec) == (
        "FlagSpec(steps=((1, 1),), d=SuperDim(m=4, n=2), alpha=Partition((2, 1)), beta=Partition((1,)))"
    )
    for obj, field in ((spec, "steps"), (flag, "alpha"), (skew, "inner"), (d, "m")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert (spec.steps, flag.alpha, skew.inner, d.m) == (((1, 1),), (2, 1), (1,), 4)
    # the report stays mutable, compares field by field and is unhashable
    report = VerifyReport(spec, True)
    assert report == VerifyReport(spec=spec, matches=True, diffs={}, possibly_nondegenerate=False)
    report.matches = False
    assert report != VerifyReport(spec, True)
    with pytest.raises(TypeError):
        hash(report)
    for build, message in (
        (lambda: bundle(3, 0, 2, 1), "sub-bundle ranks out of range"),
        (lambda: FlagSpec((), d), "flag needs at least one step"),
        (lambda: FlagSpec(((2, 1), (1, 2)), d), "steps must strictly increase in the product order"),
        (lambda: SuperDim(-1, 0), "dimensions must be nonnegative"),
        (lambda: SkewShape((1,), (2,)), "inner [2] not contained in outer [1]"),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_hypothesis_case():
    assert hypothesis_case(bundle(1, 1, 3, 2, alpha=(5,))) is HypothesisCase.CASE1
    assert hypothesis_case(bundle(1, 1, 2, 2, alpha=(2,))) is HypothesisCase.NONE
    assert hypothesis_case(bundle(0, 1, 1, 3, alpha=(1,))) is HypothesisCase.CASE2
    # wide beta breaks the lower bound in case 1
    assert hypothesis_case(bundle(1, 1, 4, 2, beta=(1, 1))) is HypothesisCase.NONE


def test_structure_sheaf_hilbert():
    # q = 0 and q = n give a point cohomology ring
    assert structure_sheaf_hilbert(bundle(2, 0, 4, 1)) == HilbertSeries.one()
    assert structure_sheaf_hilbert(bundle(2, 1, 4, 2)) == HilbertSeries({0: 1, 2: 1})
    assert structure_sheaf_hilbert(bundle(3, 1, 6, 3)) == HilbertSeries(
        {0: 1, 2: 1, 4: 1}
    )
    with pytest.raises(HypothesisError, match="hypothesis not satisfied"):
        structure_sheaf_hilbert(bundle(1, 1, 2, 2, alpha=(2,)))


def test_main_theorem_char_decides_the_hypothesis_case_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return hypothesis_case(spec)

    monkeypatch.setattr(superbott.cohomology, "hypothesis_case", counted)
    specs = [
        bundle(1, 1, 3, 2, alpha=(2,)),
        bundle(0, 1, 1, 3, alpha=(1,)),
        FlagSpec(steps=((1, 0), (2, 1)), d=SuperDim(4, 2), alpha=(1,)),
    ]
    for spec in specs:
        main_theorem_char(spec)
    with pytest.raises(HypothesisError, match="hypothesis not satisfied"):
        main_theorem_char(bundle(1, 1, 2, 2, alpha=(2,)))
    assert len(calls) == 4


def sym_top_terms(d):
    # Sym^d V0 + Sym^{d-1} V0 (x) V1 + Sym^{d-2} V0 (x) wedge^2 V1 in 3|2
    return {
        ((d, 0, 0), (0, 0)): 1,
        ((d - 1, 0, 0), (1, 0)): 1,
        ((d - 2, 0, 0), (1, 1)): 1,
    }


def test_e1_page_sym_powers_rank_three_two():
    for d in range(2, 5):
        gc = e1_page(bundle(1, 1, 3, 2, alpha=(d,)))
        assert gc.degrees() == [0, 2]
        assert gc.degree(0).terms == sym_top_terms(d)
        assert gc.degree(2).terms == sym_top_terms(d)


def test_e1_page_sym_powers_square_case():
    # m = n = 2: the hypothesis fails and one summand survives in degree 1
    for d in range(2, 5):
        spec = bundle(1, 1, 2, 2, alpha=(d,))
        assert hypothesis_case(spec) is HypothesisCase.NONE
        gc = e1_page(spec)
        assert gc.degrees() == [0, 1]
        assert gc.degree(0).terms == {
            ((d, 0), (0, 0)): 1,
            ((d - 1, 0), (1, 0)): 1,
            ((d - 2, 0), (1, 1)): 1,
            ((d - 1, 1), (0, 0)): 1,
        }
        assert gc.degree(1).terms == {((d - 1, 1), (0, 0)): 1}
        assert gc.has_odd_support()


def test_e1_page_dual_sym_on_odd_line():
    # p = q = n = 1, m = 3, beta = (2): sections only, two hook families
    spec = bundle(1, 1, 3, 1, beta=(2,))
    assert hypothesis_case(spec) is HypothesisCase.NONE
    gc = e1_page(spec)
    assert gc.degrees() == [0]
    assert gc.degree(0).terms == {
        ((0, 0, -2), (0,)): 1,
        ((0, -1, -2), (1,)): 1,
        ((-1, -1, -2), (2,)): 1,
        ((0, 0, -1), (-1,)): 1,
        ((0, -1, -1), (0,)): 1,
        ((-1, -1, -1), (1,)): 1,
    }


def test_e1_page_trivial_and_zero_bundles():
    gc = e1_page(bundle(0, 0, 2, 1))
    assert gc.degrees() == [0]
    assert gc.degree(0).terms == {((0, 0), (0,)): 1}
    # alpha too long for the quotient super rank gives the zero functor
    assert e1_page(bundle(1, 1, 3, 1, alpha=(1, 1, 1))).is_zero()


def reference_e1_page(spec):
    # The first page as the plain composition of the tested helpers: for
    # every alpha-term, beta-term, lam and nu, Kunneth of the Bott
    # cohomology of the even and the odd Levi block.
    m, n = spec.m, spec.n
    ((p, q),) = spec.steps
    mq, nq = m - p, n - q
    out = GradedCharacter(m, n)
    alpha_terms = super_schur_decompose(spec.alpha, SuperDim(mq, nq))
    beta_terms = super_schur_decompose(spec.beta, SuperDim(p, q))
    for (a0, a1), ca in alpha_terms.items():
        for (b0, b1), cb in beta_terms.items():
            for lam in partitions_in_box(p, nq):
                for nu in partitions_in_box(mq, q):
                    even = {
                        LeviWeight(wq, wr): c1 * c2
                        for wq, c1 in rational_tensor(a0, dual_weight(pad_weight(nu, mq))).items()
                        for wr, c2 in rational_tensor(dual_weight(b0), pad_weight(lam, p)).items()
                    }
                    lam_t = dual_weight(pad_weight(lam.transpose(), nq))
                    odd = {
                        LeviWeight(wq, wr): c1 * c2
                        for wq, c1 in rational_tensor(a1, lam_t).items()
                        for wr, c2 in rational_tensor(dual_weight(b1), pad_weight(nu.transpose(), q)).items()
                    }
                    page = kunneth(
                        grassmannian_cohomology(p, m, even), grassmannian_cohomology(q, n, odd)
                    )
                    for deg, vc in page.by_degree.items():
                        out.add_char(deg, vc, ca * cb)
    return out


def test_e1_page_matches_blockwise_reference():
    shapes = [(), (1,), (2,), (1, 1)]
    cases = {case: 0 for case in HypothesisCase}
    for m in range(1, 4):
        for n in range(1, 4):
            for p in range(m + 1):
                for q in range(n + 1):
                    for alpha in shapes:
                        for beta in shapes:
                            spec = bundle(p, q, m, n, alpha, beta)
                            assert e1_page(spec) == reference_e1_page(spec), spec
                            cases[hypothesis_case(spec)] += 1
    spec = bundle(2, 1, 5, 2, alpha=(2, 1), beta=(1,))
    assert e1_page(spec) == reference_e1_page(spec)
    assert all(cases.values()), cases
    # 70 nu shapes: cells past bit 63 of the first page's reach bit sets
    spec = bundle(1, 4, 5, 5, alpha=(1,), beta=(1,))
    assert len(_box_shapes(4, 4)) == 70
    assert e1_page(spec) == reference_e1_page(spec)


COUNT_BOTT_PAIRS = """
import json
from superbott import cohomology
from superbott.superschur import SuperDim
calls = 0
pairs = cohomology._levi_bott_pairs
def counted(*args):
    global calls
    calls += 1
    return pairs(*args)
cohomology._levi_bott_pairs = counted
counts = []
for p, q, m, n in ((2, 1, 9, 4), (3, 2, 12, 6)):
    calls = 0
    cohomology.e1_page(cohomology.BundleSpec(p, q, SuperDim(m, n), (2, 1), (1,)))
    counts.append(calls)
print(json.dumps(counts))
"""


def test_levi_bott_runs_on_every_surviving_cell_and_no_other():
    # Bott's pair lookup runs once per side of each cell the page visits,
    # memoized or not, so skipping a cell that survives on both sides, or
    # visiting one that survives on one side only, moves these counts (twice
    # the surviving cells) on two rungs of the benchmark ladder
    src = str(Path(superbott.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_BOTT_PAIRS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [234, 1160]


def test_id_keyed_bott_tables_match_bott_on_the_concatenated_weight(monkeypatch):
    # every pair of block sides that the first page's Levi rows build on the
    # criterion-4 grid and its CASE2 mirror: each side holds the rho-shifted
    # terms of its rational_tensor, and the id-keyed Bott tables give, as a
    # multiset, bott() on the concatenated unshifted weight of each pair of
    # blocks that does not vanish
    rows = []
    levi_row = cohomology._levi_row

    def recorded(a, n_rows, n_cols, column, offset):
        row = levi_row(a, n_rows, n_cols, column, offset)
        rows.append((a, n_rows, n_cols, column, offset, row))
        return row

    monkeypatch.setattr(cohomology, "_levi_row", recorded)
    values = cohomology._block_table.values
    # ids are never reused, so a pair of ids is checked once; each page's
    # pairs are checked before the next page may clear the table
    checked = set()
    for spec in case1_grid():
        for bundle_spec in (spec, mirror(spec)):
            rows.clear()
            e1_page(bundle_spec)
            by_column = {}
            for a, n_rows, n_cols, column, offset, row in rows:
                by_column.setdefault(column, []).append(row)
                for shape, side in zip(_box_shapes(n_rows, n_cols), row.sides):
                    unshifted = []
                    for _, block, c in values[side]:
                        v = values[block][0]
                        unshifted.append((tuple(x - (len(v) - 1 + offset - i) for i, x in enumerate(v)), c))
                    assert sorted(unshifted) == sorted(rational_tensor(a, shape[column]).items())
            pairs = set()
            for upper, lower in ((cohomology._SIGMA_DUAL, cohomology._SIGMA), (cohomology._SIGMA_T_DUAL, cohomology._SIGMA_T)):
                for upper_row in by_column.get(upper, []):
                    for lower_row in by_column.get(lower, []):
                        pairs.update(product(upper_row.sides, lower_row.sides))
            for upper, lower in pairs - checked:
                expected = []
                for _, u, c1 in values[upper]:
                    for _, l, c2 in values[lower]:
                        v = values[u][0] + values[l][0]
                        result = bott(tuple(x - r for x, r in zip(v, rho(len(v)))))
                        if result is not None:
                            expected.append((*result, c1 * c2))
                assert sorted(cohomology._levi_bott_pairs(upper, lower)) == sorted(expected)
            checked |= pairs
    assert len(checked) > 1000


def test_e1_bigraded_totals_match():
    # Every bundle with m, n <= 4 and |alpha|, |beta| <= 2: the bigraded
    # page is pinned by one sha256, every multiplicity is positive, and
    # folding it over the exterior degree gives e1_page term by term.
    shapes = small_shapes(2)
    h = hashlib.sha256()
    count = 0
    for m, n in product(range(1, 5), repeat=2):
        for p, q, a, b in product(range(m + 1), range(n + 1), shapes, shapes):
            spec = bundle(p, q, m, n, a, b)
            by_pair = e1_bigraded(spec)
            folded = GradedCharacter(m, n)
            for (deg, _ext), vc in by_pair.items():
                assert all(c > 0 for c in vc.terms.values()), spec
                folded.add_char(deg, vc)
            assert folded == e1_page(spec), spec
            page = [[deg, ext, by_pair[deg, ext].to_json_obj()] for deg, ext in sorted(by_pair)]
            line = json.dumps([[p, q, m, n, list(a), list(b)], page], separators=(",", ":"))
            h.update(line.encode() + b"\n")
            count += 1
    assert count == 3136
    assert h.hexdigest() == "fa50099f8bd6e6c830ebfe941bc83b140f0bf0e98d498c2481ed1ff2dd3bdefa"


def symmetry_grid():
    # NONE, CASE1 and CASE2 bundles with m, n <= 3 and |alpha|, |beta| <= 3
    shapes = small_shapes(3)
    for m, n in product(range(4), repeat=2):
        for p, q, a, b in product(range(m + 1), range(n + 1), shapes, shapes):
            yield bundle(p, q, m, n, a, b)


def symmetry_failures(specs, image, image_terms):
    """The bundles that a symmetry fails on, and how many satisfy the hypothesis.

    ``image`` maps a bundle to its image and ``image_terms`` maps the terms
    of a character.  The symmetry holds on a bundle when the first page of
    the image (Grassmannians only) is the image of its first page at every
    (degree, exterior degree), the hypothesis holds for both or for
    neither, and under it the image's closed form is the image of the
    bundle's, degree by degree.
    """
    failures, hypothesis_count = [], 0
    for spec in specs:
        other = image(spec)
        ok = True
        if len(spec.steps) == 1:
            page = {grade: vc.terms for grade, vc in e1_bigraded(other).items()}
            ok = page == {grade: image_terms(vc.terms) for grade, vc in e1_bigraded(spec).items()}
        case = hypothesis_case(spec)
        ok = ok and (hypothesis_case(other) is HypothesisCase.NONE) == (case is HypothesisCase.NONE)
        if ok and case is not HypothesisCase.NONE:
            hypothesis_count += 1
            got = main_theorem_char(other).by_degree
            want = main_theorem_char(spec).by_degree
            ok = {deg: vc.terms for deg, vc in got.items()} == {
                deg: image_terms(vc.terms) for deg, vc in want.items()
            }
        if not ok:
            failures.append(spec)
    return failures, hypothesis_count


def test_first_page_is_parity_symmetric():
    # The parity shift identifies Gr(p|q, m|n) with Gr(q|p, n|m), and
    # S_alpha(Pi Q) = Pi^|alpha| S_(alpha^T)(Q), so mirroring a bundle (swap
    # the even and odd ranks, transpose both shapes) swaps the two blocks of
    # every weight of its first page and keeps the grades.  On the pinned
    # two-step flags, the closed forms are mirrored too.
    def swapped(terms):
        return {(w1, w0): c for (w0, w1), c in terms.items()}

    grid = list(symmetry_grid())
    assert len(grid) == 4900
    assert symmetry_failures(grid, mirror, swapped) == ([], 398)
    assert symmetry_failures(two_step_flags(), mirror, swapped) == ([], 764)


def dual(spec):
    # V -> V* sends the sub-bundles of ranks p_i|q_i to their annihilators,
    # of ranks (m - p_i)|(n - q_i) in reverse order, and R to Q*, so alpha
    # and beta swap
    steps = [(spec.m - p, spec.n - q) for p, q in reversed(spec.steps)]
    return FlagSpec(steps, spec.d, spec.beta, spec.alpha)


def dual_terms(terms):
    # the dual character: every weight w -> -w reversed, in both blocks
    return {(dual_weight(w0), dual_weight(w1)): c for (w0, w1), c in terms.items()}


def test_first_page_is_dual_symmetric():
    # V -> V* identifies Gr(p|q, m|n) with Gr(m-p|n-q, m|n), so H^i of
    # S_alpha Q (x) S_beta R* is the dual of H^i of S_beta Q (x) S_alpha R*
    # on the second, at every exterior degree of the first page; the
    # hypothesis is self-dual.  With the parity mirror this makes a Klein
    # four-group of checks that need no oracle.  On the pinned two-step
    # flags, the closed forms are dual too.
    grid = list(symmetry_grid())
    assert symmetry_failures(grid, dual, dual_terms) == ([], 398)
    assert symmetry_failures(two_step_flags(), dual, dual_terms) == ([], 764)

    # negative controls: a dual that keeps alpha and beta in place, and one
    # that dualizes the even block only
    def unswapped(spec):
        return FlagSpec(dual(spec).steps, spec.d, spec.alpha, spec.beta)

    def even_only(terms):
        return {(dual_weight(w0), w1): c for (w0, w1), c in terms.items()}

    assert len(symmetry_failures(grid, unswapped, dual_terms)[0]) == 2886
    assert len(symmetry_failures(grid, dual, even_only)[0]) == 2360


def test_e1_term_budget(monkeypatch):
    monkeypatch.setenv("SUPERBOTT_MAX_TERMS", "1")
    before = _box_shapes.cache_info()
    with pytest.raises(TermLimitError, match="expansion of 12 terms exceeds budget 1"):
        e1_page(bundle(1, 1, 3, 2, alpha=(2,)))
    # the count comes from the box sizes, before any shape table is built
    assert _box_shapes.cache_info() == before


@pytest.mark.parametrize("raw", ["abc", "-5", "0", "2.5"])
def test_e1_term_budget_rejects_bad_values(monkeypatch, capsys, raw):
    monkeypatch.setenv("SUPERBOTT_MAX_TERMS", raw)
    with pytest.raises(ValueError, match="SUPERBOTT_MAX_TERMS must be a positive integer"):
        e1_page(bundle(1, 1, 3, 2, alpha=(2,)))
    assert run(["e1", "--grass", "1,1", "--dim", "3,2", "--alpha", "[2]"]) == 1
    assert "SUPERBOTT_MAX_TERMS" in capsys.readouterr().err


def test_main_theorem_char_sym_powers():
    for d in range(2, 5):
        gc = main_theorem_char(bundle(1, 1, 3, 2, alpha=(d,)))
        assert gc.degrees() == [0, 2]
        assert gc.degree(0) == gc.degree(2)
        assert gc.degree(0).terms == sym_top_terms(d)


def test_main_theorem_char_structure_sheaf():
    gc = main_theorem_char(bundle(2, 1, 4, 2))
    assert gc.degrees() == [0, 2]
    assert gc.degree(0).terms == {((0, 0, 0, 0), (0, 0)): 1}


def test_main_theorem_char_hypothesis_error():
    with pytest.raises(HypothesisError, match="hypothesis not satisfied"):
        main_theorem_char(bundle(1, 1, 2, 2, alpha=(2,)))


def test_verify_passes_small_grid():
    cases = [
        (1, 1, 3, 2, (2,), ()),
        (1, 1, 4, 2, (1,), ()),
        (2, 1, 4, 2, (), (1,)),
        (1, 0, 3, 1, (1,), (1,)),
        (2, 1, 5, 2, (2,), ()),
        (3, 1, 5, 2, (), (2,)),
    ]
    for p, q, m, n, alpha, beta in cases:
        rep = verify_main_theorem(bundle(p, q, m, n, alpha, beta))
        assert rep.matches, (p, q, m, n, alpha, beta, rep.diffs)
        assert rep.diffs == {}


def reference_closed_form(spec):
    # the closed form from the public pieces, one add_char per degree
    if hypothesis_case(spec) is HypothesisCase.CASE1:
        base = rational_schur_char(spec.alpha, spec.beta, spec.d)
    else:
        shifted = rational_schur_char(spec.alpha.transpose(), spec.beta.transpose(), spec.d.shifted())
        base = VirtualCharacter(spec.m, spec.n, {(w1, w0): c for (w0, w1), c in shifted.items()})
    out = GradedCharacter(spec.m, spec.n)
    for deg, coeff in structure_sheaf_hilbert(spec).coeffs.items():
        out.add_char(deg, base, coeff)
    return out


def test_verify_agrees_with_the_reference_cross_check():
    # verify against the first page minus the closed form, degree by degree,
    # both as e1_page(spec).diff(main_theorem_char(spec)) and by
    # VirtualCharacter subtraction against a closed form rebuilt from its
    # public pieces, on the criterion-4 CASE1 grid and on its CASE2 mirror
    # (even and odd ranks swapped, both shapes transposed)
    counts = {HypothesisCase.CASE1: 0, HypothesisCase.CASE2: 0}
    mismatches = 0
    for spec in case1_grid():
        for bundle_spec in (spec, mirror(spec)):
            counts[hypothesis_case(bundle_spec)] += 1
            rep = verify_main_theorem(bundle_spec)
            page = e1_page(bundle_spec)
            expected = reference_closed_form(bundle_spec)
            assert main_theorem_char(bundle_spec) == expected, bundle_spec
            diffs = {}
            for deg in set(page.degrees()) | set(expected.degrees()):
                vc = page.degree(deg) - expected.degree(deg)
                if not vc.is_zero():
                    diffs[deg] = vc
            assert rep.diffs == diffs == page.diff(main_theorem_char(bundle_spec)), bundle_spec
            assert rep.matches == (not diffs)
            assert rep.possibly_nondegenerate == page.has_odd_support()
            mismatches += not rep.matches
    # six mirrors satisfy CASE1 as well, which hypothesis_case checks first
    assert counts == {HypothesisCase.CASE1: 1072, HypothesisCase.CASE2: 1060}, counts
    assert mismatches == 106  # 53 CASE1 surplus bundles and their mirrors


def test_verify_case2_via_shift():
    for p, q, m, n, alpha, beta in [
        (0, 1, 1, 3, (1,), ()),
        (0, 1, 1, 3, (), (1,)),
        (1, 2, 2, 4, (1,), ()),
    ]:
        spec = bundle(p, q, m, n, alpha, beta)
        assert hypothesis_case(spec) is HypothesisCase.CASE2
        assert verify_main_theorem(spec).matches


def test_verify_boundary_mismatch_is_d1_exact():
    # On the CASE1 grid the first page exceeds the closed form exactly when
    # 0 < q < n and len(alpha) + len(beta) >= 2, whatever the slack in the
    # hypothesis; the surplus cancels in d_r pairs and the Euler
    # characteristics agree.  Here degree 0 of the page is the closed form,
    # the irreducible Lambda^2 C^{4|2}, plus one 1-dim weight at exterior
    # degree 1.  H^0 is a GL(4|2)-module containing Lambda^2 C^{4|2} and
    # bounded by the page's degree 0, and a 1-dim gl(4|2)-module has weight
    # a * (1,1,1,1|-1,-1), which the extra weight is not.  So H^0 is the
    # closed form and the extra class is killed by a differential.
    spec = bundle(1, 1, 4, 2, alpha=(1, 1))
    rep = verify_main_theorem(spec)
    assert not rep.matches
    assert rep.possibly_nondegenerate
    assert rep.diffs[0].terms == {((0, 0, 0, 0), (1, 1)): 1}
    assert e1_bigraded(spec)[(0, 1)].terms == {((0, 0, 0, 0), (1, 1)): 1}
    (w0, w1), = rep.diffs[0].terms
    a = w0[0]
    assert (w0, w1) != ((a,) * 4, (-a,) * 2)
    euler = sum((-1) ** deg * vc.total_dim() for deg, vc in rep.diffs.items())
    assert euler == 0
    assert e1_page(spec).euler_characteristic() == main_theorem_char(
        spec
    ).euler_characteristic()


def small_shapes(k):
    return [lam for j in range(k + 1) for lam in partitions_of(j)]


SMALL_SHAPES = small_shapes(3)


@st.composite
def hypothesis_bundles(draw):
    """A bundle with m, n <= 5 and |alpha|, |beta| <= 3 under the hypothesis.

    It is drawn in CASE1 and, half of the time, mirrored into CASE2: the
    mirror swaps the even and odd sides and transposes both shapes, which
    turns the CASE1 inequalities into the CASE2 ones.
    """
    alpha, beta = draw(st.sampled_from(SMALL_SHAPES)), draw(st.sampled_from(SMALL_SHAPES))
    la, lb = alpha.length, beta.length
    assume(la + lb <= 5)
    # CASE1: m - n - len(alpha) >= p - q >= len(beta)
    n = draw(st.integers(0, 5 - la - lb))
    gap = draw(st.integers(lb, 5 - n - la))
    m = draw(st.integers(n + la + gap, 5))
    q = draw(st.integers(0, n))
    if draw(st.booleans()):
        return bundle(q, q + gap, n, m, alpha.transpose(), beta.transpose())
    return bundle(q + gap, q, m, n, alpha, beta)


def test_e1_euler_characteristic_matches_closed_form_on_both_cases():
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(hypothesis_bundles())
    def check(spec):
        case = hypothesis_case(spec)
        assert case is not HypothesisCase.NONE, spec
        seen.add(case)
        assert e1_page(spec).euler_characteristic() == main_theorem_char(
            spec
        ).euler_characteristic(), spec

    check()
    assert seen == {HypothesisCase.CASE1, HypothesisCase.CASE2}


def test_e1_dimension_identity():
    # rank at t = 1 of the structure-sheaf series is binomial(n, q)
    import math

    for p, q, m, n, alpha, beta in [
        (1, 1, 3, 2, (2,), ()),
        (2, 1, 5, 2, (2,), ()),
        (2, 2, 5, 2, (1,), ()),
    ]:
        spec = bundle(p, q, m, n, alpha, beta)
        total = e1_page(spec).total_dim()
        base = rational_schur_char(alpha, beta, SuperDim(m, n)).total_dim()
        assert total == math.comb(n, q) * base


def test_e1_degree_zero_contains_closed_form():
    for p, q, m, n, alpha, beta in [
        (1, 1, 3, 2, (2,), ()),
        (1, 1, 4, 2, (1, 1), ()),
        (2, 1, 5, 2, (1,), (1,)),
    ]:
        spec = bundle(p, q, m, n, alpha, beta)
        actual = e1_page(spec).degree(0)
        expected = main_theorem_char(spec).degree(0)
        for key, mult in expected.items():
            assert actual.terms.get(key, 0) >= mult


def test_partial_flag_hilbert_values():
    # one step reduces to the Grassmannian series
    f = FlagSpec(steps=((2, 1),), d=SuperDim(4, 2))
    assert structure_sheaf_hilbert(f) == structure_sheaf_hilbert(bundle(2, 1, 4, 2))
    # full flag on the odd side
    f = FlagSpec(steps=((2, 1), (4, 2)), d=SuperDim(6, 3))
    assert structure_sheaf_hilbert(f) == q_factorial(3)
    with pytest.raises(HypothesisError, match="chain condition"):
        structure_sheaf_hilbert(FlagSpec(steps=((1, 1), (2, 3)), d=SuperDim(3, 3)))


def test_partial_flag_char_examples():
    f = FlagSpec(steps=((2, 1), (4, 2)), d=SuperDim(6, 3), alpha=(1,), beta=(1,))
    gc = main_theorem_char(f)
    base = rational_schur_char((1,), (1,), SuperDim(6, 3))
    assert base.total_dim() == 80  # traceless endomorphisms of a 6|3 space
    assert gc.degree(0) == base
    series = q_factorial(3)
    assert {deg: gc.degree(deg).total_dim() for deg in gc.degrees()} == {
        deg: coeff * 80 for deg, coeff in series.coeffs.items()
    }


def test_partial_flag_char_one_step_reduces():
    # every p|q in the box, 0|0 and m|n included, is a one-step flag, and
    # BundleSpec builds it: its series is the Gaussian binomial of the odd
    # ranks in CASE1 and of the even ranks in CASE2, and outside the
    # hypothesis it raises the main theorem's message
    seen = set()
    for m, n in product(range(5), repeat=2):
        for p, q, a, b in product(range(m + 1), range(n + 1), small_shapes(2), small_shapes(2)):
            f = FlagSpec(((p, q),), SuperDim(m, n), a, b)
            assert f == bundle(p, q, m, n, a, b) and hash(f) == hash(bundle(p, q, m, n, a, b))
            case = hypothesis_case(f)
            seen.add(case)
            if case is HypothesisCase.NONE:
                for closed_form in (structure_sheaf_hilbert, main_theorem_char):
                    with pytest.raises(HypothesisError, match="^main theorem hypothesis not satisfied$"):
                        closed_form(f)
            else:
                rank, total = (q, n) if case is HypothesisCase.CASE1 else (p, m)
                assert structure_sheaf_hilbert(f) == flag_poincare((rank, total - rank)), f
    assert seen == set(HypothesisCase)


def test_partial_flag_char_chain_error():
    f = FlagSpec(steps=((1, 1), (2, 1)), d=SuperDim(3, 2), alpha=(2, 2), beta=())
    with pytest.raises(HypothesisError, match="^partial flag chain condition not satisfied$"):
        main_theorem_char(f)


def test_first_page_takes_one_step():
    # the first page is computed on Grassmannians only; a longer flag is a
    # precondition failure before any work, also under the hypothesis
    f = FlagSpec(steps=((1, 0), (2, 1)), d=SuperDim(4, 2), alpha=(1,))
    assert hypothesis_case(f) is HypothesisCase.CASE1
    for first_page in (e1_page, e1_bigraded, verify_main_theorem):
        with pytest.raises(PreconditionError, match="^the first page needs a Grassmannian, got 2 steps$") as exc:
            first_page(f)
        assert type(exc.value) is PreconditionError


def test_ranks_and_parts_must_be_integers():
    # a float part or rank was truncated, or failed far from its cause
    for build in (
        lambda: Partition((2.7, 1)),
        lambda: FlagSpec(((1.5, 1),), SuperDim(3, 2)),
        lambda: SuperDim(2.5, 1),
        lambda: BundleSpec(1.5, 1, SuperDim(3, 2)),
    ):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()


def closed_form_digest(items):
    """sha256 over one canonical JSON line per (bundle key, closed form)."""
    h = hashlib.sha256()
    for key, gc in items:
        line = json.dumps([key, gc.to_json_obj()], sort_keys=True, separators=(",", ":"))
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def two_step_flags():
    # the two-step flag bundles under the hypothesis with m <= 5, n <= 3 and
    # |alpha|, |beta| <= 2, in the order of their pinned digest
    for m, n in product(range(6), range(4)):
        for p1, q1 in product(range(m + 1), range(n + 1)):
            for p2, q2, a, b in product(
                range(p1, m + 1), range(q1, n + 1), small_shapes(2), small_shapes(2)
            ):
                try:
                    f = FlagSpec(((p1, q1), (p2, q2)), SuperDim(m, n), a, b)
                except ValueError:
                    continue
                if hypothesis_case(f) is not HypothesisCase.NONE:
                    yield f


def test_closed_form_digests_pinned():
    # Digests of the closed form taken before the Grassmannian and flag
    # closed forms were one code path; both must stay byte-identical.
    grass = []
    for m, n in product(range(6), repeat=2):
        for p, q, a, b in product(range(m + 1), range(n + 1), SMALL_SHAPES, SMALL_SHAPES):
            spec = bundle(p, q, m, n, a, b)
            if hypothesis_case(spec) is not HypothesisCase.NONE:
                grass.append(([p, q, m, n, list(a), list(b)], main_theorem_char(spec)))
    flags = [
        ([*f.steps[0], *f.steps[1], f.m, f.n, list(f.alpha), list(f.beta)], main_theorem_char(f))
        for f in two_step_flags()
    ]
    assert (len(grass), len(flags)) == (2509, 764)
    assert closed_form_digest(grass) == "abb12f8d78dc78c58769519b22347cf2e8f47d61c173dc326cd50fbedad0bfb8"
    assert closed_form_digest(flags) == "220489dc8e43bc65f5728ca644db031057b040fd3a255ea7c4edc6a4fb12e391"
