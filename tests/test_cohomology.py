import os

import pytest

from superbott.cli import run
from superbott.cohomology import (
    BundleSpec,
    FlagSpec,
    HypothesisCase,
    e1_bigraded,
    e1_page,
    hypothesis_case,
    main_theorem_char,
    partial_flag_char,
    partial_flag_hilbert,
    structure_sheaf_hilbert,
    verify_main_theorem,
)
from superbott.bott import LeviWeight, grassmannian_cohomology, kunneth
from superbott.characters import GradedCharacter, dual_weight, pad_weight, rational_tensor
from superbott.errors import HypothesisError, TermLimitError
from superbott.partitions import partitions_in_box
from superbott.qseries import HilbertSeries, q_factorial
from superbott.superschur import SuperDim, rational_schur_char, super_schur_decompose


def bundle(p, q, m, n, alpha=(), beta=()):
    return BundleSpec(p=p, q=q, d=SuperDim(m, n), alpha=alpha, beta=beta)


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
    with pytest.raises(ValueError, match="strictly increase"):
        FlagSpec(steps=((3, 3),), d=SuperDim(3, 3))


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
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
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


def test_e1_bigraded_totals_match():
    spec = bundle(1, 1, 3, 2, alpha=(2,))
    by_pair = e1_bigraded(spec)
    gc = e1_page(spec)
    totals = {}
    for (deg, _ext), vc in by_pair.items():
        totals[deg] = totals.get(deg, 0) + vc.total_dim()
    assert totals == {deg: gc.degree(deg).total_dim() for deg in gc.degrees()}


def test_e1_term_budget(monkeypatch):
    monkeypatch.setenv("SUPERBOTT_MAX_TERMS", "1")
    with pytest.raises(TermLimitError, match="budget"):
        e1_page(bundle(1, 1, 3, 2, alpha=(2,)))


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
    assert partial_flag_hilbert(f) == structure_sheaf_hilbert(bundle(2, 1, 4, 2))
    # full flag on the odd side
    f = FlagSpec(steps=((2, 1), (4, 2)), d=SuperDim(6, 3))
    assert partial_flag_hilbert(f) == q_factorial(3)
    with pytest.raises(HypothesisError, match="chain condition"):
        partial_flag_hilbert(FlagSpec(steps=((1, 1), (2, 3)), d=SuperDim(3, 3)))


def test_partial_flag_char_examples():
    f = FlagSpec(steps=((2, 1), (4, 2)), d=SuperDim(6, 3), alpha=(1,), beta=(1,))
    gc = partial_flag_char(f)
    base = rational_schur_char((1,), (1,), SuperDim(6, 3))
    assert base.total_dim() == 80  # traceless endomorphisms of a 6|3 space
    assert gc.degree(0) == base
    series = q_factorial(3)
    assert {deg: gc.degree(deg).total_dim() for deg in gc.degrees()} == {
        deg: coeff * 80 for deg, coeff in series.coeffs.items()
    }


def test_partial_flag_char_one_step_reduces():
    f = FlagSpec(steps=((2, 1),), d=SuperDim(6, 3), alpha=(1,), beta=(1,))
    assert partial_flag_char(f) == main_theorem_char(
        bundle(2, 1, 6, 3, alpha=(1,), beta=(1,))
    )


def test_partial_flag_char_chain_error():
    f = FlagSpec(steps=((1, 1),), d=SuperDim(3, 2), alpha=(2, 2), beta=())
    with pytest.raises(HypothesisError, match="chain condition"):
        partial_flag_char(f)
