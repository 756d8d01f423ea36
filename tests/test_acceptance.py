"""End-to-end acceptance gate: one printed pass/fail line per criterion."""

import itertools
import math
import random
from fractions import Fraction

from superbott.bott import LeviWeight, bott, grassmannian_cohomology, rho
from superbott.characters import (
    GradedCharacter,
    VirtualCharacter,
    lr_coefficient,
    pad_weight,
    weyl_dim,
)
from superbott.cohomology import (
    BundleSpec,
    HypothesisCase,
    e1_bigraded,
    e1_page,
    hypothesis_case,
    main_theorem_char,
    verify_main_theorem,
)
from superbott.oracle import (
    jacobi_trudi_specialize,
    lr_bruteforce,
    specialize_character,
    specialize_weight,
)
from superbott.partitions import Partition, contains, dominates, partitions_of, row_sum
from superbott.qseries import HilbertSeries, fact_ring_rank, flag_poincare
from superbott.superschur import (
    SuperDim,
    classical_rational_weight,
    composite_det_specialized,
    composite_euler_char,
    rational_schur_char,
)


def report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def case1_grid():
    for m in range(6):
        for n in range(3):
            d = SuperDim(m, n)
            for p in range(m + 1):
                for q in range(n + 1):
                    for ka in range(4):
                        for kb in range(4):
                            for alpha in partitions_of(ka):
                                for beta in partitions_of(kb):
                                    spec = BundleSpec(p, q, d, alpha, beta)
                                    if hypothesis_case(spec) is HypothesisCase.CASE1:
                                        yield spec


def page_classes(bigraded):
    """Exterior degrees of the first page's classes, by weight and degree.

    Returns None if a multiplicity is negative: the page is a genuine
    character, so that alone is a fault.
    """
    out = {}
    for (deg, ext), vc in bigraded.items():
        for key, mult in vc.items():
            if mult < 0:
                return None
            out.setdefault(key, {}).setdefault(deg, []).extend([ext] * mult)
    return out


def surplus_cancels_in_pairs(bigraded, closed):
    """Whether the page exceeds the closed form only by d_r-cancelling pairs.

    The closed form is what the spectral sequence converges to; the first page
    may carry more, provided it dies under differentials d_r, each of which
    raises the cohomological degree by 1 and the exterior degree by r >= 1.
    Per weight, the surplus s_i of the page over the closed form in degree i
    must split as s_i = x_{i-1} + x_i with every x_i >= 0 and the last one 0,
    and the x_{i-1} highest classes of degree i (the targets) must lie
    strictly above, in exterior degree, the x_{i-1} lowest remaining classes
    of degree i - 1 (the sources), matched in sorted order.
    """
    classes = page_classes(bigraded)
    if classes is None:
        return False
    weights = set(classes)
    for deg in closed.degrees():
        weights.update(closed.degree(deg).terms)
    degs = {deg for deg, _ext in bigraded} | set(closed.degrees())
    for w in weights:
        by_deg = classes.get(w, {})
        carry = 0  # x_{i-1}: classes of degree i - 1 that map into degree i
        sources = []
        for i in range(min(degs), max(degs) + 1):
            ks = sorted(by_deg.get(i, []))
            surplus = len(ks) - closed.degree(i).terms.get(w, 0)
            if not carry <= surplus <= len(ks):
                return False
            targets = ks[len(ks) - carry:]
            if any(s >= t for s, t in zip(sources, targets)):
                return False
            carry = surplus - carry
            sources = ks[:carry]
        if carry:
            return False
    return True


def odd_classes_pair_off(bigraded):
    """Whether every odd-degree class of the page can die against an even one.

    Per weight, each class of odd degree i and exterior degree k is matched
    one-to-one to an even class of degree i - 1 and exterior degree below k,
    or of degree i + 1 and exterior degree above k: the shape of a d_r.
    """
    classes = page_classes(bigraded)
    if classes is None:
        return False
    for by_deg in classes.values():
        odd = [(i, k) for i, ks in by_deg.items() if i % 2 for k in ks]
        if not odd:
            continue
        even = [(i, k) for i, ks in by_deg.items() if i % 2 == 0 for k in ks]
        partner = {}  # index into even -> index into odd

        def augment(a, seen):
            i, k = odd[a]
            for b, (j, l) in enumerate(even):
                if b in seen or not ((j == i - 1 and l < k) or (j == i + 1 and l > k)):
                    continue
                seen.add(b)
                if b not in partner or augment(partner[b], seen):
                    partner[b] = a
                    return True
            return False

        if not all(augment(a, set()) for a in range(len(odd))):
            return False
    return True


def test_criterion_1_sym_powers_on_three_two():
    ok = True
    for d in range(2, 6):
        spec = BundleSpec(1, 1, SuperDim(3, 2), (d,), ())
        gc = e1_page(spec)
        expected_terms = {
            ((d, 0, 0), (0, 0)): 1,
            ((d - 1, 0, 0), (1, 0)): 1,
            ((d - 2, 0, 0), (1, 1)): 1,
        }
        ok &= gc.degrees() == [0, 2]
        ok &= gc.degree(0).terms == expected_terms
        ok &= gc.degree(2).terms == expected_terms
        rep = verify_main_theorem(spec)
        ok &= rep.matches
        closed = main_theorem_char(spec)
        ok &= closed.degree(0).terms == expected_terms
        ok &= closed.degree(2).terms == expected_terms
    report(1, ok, "Sym^d on 3|2: six-row table and verified closed form")


def test_criterion_2_sym_powers_on_two_two():
    ok = True
    for d in range(2, 5):
        spec = BundleSpec(1, 1, SuperDim(2, 2), (d,), ())
        ok &= hypothesis_case(spec) is HypothesisCase.NONE
        gc = e1_page(spec)
        ok &= gc.degrees() == [0, 1]
        ok &= gc.degree(0).terms == {
            ((d, 0), (0, 0)): 1,
            ((d - 1, 0), (1, 0)): 1,
            ((d - 2, 0), (1, 1)): 1,
            ((d - 1, 1), (0, 0)): 1,
        }
        ok &= gc.degree(1).terms == {((d - 1, 1), (0, 0)): 1}
        ok &= gc.has_odd_support()
    report(2, ok, "Sym^d on 2|2: five-row table, no hypothesis, odd flag")


def test_criterion_3_dual_sym_on_three_one():
    ok = True
    for d in range(2, 4):
        spec = BundleSpec(1, 1, SuperDim(3, 1), (), (d,))
        gc = e1_page(spec)
        ok &= gc.degrees() == [0]
        expected = {}
        for b in range(3):
            # hook (d, 1^b) on V0*, tensored with b copies of the odd line
            hook = Partition((d,) + (1,) * b)
            w0 = tuple(-x for x in reversed(pad_weight(hook, 3)))
            expected[(w0, (b,))] = 1
            hook = Partition((d - 1,) + (1,) * b)
            w0 = tuple(-x for x in reversed(pad_weight(hook, 3)))
            expected[(w0, (b - 1,))] = 1
        ok &= gc.degree(0).terms == expected
        total = sum(weyl_dim(w0) * weyl_dim(w1) for (w0, w1) in expected)
        ok &= gc.total_dim() == total
    report(3, ok, "dual Sym^d on 3|1: sections only, two hook families")


def test_criterion_4_main_theorem_grid():
    # The closed form is the cohomology, which the first page converges to.
    # Where the page has no odd-degree terms it must equal the closed form;
    # elsewhere its surplus must cancel in d_r pairs with equal Euler
    # characteristics.
    failures = []
    total = exact = 0
    for spec in case1_grid():
        total += 1
        rep = verify_main_theorem(spec)
        if rep.matches:
            exact += 1
            continue
        euler = VirtualCharacter(spec.m, spec.n)
        for deg, vc in rep.diffs.items():
            euler = euler + vc.scale((-1) ** deg)
        ok = rep.possibly_nondegenerate and euler.is_zero()
        ok = ok and surplus_cancels_in_pairs(e1_bigraded(spec), main_theorem_char(spec))
        if not ok:
            failures.append(spec)
    detail = f"{exact} exact, {total - exact - len(failures)} cancellable by d_r pairs"
    if failures:
        worst = failures[0]
        detail += (
            f"; {len(failures)}/{total} fail, first steps={worst.steps}"
            f" dim {worst.m}|{worst.n}"
            f" alpha={tuple(worst.alpha)} beta={tuple(worst.beta)}"
        )
    # The check rejects a wrong closed form: on Gr(1|1, 4|2) with alpha =
    # (1,1), the base character alone leaves degree 2 with nothing to cancel.
    spec = BundleSpec(1, 1, SuperDim(4, 2), (1, 1), ())
    wrong = GradedCharacter(spec.m, spec.n)
    wrong.add_char(0, main_theorem_char(spec).degree(0))
    if surplus_cancels_in_pairs(e1_bigraded(spec), wrong):
        failures.append(spec)
        detail += "; accepted a closed form without its series"
    report(4, not failures, detail)


def test_criterion_5_rational_schur_cross_check():
    ok = True
    rng = random.Random(20240824)
    checked = 0
    for m in range(6):
        for n in range(3):
            d = SuperDim(m, n)
            for ka in range(4):
                for kb in range(4):
                    for lam in partitions_of(ka):
                        for mu in partitions_of(kb):
                            if m < lam.length + mu.length - 1:
                                continue
                            char = rational_schur_char(lam, mu, d)
                            ok &= composite_euler_char(lam, mu, d) == char
                            checked += 1
                            if m == 0 or checked % 37 != 0:
                                continue
                            for _ in range(5):
                                evens = [
                                    Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                    for _ in range(m)
                                ]
                                odds = [
                                    Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                    for _ in range(n)
                                ]
                                det = composite_det_specialized(lam, mu, d, (evens, odds))
                                ok &= det == specialize_character(char, evens, odds)
    report(5, ok, f"{checked} composite characters matched")


def test_criterion_6_pgl_dimension_anchor():
    ok = True
    for m, n in [(3, 1), (4, 2), (5, 2), (2, 0)]:
        char = rational_schur_char((1,), (1,), SuperDim(m, n))
        ok &= char.total_dim() == (m + n) ** 2 - 1
    report(6, ok, "adjoint-type characters have dimension (m+n)^2 - 1")


def test_criterion_7_lr_oracle_equivalence():
    ok = True
    shapes = [lam for k in range(6) for lam in partitions_of(k)]
    for lam in shapes:
        for mu in shapes:
            for nu in partitions_of(lam.size + mu.size):
                c = lr_coefficient(lam, mu, nu)
                ok &= c == lr_bruteforce(lam, mu, nu)
                if c:
                    ok &= contains(lam, nu) and contains(mu, nu)
                    ok &= dominates(row_sum(lam, mu), nu)
    report(7, ok, "tableau count equals monomial expansion up to size 5")


def test_criterion_8_qseries():
    ok = True
    for n in range(9):
        for q in range(n + 1):
            series = flag_poincare((q, n - q))
            numer = HilbertSeries.one()
            denom = HilbertSeries.one()
            for i in range(q + 1, n + 1):
                numer = numer * HilbertSeries({2 * i: 1, 0: -1})
            for i in range(1, n - q + 1):
                denom = denom * HilbertSeries({2 * i: 1, 0: -1})
            ok &= numer.exact_div(denom) == series
            ok &= series.is_palindromic()
            ok &= series.eval(1) == fact_ring_rank((q, n - q))
            ok &= series.eval(1) == math.comb(n, q)
    report(8, ok, "Grassmannian Poincare series match the product formula")


def test_criterion_9_even_degree_concentration():
    # The cohomology sits in even degrees; odd-degree terms of the first page
    # must die under differentials, each paired with an even-degree term of
    # the same weight in an adjacent degree.  The closed form is not used.
    failures = []
    total = even = 0
    for spec in case1_grid():
        total += 1
        if not e1_page(spec).has_odd_support():
            even += 1
        elif not odd_classes_pair_off(e1_bigraded(spec)):
            failures.append(spec)
    detail = (
        f"{even}/{total} grid bundles even-concentrated,"
        f" {total - even - len(failures)} pair off their odd terms"
    )
    if failures:
        worst = failures[0]
        detail += (
            f"; first failure steps={worst.steps} dim {worst.m}|{worst.n}"
            f" alpha={tuple(worst.alpha)} beta={tuple(worst.beta)}"
        )
    # The check rejects an unpairable page: outside the hypothesis, the
    # structure sheaf of Gr(0|1, 2|2) has a degree-1 term of weight
    # ((-1,-1),(1,1)) and no even term of that weight.
    spec = BundleSpec(0, 1, SuperDim(2, 2))
    if odd_classes_pair_off(e1_bigraded(spec)):
        failures.append(spec)
        detail += "; paired off the odd term of Gr(0|1, 2|2)"
    report(9, not failures, detail)


def test_criterion_10_borel_weil_and_bott_invariant():
    ok = True
    for m in range(1, 6):
        for ka in range(4):
            for kb in range(4):
                for alpha in partitions_of(ka):
                    for beta in partitions_of(kb):
                        if alpha.length + beta.length > m:
                            continue
                        for p in range(beta.length, m - alpha.length + 1):
                            lw = LeviWeight(
                                pad_weight(alpha, m - p),
                                tuple(-x for x in reversed(pad_weight(beta, p))),
                            )
                            gc = grassmannian_cohomology(p, m, {lw: 1})
                            expected = classical_rational_weight(alpha, beta, m)
                            ok &= gc.degrees() == [0]
                            ok &= gc.degree(0).terms == {(expected, ()): 1}
    for m in range(1, 5):
        shift = rho(m)
        for gamma in itertools.product(range(-3, 4), repeat=m):
            res = bott(gamma)
            v = [g + r for g, r in zip(gamma, shift)]
            if len(set(v)) < m:
                ok &= res is None
                continue
            degree, w = res
            inversions = sum(
                1 for i in range(m) for j in range(i + 1, m) if v[i] < v[j]
            )
            ok &= degree == inversions
    report(10, ok, "dominant weights give sections; degree = inversion count")
