from itertools import combinations

import pytest

from superbott.errors import PreconditionError
from superbott.qseries import (
    HilbertSeries,
    ci_codim,
    fact_ring_rank,
    flag_poincare,
    q_factorial,
    q_int,
)


def test_q_int():
    assert q_int(0).is_zero()
    assert q_int(1) == HilbertSeries({0: 1})
    assert q_int(3) == HilbertSeries({0: 1, 2: 1, 4: 1})
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_factorial():
    assert q_factorial(0) == HilbertSeries.one()
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert q_factorial(3).eval(1) == 6


def test_series_arithmetic():
    a = HilbertSeries({0: 1, 2: 1})
    b = HilbertSeries({0: 1, 2: -1})
    assert a * b == HilbertSeries({0: 1, 4: -1})
    assert (a + b) == HilbertSeries({0: 2})
    assert (a * b).exact_div(a) == b
    with pytest.raises(ArithmeticError, match="inexact"):
        HilbertSeries({0: 1, 2: 1, 4: 1}).exact_div(HilbertSeries({0: 1, 2: 1}))
    with pytest.raises(ZeroDivisionError):
        a.exact_div(HilbertSeries.zero())


def test_series_str():
    assert str(HilbertSeries({0: 1, 2: 1, 4: 2})) == "1 + t^2 + 2 t^4"
    assert str(HilbertSeries.zero()) == "0"


def test_flag_poincare_grassmannian_cases():
    assert flag_poincare((0, 2)) == HilbertSeries.one()
    assert flag_poincare((1, 1)) == HilbertSeries({0: 1, 2: 1})
    assert flag_poincare((1, 2)) == HilbertSeries({0: 1, 2: 1, 4: 1})
    assert flag_poincare((2, 2)) == HilbertSeries({0: 1, 2: 1, 4: 2, 6: 1, 8: 1})


def test_flag_poincare_full_flag():
    assert flag_poincare((1, 1, 1)) == q_factorial(3)


def test_flag_poincare_palindromic_and_rank():
    for dvec in [(1, 1), (2, 3), (1, 2, 3), (2, 2, 2), (1, 1, 1, 1)]:
        series = flag_poincare(dvec)
        assert series.is_palindromic()
        assert all(deg % 2 == 0 for deg in series.coeffs)
        assert all(c > 0 for c in series.coeffs.values())
        assert series.eval(1) == fact_ring_rank(dvec)


def test_flag_poincare_factors_through_grassmannians():
    # Forgetting the steps of a flag one at a time is a tower of Grassmannian
    # bundles, so each step contributes one Grassmannian factor.
    for n in range(1, 7):
        for k in range(1, n):
            for chain in combinations(range(1, n), k):
                product = HilbertSeries.one()
                for prev, q in zip((0,) + chain, chain):
                    product = product * flag_poincare((q - prev, n - q))
                blocks = tuple(b - a for a, b in zip((0,) + chain, chain + (n,)))
                assert product == flag_poincare(blocks), chain


def test_fact_ring_rank():
    assert fact_ring_rank((2, 2)) == 6
    assert fact_ring_rank((1, 1, 1)) == 6
    assert fact_ring_rank((0, 3)) == 1


def test_ci_codim():
    assert ci_codim(1, 1, 3, 1, 0) == 2
    assert ci_codim(0, 0, 1, 0, 0) == 0
    with pytest.raises(PreconditionError, match="complete intersection"):
        ci_codim(2, 2, 3, 0, 0)
    with pytest.raises(ValueError):
        ci_codim(-1, 0, 1, 0, 0)
