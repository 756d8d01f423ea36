import sys

import pytest

from superbott.characters import schur_product, skew_expand
from superbott.partitions import (
    Partition,
    SkewShape,
    contains,
    dominates,
    partitions_in_box,
    partitions_of,
    row_sum,
    subpartitions,
)


def test_construction_strips_trailing_zeros():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))
    assert Partition() == ()
    assert Partition((0, 0)) == Partition()


def test_construction_strips_many_trailing_zeros_at_once():
    assert Partition((1,) + (0,) * 50000) == Partition((1,))


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(ValueError):
        Partition([2, 3])
    with pytest.raises(ValueError):
        Partition([1, -1])


def test_partition_is_a_tuple_without_instance_dict():
    # __slots__ = () keeps a shape as small as the tuple of its parts
    lam = Partition((2, 1))
    assert sys.getsizeof(lam) == sys.getsizeof((2, 1))
    assert not hasattr(lam, "__dict__")


def test_size_length_part():
    lam = Partition((4, 2, 1))
    assert lam.size == 7
    assert lam.length == 3
    assert lam.part(0) == 4
    assert lam.part(5) == 0


def test_transpose_involution():
    for lam in partitions_of(6):
        assert lam.transpose().transpose() == lam
    assert Partition((3, 1)).transpose() == Partition((2, 1, 1))
    assert Partition().transpose() == Partition()


def test_str_and_parse_roundtrip():
    for lam in [Partition(), Partition((3, 1)), Partition((2, 2, 2))]:
        assert Partition.parse(str(lam)) == lam
    assert str(Partition((3, 1))) == "[3,1]"
    with pytest.raises(ValueError):
        Partition.parse("3,1")
    with pytest.raises(ValueError):
        Partition.parse("[a]")
    with pytest.raises(ValueError):
        Partition.parse("[1,x]")


def test_contains():
    assert contains(Partition((2, 1)), Partition((3, 1)))
    assert not contains(Partition((2, 2)), Partition((3, 1)))
    assert contains(Partition(), Partition((5,)))


def test_dominance():
    assert dominates(Partition((3, 1)), Partition((2, 2)))
    assert not dominates(Partition((2, 2)), Partition((3, 1)))
    assert dominates(Partition((2, 2)), Partition((2, 1, 1)))
    with pytest.raises(ValueError, match="incomparable sizes"):
        dominates(Partition((2,)), Partition((1,)))


def test_dominance_refines_reverse_lex_on_small_sizes():
    # dominance implies the partial sums inequality at every prefix
    for n in range(1, 7):
        shapes = list(partitions_of(n))
        for a in shapes:
            for b in shapes:
                if dominates(a, b) and dominates(b, a):
                    assert a == b


def test_row_sum():
    assert row_sum(Partition((2, 1)), Partition((1, 1, 1))) == Partition((3, 2, 1))


def test_skew_shape_validation():
    s = SkewShape(Partition((3, 2)), Partition((1,)))
    assert s.size == 4
    with pytest.raises(ValueError):
        SkewShape(Partition((1,)), Partition((2,)))


def test_partitions_of_counts():
    # p(n) for n = 0..8
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        assert sum(1 for _ in partitions_of(n)) == count
    assert list(partitions_of(-1)) == []


def test_partitions_of_bounds():
    got = set(partitions_of(4, max_length=2, max_part=3))
    assert got == {Partition((3, 1)), Partition((2, 2))}


def test_partitions_in_box():
    got = list(partitions_in_box(2, 2))
    assert len(got) == 6  # binomial(4, 2)
    assert got[0] == Partition()
    assert Partition((2, 2)) in got


def test_subpartitions():
    got = set(subpartitions(Partition((2, 1))))
    assert got == {
        Partition(),
        Partition((1,)),
        Partition((2,)),
        Partition((1, 1)),
        Partition((2, 1)),
    }


def test_enumerations_run_in_decreasing_order_without_recursion():
    # Both enumerations yield in decreasing tuple order, a shape before its
    # prefixes; callers build ordered dicts from them, so the order is part
    # of the contract.  They are loops, so 1000 rows are no deeper than one.
    for n in range(9):
        for max_length in range(n + 2):
            for max_part in range(n + 2):
                got = list(partitions_of(n, max_length, max_part))
                assert got == sorted(set(got), reverse=True)
                assert all(lam.length <= max_length and lam.part(0) <= max_part for lam in got)
        for lam in partitions_of(n):
            got = list(subpartitions(lam))
            assert got == sorted(set(got), reverse=True)
            assert all(contains(mu, lam) for mu in got)
    column = Partition((1,) * 1000)
    assert list(partitions_of(1000, max_part=1)) == [column]
    assert list(subpartitions(column)) == [Partition((1,) * k) for k in range(1000, -1, -1)]


def test_internally_built_shapes_are_valid_partitions():
    lam = Partition((3, 1))
    assert Partition(lam) is lam

    def check(shape):
        assert type(shape) is Partition
        # re-validation raises on a bad shape and strips trailing zeros
        assert shape == Partition(tuple(shape))

    for n in range(9):
        for shape in partitions_of(n):
            check(shape)
            check(shape.transpose())
            if n:
                subs = list(subpartitions(shape))
                for sub in subs:
                    check(sub)
                box = partitions_in_box(shape.length, shape[0])
                assert len(subs) == len(set(subs))
                assert set(subs) == {mu for mu in box if contains(mu, shape)}
                if n <= 6:
                    for inner in subs:
                        for nu in skew_expand(SkewShape(shape, inner)):
                            check(nu)
            for mu in partitions_of(min(n, 3)):
                for nu in schur_product(shape, mu, 3):
                    check(nu)
    for rows in range(5):
        for cols in range(5):
            for shape in partitions_in_box(rows, cols):
                check(shape)
