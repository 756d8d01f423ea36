"""Integer partitions: shapes, transpose, containment, dominance, skew shapes."""

from __future__ import annotations

from itertools import count
from operator import index
from typing import Iterable, Iterator


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Trailing zeros are stripped on construction so that equal shapes are
    equal as hash keys. The empty partition is ``Partition()``. A Partition
    passed in is returned as it is, since it was validated when made.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts
        parts = tuple(map(index, parts))
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        parts = parts[:end]
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {parts}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def part(self, i: int) -> int:
        """Row i (0-indexed); rows past the end read as 0."""
        return self[i] if 0 <= i < len(self) else 0

    def transpose(self) -> "Partition":
        cols = [0] * (self[0] if self else 0)
        for p in self:
            for j in range(p):
                cols[j] += 1
        return _trusted(cols)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the bracket form, e.g. ``[3,1]`` or ``[]``.

        Text that is not a bracketed list of integers is a syntax error; a
        list that is not a partition raises the constructor's message.
        """
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"not a bracketed partition: {text!r}")
        body = text[1:-1].strip()
        if not body:
            return cls()
        try:
            parts = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise ValueError(f"not a bracketed partition: {text!r}") from exc
        return cls(parts)


def _trusted(parts: Iterable[int]) -> Partition:
    """A Partition from parts that internal code built weakly decreasing and
    positive, without validating them again.
    """
    return tuple.__new__(Partition, parts)


def contains(inner: Partition, outer: Partition) -> bool:
    """Inclusion order: inner_i <= outer_i for all rows."""
    return all(inner.part(i) <= outer.part(i) for i in range(len(inner)))


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order: partial sums of lam bound those of mu.

    Only defined for partitions of equal size.
    """
    if lam.size != mu.size:
        raise ValueError("incomparable sizes")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam.part(i)
        total_m += mu.part(i)
        if total_m > total_l:
            return False
    return True


def row_sum(lam: Partition, mu: Partition) -> Partition:
    """Componentwise sum of two partitions."""
    n = max(len(lam), len(mu))
    return Partition(lam.part(i) + mu.part(i) for i in range(n))


class _Value:
    """Base of the value classes: the fields are the ``__slots__``, set once
    by ``_init``, compared and hashed only within one exact type, and printed
    like a dataclass.  Assignment raises AttributeError unless a class
    restores ``object.__setattr__``.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class _HashCons:
    """One hash-consing table (Filliatre and Conchon, "Type-safe modular
    hash-consing", 2006): each distinct value gets one plain int id, so a
    memo keyed by values hashes ints, and a memo of ints and plain tuples
    is one the cyclic collector untracks.

    ``ids`` maps each value to its id and ``values`` each id back to its
    value.  Ids come from one counter for the whole package and are never
    reused.  A reader of the ids calls ``start()`` first; it clears the
    table, and every memo registered with ``holds``, only when the table
    has BOUND entries, so the table keeps at most BOUND ids plus those of
    one call and no running reader holds a cleared id.
    """

    __slots__ = ("ids", "values", "memos")

    BOUND = 4096
    _counter = count()

    def __init__(self) -> None:
        self.ids: dict = {}
        self.values: dict = {}
        self.memos: list = []

    def id(self, value: tuple) -> int:
        """The one id of ``value``, made on first use."""
        found = self.ids.get(value)
        if found is None:
            found = self.ids[value] = next(self._counter)
            self.values[found] = value
        return found

    def holds(self, memo):
        """Register a memo that is keyed by or returns ids; returns it."""
        self.memos.append(memo)
        return memo

    def start(self) -> None:
        """Called by each reader first: clear the table and its memos if it is full."""
        if len(self.values) >= self.BOUND:
            self.ids.clear()
            self.values.clear()
            for memo in self.memos:
                memo.cache_clear()


class SkewShape(_Value):
    """A skew shape outer/inner with inner contained in outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition) -> None:
        self._init(Partition(outer), Partition(inner))
        if not contains(self.inner, self.outer):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"


def partitions_of(n: int, max_length: int | None = None, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with the given bounds, in lex-decreasing order.

    A loop, not a recursion, so any number of rows is fine.  Rows are filled
    greedily; after each partition the deepest row that can be lowered by
    one is lowered, and the rows below it are filled again.  A row of value
    v with ``rows_left`` rows from it down can complete the ``remaining``
    cells iff v * rows_left >= remaining, and a greedy fill never fails.
    """
    if max_length is None:
        max_length = n
    if max_part is None:
        max_part = n
    if n < 0:
        return
    if n == 0:
        yield Partition()
        return
    acc: list[int] = []
    remaining, rows_left, v = n, max_length, min(max_part, n)
    while True:
        if v >= 1 and v * rows_left >= remaining:
            while remaining:
                v = min(v, remaining)
                acc.append(v)
                remaining -= v
                rows_left -= 1
            yield _trusted(acc)
        while acc:
            v = acc.pop() - 1
            remaining += v + 1
            rows_left += 1
            if v >= 1 and v * rows_left >= remaining:
                break
        else:
            return


def partitions_in_box(rows: int, cols: int) -> Iterator[Partition]:
    """All partitions fitting in a rows x cols box, the empty one first."""
    for n in range(rows * cols + 1):
        yield from partitions_of(n, max_length=rows, max_part=cols)


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """All partitions contained in lam, in decreasing tuple order.

    So a shape comes before its prefixes.  A loop, not a recursion, so any
    number of rows is fine: every row below the last is filled with the
    largest value allowed; then the last row is lowered by one if it is
    above 1, or else dropped, which ends the shape one row higher.
    """
    lam = Partition(lam)
    acc: list[int] = []
    while True:
        while len(acc) < len(lam):
            acc.append(min(acc[-1], lam[len(acc)]) if acc else lam[0])
        yield _trusted(acc)
        while acc:
            v = acc.pop()
            if v > 1:
                acc.append(v - 1)
                break
            yield _trusted(acc)
        else:
            return
