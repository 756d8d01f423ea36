"""Integer partitions: shapes, transpose, containment, dominance, skew shapes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Trailing zeros are stripped on construction so that equal shapes are
    equal as hash keys. The empty partition is ``Partition()``. A Partition
    passed in is returned as it is, since it was validated when made.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
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


@dataclass(frozen=True)
class SkewShape:
    """A skew shape outer/inner with inner contained in outer."""

    outer: Partition
    inner: Partition

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", Partition(self.outer))
        object.__setattr__(self, "inner", Partition(self.inner))
        if not contains(self.inner, self.outer):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"


def partitions_of(n: int, max_length: int | None = None, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with the given bounds, in lex-decreasing order."""
    if max_length is None:
        max_length = n
    if max_part is None:
        max_part = n
    if n < 0:
        return
    if n == 0:
        yield Partition()
        return

    def rec(remaining: int, prev: int, rows_left: int, acc: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield _trusted(acc)
            return
        if rows_left == 0:
            return
        for v in range(min(prev, remaining), 0, -1):
            if v * rows_left < remaining:
                break
            acc.append(v)
            yield from rec(remaining - v, v, rows_left - 1, acc)
            acc.pop()

    yield from rec(n, max_part, max_length, [])


def partitions_in_box(rows: int, cols: int) -> Iterator[Partition]:
    """All partitions fitting in a rows x cols box, the empty one first."""
    for n in range(rows * cols + 1):
        yield from partitions_of(n, max_length=rows, max_part=cols)


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """All partitions contained in lam."""
    lam = Partition(lam)

    def rec(i: int, prev: int, acc: list[int]) -> Iterator[Partition]:
        if i < len(lam):
            for v in range(min(prev, lam[i]), 0, -1):
                acc.append(v)
                yield from rec(i + 1, v, acc)
                acc.pop()
        # rows i and below empty: the shape ends here, with no zero rows
        yield _trusted(acc)

    yield from rec(0, lam[0] if lam else 0, [])
