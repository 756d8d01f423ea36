"""Virtual characters of GL(m) x GL(n) and Littlewood-Richardson arithmetic."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, Tuple

from .errors import SuperbottError
from .partitions import (
    Partition,
    SkewShape,
    contains,
    dominates,
    partitions_of,
    row_sum,
)

# A GL(m) weight is a weakly decreasing integer tuple of length m.
GLWeight = Tuple[int, ...]


def pad_weight(lam: Partition, m: int) -> GLWeight:
    """Partition as a dominant GL(m) weight, padded with zeros."""
    if lam.length > m:
        raise ValueError(f"partition {lam} too long for rank {m}")
    return tuple(lam.part(i) for i in range(m))


def dual_weight(w: GLWeight) -> GLWeight:
    """Highest weight of the dual irrep: negate and reverse."""
    return tuple(-x for x in reversed(w))


def weyl_dim(w: GLWeight) -> int:
    """Dimension of the GL(m) irrep with highest weight w."""
    m = len(w)
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= w[i] - w[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise SuperbottError(f"Weyl dimension of {w} is not an integer")
    return dim


@lru_cache(maxsize=None)
def _lr_count(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Count LR skew tableaux of shape nu/lam with content mu.

    Cells are filled row by row, right to left within each row, which is
    exactly the reverse reading word order used for the lattice condition.
    """
    nrows = nu.length
    grid = [[0] * nu.part(r) for r in range(nrows)]
    cells = []
    for r in range(nrows):
        for c in range(nu.part(r) - 1, lam.part(r) - 1, -1):
            cells.append((r, c))
    counts = [0] * mu.length

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        total = 0
        for v in range(1, mu.length + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 2] <= counts[v - 1]:
                continue  # lattice word prefix condition
            if c + 1 < nu.part(r) and v > grid[r][c + 1]:
                continue  # rows weakly increase
            if r > 0 and c >= lam.part(r - 1) and v <= grid[r - 1][c]:
                continue  # columns strictly increase
            grid[r][c] = v
            counts[v - 1] += 1
            total += fill(k + 1)
            counts[v - 1] -= 1
            grid[r][c] = 0
        return total

    return fill(0)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: multiplicity of S_nu in S_lam x S_mu."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size + mu.size != nu.size:
        return 0
    if not contains(lam, nu) or not contains(mu, nu):
        return 0
    if not dominates(row_sum(lam, mu), nu):
        return 0
    if not mu:
        return 1
    return _lr_count(lam, mu, nu)


def _containing_partitions(lam: Partition, total: int, max_length: int, max_part: int) -> Iterator[Partition]:
    """Partitions of the given size containing lam, within the bounds."""
    if total < lam.size:
        return

    def rec(i: int, rem: int, prev: int, acc: list[int]) -> Iterator[Partition]:
        if rem == 0:
            if lam.part(i) == 0:
                yield Partition(acc)
            return
        if i >= max_length:
            return
        hi = min(prev, max_part, rem)
        lo = max(lam.part(i), 1)
        for v in range(hi, lo - 1, -1):
            acc.append(v)
            yield from rec(i + 1, rem - v, v, acc)
            acc.pop()

    yield from rec(0, total, max_part, [])


def schur_product(lam: Partition, mu: Partition, max_length: int) -> Dict[Partition, int]:
    """Decompose S_lam x S_mu, keeping shapes with at most max_length rows."""
    lam, mu = Partition(lam), Partition(mu)
    out: Dict[Partition, int] = {}
    cap = lam.part(0) + mu.part(0)
    for nu in _containing_partitions(lam, lam.size + mu.size, max_length, cap):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out


def skew_expand(shape: SkewShape) -> Dict[Partition, int]:
    """Expand a skew Schur functor into straight shapes via LR coefficients."""
    outer, inner = shape.outer, shape.inner
    out: Dict[Partition, int] = {}
    for nu in partitions_of(shape.size, max_length=outer.length, max_part=outer.part(0)):
        c = lr_coefficient(inner, nu, outer)
        if c:
            out[nu] = c
    return out


@lru_cache(maxsize=None)
def _rational_tensor_cached(a: GLWeight, b: GLWeight) -> Tuple[Tuple[GLWeight, int], ...]:
    m = len(a)
    if m == 0:
        return (((), 1),)
    ka = max(0, -a[-1])
    kb = max(0, -b[-1])
    la = Partition(x + ka for x in a)
    lb = Partition(x + kb for x in b)
    shift = ka + kb
    out = []
    for nu, c in schur_product(la, lb, m).items():
        out.append((tuple(nu.part(i) - shift for i in range(m)), c))
    return tuple(out)


def rational_tensor(a: GLWeight, b: GLWeight) -> Dict[GLWeight, int]:
    """Tensor product of two rational GL(m) irreps by highest weight.

    Both weights are shifted by a multiple of (1,...,1) to land in the
    polynomial range, multiplied there, and shifted back; the result does
    not depend on the shift.
    """
    if len(a) != len(b):
        raise ValueError("rank mismatch")
    return dict(_rational_tensor_cached(tuple(a), tuple(b)))


class VirtualCharacter:
    """Finitely supported integer combination of GL(m) x GL(n) irreps.

    Keys are pairs (w0, w1) of dominant weights; multiplicities may be
    negative (Euler characteristics are signed sums).
    """

    __slots__ = ("m", "n", "terms")

    def __init__(self, m: int, n: int, terms: Dict[Tuple[GLWeight, GLWeight], int] | None = None):
        self.m = m
        self.n = n
        self.terms: Dict[Tuple[GLWeight, GLWeight], int] = {}
        if terms:
            for key, mult in terms.items():
                self.add_term(key, mult)

    def add_term(self, key: Tuple[GLWeight, GLWeight], mult: int) -> None:
        w0, w1 = key
        if len(w0) != self.m or len(w1) != self.n:
            raise ValueError("rank mismatch")
        new = self.terms.get(key, 0) + mult
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def _check(self, other: "VirtualCharacter") -> None:
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("rank mismatch")

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        self._check(other)
        out = VirtualCharacter(self.m, self.n, dict(self.terms))
        for key, mult in other.terms.items():
            out.add_term(key, mult)
        return out

    def scale(self, k: int) -> "VirtualCharacter":
        if k == 0:
            return VirtualCharacter(self.m, self.n)
        return VirtualCharacter(self.m, self.n, {key: k * mult for key, mult in self.terms.items()})

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return self + other.scale(-1)

    def __mul__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        """Tensor product, decomposed blockwise via rational_tensor."""
        self._check(other)
        out = VirtualCharacter(self.m, self.n)
        for (a0, a1), c1 in self.terms.items():
            for (b0, b1), c2 in other.terms.items():
                for w0, c3 in rational_tensor(a0, b0).items():
                    for w1, c4 in rational_tensor(a1, b1).items():
                        out.add_term((w0, w1), c1 * c2 * c3 * c4)
        return out

    def dual(self) -> "VirtualCharacter":
        return VirtualCharacter(
            self.m,
            self.n,
            {(dual_weight(w0), dual_weight(w1)): c for (w0, w1), c in self.terms.items()},
        )

    def total_dim(self) -> int:
        return sum(c * weyl_dim(w0) * weyl_dim(w1) for (w0, w1), c in self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return self.terms.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"VirtualCharacter(m={self.m}, n={self.n}, terms={self.terms!r})"

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json_obj(self) -> list:
        return [
            {"w0": list(w0), "w1": list(w1), "mult": c}
            for (w0, w1), c in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, m: int, n: int, obj: list) -> "VirtualCharacter":
        out = cls(m, n)
        for entry in obj:
            out.add_term((tuple(entry["w0"]), tuple(entry["w1"])), int(entry["mult"]))
        return out


def external_product(a: VirtualCharacter, b: VirtualCharacter) -> VirtualCharacter:
    """Combine a GL(m) character and a GL(n) character into one over the product."""
    if a.n != 0 or b.n != 0:
        raise ValueError("external_product expects single-group characters")
    out = VirtualCharacter(a.m, b.m)
    for (w0, _), c1 in a.terms.items():
        for (w1, _), c2 in b.terms.items():
            out.add_term((w0, w1), c1 * c2)
    return out


class GradedCharacter:
    """Map from cohomological degree to VirtualCharacter, all of one rank pair."""

    __slots__ = ("m", "n", "by_degree")

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.by_degree: Dict[int, VirtualCharacter] = {}

    def add_term(self, degree: int, key: Tuple[GLWeight, GLWeight], mult: int) -> None:
        vc = self.by_degree.get(degree)
        if vc is None:
            vc = VirtualCharacter(self.m, self.n)
            self.by_degree[degree] = vc
        vc.add_term(key, mult)
        if vc.is_zero():
            del self.by_degree[degree]

    def add_char(self, degree: int, char: VirtualCharacter, mult: int = 1) -> None:
        for key, c in char.items():
            self.add_term(degree, key, c * mult)

    def degree(self, k: int) -> VirtualCharacter:
        return self.by_degree.get(k, VirtualCharacter(self.m, self.n))

    def degrees(self) -> list[int]:
        return sorted(self.by_degree)

    def total_dim(self) -> int:
        return sum(vc.total_dim() for vc in self.by_degree.values())

    def euler_characteristic(self) -> VirtualCharacter:
        out = VirtualCharacter(self.m, self.n)
        for deg, vc in self.by_degree.items():
            sign = -1 if deg % 2 else 1
            for key, c in vc.items():
                out.add_term(key, sign * c)
        return out

    def has_odd_support(self) -> bool:
        return any(deg % 2 for deg in self.by_degree)

    def is_zero(self) -> bool:
        return not self.by_degree

    def diff(self, other: "GradedCharacter") -> Dict[int, VirtualCharacter]:
        """Per-degree difference self - other, with zero degrees dropped."""
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("rank mismatch")
        out: Dict[int, VirtualCharacter] = {}
        for deg in set(self.by_degree) | set(other.by_degree):
            d = self.degree(deg) - other.degree(deg)
            if not d.is_zero():
                out[deg] = d
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.by_degree == other.by_degree

    def __repr__(self) -> str:
        return f"GradedCharacter(m={self.m}, n={self.n}, degrees={self.degrees()!r})"

    def to_json_obj(self) -> dict:
        return {str(deg): self.by_degree[deg].to_json_obj() for deg in self.degrees()}
