"""Virtual characters of GL(m) x GL(n) and Littlewood-Richardson arithmetic."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import prod
from operator import neg
from typing import Dict, Iterable, Tuple

from .errors import SuperbottError
from .partitions import Partition, SkewShape, _trusted, contains

# A GL(m) weight is a weakly decreasing integer tuple of length m.
GLWeight = Tuple[int, ...]


def pad_weight(lam: Partition, m: int) -> GLWeight:
    """Partition as a dominant GL(m) weight, padded with zeros."""
    if lam.length > m:
        raise ValueError(f"partition {lam} too long for rank {m}")
    return tuple(lam.part(i) for i in range(m))


def dual_weight(w: GLWeight) -> GLWeight:
    """Highest weight of the dual irrep: negate and reverse."""
    return tuple(map(neg, w[::-1]))


def weyl_dim(w: GLWeight) -> int:
    """Dimension of the GL(m) irrep with highest weight w.

    Weyl's product of (w_i - w_j + j - i) / (j - i) over i < j, taken run
    by run: inside a run of equal entries every factor is 1, and a row i
    above a run on rows [s, e) with d = w_i - w_s gives the factors
    (d + t) / t for t from s - i to e - i - 1.
    """
    m = len(w)
    bounds = [s for s in range(1, m) if w[s] != w[s - 1]] + [m]
    num = den = 1
    for s, e in zip(bounds, bounds[1:]):
        for i in range(s):
            d = w[i] - w[s]
            num *= prod(d + t for t in range(s - i, e - i))
            den *= prod(range(s - i, e - i))
    dim, rem = divmod(num, den)
    if rem:
        raise SuperbottError(f"Weyl dimension of {w} is not an integer")
    return dim


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: multiplicity of S_nu in S_lam x S_mu.

    c^nu_{lam, mu} is read as the s_mu entry of the expansion of nu/lam.
    """
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size + mu.size != nu.size:
        return 0
    # _lr_count needs lam inside nu; mu inside nu spares a skew search that
    # can only give 0
    if not contains(lam, nu) or not contains(mu, nu):
        return 0
    for x, c in _lr_count(nu, lam):
        if x == mu:
            return c
    return 0


def _add_strip(
    shape: Tuple[int, ...],
    prev: Tuple[int, ...] | None,
    k: int,
    max_length: int,
    mult: int,
    into: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int],
) -> None:
    """Add every labelled horizontal strip of k cells to shape, counted in into.

    prev holds the row counts of the previous label (None for the first);
    the lattice rule caps the cells of this label in rows <= r by the cells
    of the previous label in rows < r.
    """
    rows = min(len(shape) + 1, max_length)
    old = shape + (0,)
    # cells of the previous label in rows < r; a strip adds at most one row,
    # so this covers every r < rows
    above = list(accumulate(prev, initial=0)) if prev is not None else None
    counts = [0] * rows
    lows = [0] * rows
    floor = old[rows - 1]
    # a depth-first walk over rows, c descending from its cap in each row;
    # lows[r] is the least c that row r may take
    r, left = 0, k
    while True:
        if left == 0:
            new = [old[s] + counts[s] for s in range(rows)]
            if new[-1] == 0:
                new.pop()
            key = (tuple(new), tuple(counts))
            into[key] = into.get(key, 0) + mult
        elif r < rows:
            cap = left
            if above is not None:
                cap = min(cap, above[r] - (k - left))  # lattice rule
            if r:
                cap = min(cap, old[r - 1] - old[r])  # horizontal strip
            # the rows below r take at most old[r] - floor cells
            lo = max(left - (old[r] - floor), 0) if r + 1 < rows else left
            if cap >= lo:
                counts[r], lows[r] = cap, lo
                left -= cap
                r += 1
                continue
        # back up to the deepest row that can take one cell fewer
        while r:
            r -= 1
            if counts[r] > lows[r]:
                counts[r] -= 1
                left += 1
                r += 1
                break
            left += counts[r]
            counts[r] = 0
        else:
            return


def schur_product(lam: Partition, mu: Partition, max_length: int) -> Dict[Partition, int]:
    """Decompose S_lam x S_mu, keeping shapes with at most max_length rows.

    One search builds every LR tableau of shape nu/lam and content mu, one
    label at a time: the cells labelled i+1 are a horizontal strip added
    to the shape reached after label i (no new row longer than the old row
    above it), and they obey the lattice rule row by row (the cells
    labelled i+1 in rows <= r number at most the cells labelled i in rows
    < r).  Partial tableaux that agree on their shape and on the row counts
    of their last label have the same completions, so they are counted
    together.  Each nu the search ends on carries c^nu_{lam, mu}.
    """
    lam, mu = Partition(lam), Partition(mu)
    if lam.length > max_length:
        return {}
    states = {(tuple(lam), None): 1}
    for k in mu:
        nxt: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
        for (shape, prev), mult in states.items():
            _add_strip(shape, prev, k, max_length, mult, nxt)
        states = nxt
    out: Dict[Tuple[int, ...], int] = {}
    for (shape, _), mult in states.items():
        out[shape] = out.get(shape, 0) + mult
    # each strip keeps the shape a partition, and _add_strip drops an empty last row
    return {_trusted(nu): c for nu, c in out.items()}


@lru_cache(maxsize=4096)
def _lr_count(outer: Partition, inner: Partition) -> Tuple[Tuple[Partition, int], ...]:
    """Count the LR tableaux of outer/inner by content: pairs (nu, c^outer_{inner, nu}).

    Cells are filled in reverse reading order (rows top to bottom, each row
    right to left) with free content: rows weakly increase, columns strictly
    increase, and the reading word is a lattice word (each label i+1 is
    preceded by more i's than i+1's).  Inner must lie inside outer.  The
    search is one loop, not a recursion, so no shape is too long for it: each
    cell takes the next admissible label above the one it held last, or is
    cleared and the search backs up a cell; tops[k] is the largest label of
    the first k cells.  Callers:
    ``skew_expand``, ``lr_coefficient`` and superschur's ``_lr_pairs`` and
    ``_skew_super_char``; perfbench's layer trace reads this function and
    its cache by this name.
    """
    cells = [(r, c) for r in range(outer.length) for c in range(outer[r] - 1, inner.part(r) - 1, -1)]
    n = len(cells)
    grid = [[0] * outer[r] for r in range(outer.length)]
    content = [0] * (outer.length + 1)
    tops = [0] * (n + 1)
    tally: Dict[Tuple[int, ...], int] = {}
    k = 0
    while k >= 0:
        if k == n:
            key = tuple(content[: tops[n]])
            tally[key] = tally.get(key, 0) + 1
            k -= 1
            continue
        r, c = cells[k]
        row = grid[r]
        v = row[c]
        if v:
            content[v - 1] -= 1
        elif r and c >= inner.part(r - 1):
            v = grid[r - 1][c]  # columns strictly increase
        v += 1
        hi = row[c + 1] if c + 1 < outer[r] else tops[k] + 1  # rows weakly increase
        while 1 < v <= hi and content[v - 2] <= content[v - 1]:
            v += 1  # lattice word
        if v > hi:
            row[c] = 0
            k -= 1
        else:
            row[c] = v
            content[v - 1] += 1
            tops[k + 1] = max(tops[k], v)
            k += 1
    # a lattice word's content is weakly decreasing and positive up to tops[n]
    return tuple((_trusted(nu), c) for nu, c in tally.items())


def skew_expand(shape: SkewShape) -> Dict[Partition, int]:
    """Expand a skew Schur functor into straight shapes via LR coefficients.

    The expansion depends on the shape alone, so ``_lr_count`` memoizes it
    across calls, for the 4096 most recently used (outer, inner) pairs; each
    call returns a fresh dict.
    """
    return dict(_lr_count(shape.outer, shape.inner))


@lru_cache(maxsize=4096)
def _rational_tensor_cached(a: GLWeight, b: GLWeight) -> Tuple[Tuple[GLWeight, int], ...]:
    """Terms of ``rational_tensor(a, b)``, memoized by the raw weights.

    On a miss each weight is shifted by its last entry to end in 0, the
    product of the shifted pair is read from ``_polynomial_product`` and
    shifted back.  perfbench's layer trace reads this memo by this name.
    """
    if not a:
        return (((), 1),)
    s, t = a[-1], b[-1]
    a0 = tuple(x - s for x in a)
    b0 = tuple(x - t for x in b)
    # one entry per unordered pair; the search grows with the content,
    # so the smaller shape goes second
    if (sum(b0), b0) > (sum(a0), a0):
        a0, b0 = b0, a0
    poly = _polynomial_product(a0, b0)
    if not s + t:
        return poly
    return tuple((tuple(x + s + t for x in w), c) for w, c in poly)


@lru_cache(maxsize=4096)
def _polynomial_product(a: GLWeight, b: GLWeight) -> Tuple[Tuple[GLWeight, int], ...]:
    """Terms of ``rational_tensor(a, b)`` for two weights that end in 0,
    the first of them the larger: one LR product of the two shapes, cut to
    rank len(a) and padded to it.
    """
    m = len(a)
    product = schur_product(Partition(a), Partition(b), m)
    return tuple((nu + (0,) * (m - nu.length), c) for nu, c in product.items())


def rational_tensor(a: GLWeight, b: GLWeight) -> Dict[GLWeight, int]:
    """Tensor product of two rational GL(m) irreps by highest weight.

    Each weight is shifted by its last entry to end in 0, a partition
    padded to rank m; the two are multiplied there and the product is
    shifted back by the sum of the two last entries, since V_a x V_b =
    det^(s+t) x (V_(a-s) x V_(b-t)) (Fulton-Harris 15.5).  The polynomial
    products are memoized per unordered pair of shifted weights, so pairs
    that differ only by shifts share one LR product.
    """
    if len(a) != len(b):
        raise ValueError("rank mismatch")
    return dict(_rational_tensor_cached(tuple(a), tuple(b)))


def _merge(terms: Dict[Tuple[GLWeight, GLWeight], int], other: Dict[Tuple[GLWeight, GLWeight], int], mult: int) -> None:
    """Add mult times the terms of other into terms, dropping zeros."""
    for key, c in other.items():
        new = terms.get(key, 0) + c * mult
        if new:
            terms[key] = new
        else:
            terms.pop(key, None)


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

    @classmethod
    def _trusted(cls, m: int, n: int, terms: Dict[Tuple[GLWeight, GLWeight], int]) -> "VirtualCharacter":
        """A character over terms that internal code built with ranks (m, n)
        and no zero multiplicity, checking the ranks of one key only; the
        dict is taken, not copied.
        """
        for w0, w1 in terms:
            if len(w0) != m or len(w1) != n:
                raise ValueError("rank mismatch")
            break
        out = cls.__new__(cls)
        out.m, out.n, out.terms = m, n, terms
        return out

    def add_term(self, key: Tuple[GLWeight, GLWeight], mult: int) -> None:
        w0, w1 = key
        if len(w0) != self.m or len(w1) != self.n:
            raise ValueError("rank mismatch")
        _merge(self.terms, {key: mult}, 1)

    def _check(self, other: "VirtualCharacter") -> None:
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("rank mismatch")

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        self._check(other)
        out = VirtualCharacter(self.m, self.n)
        out.terms = dict(self.terms)
        _merge(out.terms, other.terms, 1)
        return out

    def scale(self, k: int) -> "VirtualCharacter":
        out = VirtualCharacter(self.m, self.n)
        if k:
            out.terms = {key: k * mult for key, mult in self.terms.items()}
        return out

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return self + other.scale(-1)

    def __mul__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        """Tensor product, decomposed blockwise by the memoized rational tensor products."""
        self._check(other)
        terms: Dict[Tuple[GLWeight, GLWeight], int] = {}
        for (a0, a1), c1 in self.terms.items():
            for (b0, b1), c2 in other.terms.items():
                odd = _rational_tensor_cached(a1, b1)
                for w0, c3 in _rational_tensor_cached(a0, b0):
                    c123 = c1 * c2 * c3
                    for w1, c4 in odd:
                        key = (w0, w1)
                        terms[key] = terms.get(key, 0) + c123 * c4
        return VirtualCharacter._trusted(self.m, self.n, {k: c for k, c in terms.items() if c})

    def dual(self) -> "VirtualCharacter":
        return VirtualCharacter._trusted(
            self.m,
            self.n,
            {(dual_weight(w0), dual_weight(w1)): c for (w0, w1), c in self.terms.items()},
        )

    def total_dim(self) -> int:
        return _total_dim((self,))

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


def _total_dim(chars: Iterable[VirtualCharacter]) -> int:
    """Sum of mult * dim(w0) * dim(w1) over every term of chars.

    Terms share few distinct weights, so each weight's ``weyl_dim`` is
    computed once per call.
    """
    dims: Dict[GLWeight, int] = {}
    total = 0
    for char in chars:
        for (w0, w1), c in char.terms.items():
            d0 = dims.get(w0)
            if d0 is None:
                d0 = dims[w0] = weyl_dim(w0)
            d1 = dims.get(w1)
            if d1 is None:
                d1 = dims[w1] = weyl_dim(w1)
            total += c * d0 * d1
    return total


def external_product(a: VirtualCharacter, b: VirtualCharacter) -> VirtualCharacter:
    """Combine a GL(m) character and a GL(n) character into one over the product."""
    if a.n != 0 or b.n != 0:
        raise ValueError("external_product expects single-group characters")
    return VirtualCharacter(
        a.m, b.m, {(w0, w1): c1 * c2 for (w0, _), c1 in a.terms.items() for (w1, _), c2 in b.terms.items()}
    )


class GradedCharacter:
    """Map from cohomological degree to VirtualCharacter, all of one rank pair."""

    __slots__ = ("m", "n", "by_degree")

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.by_degree: Dict[int, VirtualCharacter] = {}

    def add_term(self, degree: int, key: Tuple[GLWeight, GLWeight], mult: int) -> None:
        self.add_char(degree, VirtualCharacter(self.m, self.n, {key: mult}))

    def add_char(self, degree: int, char: VirtualCharacter, mult: int = 1) -> None:
        """Add mult times char in one degree; char's keys were rank-checked
        when it was built, so one check of its ranks covers them all.
        """
        if (char.m, char.n) != (self.m, self.n):
            raise ValueError("rank mismatch")
        if mult:
            self._add_terms(degree, {key: c * mult for key, c in char.terms.items()})

    def _add_terms(self, degree: int, terms: Dict[Tuple[GLWeight, GLWeight], int]) -> None:
        """Add terms that internal code built with this character's ranks and
        no zero multiplicity in one degree; a new degree takes the dict, not
        a copy, and an existing one merges it.
        """
        vc = self.by_degree.get(degree)
        if vc is None:
            if terms:
                self.by_degree[degree] = VirtualCharacter._trusted(self.m, self.n, terms)
            return
        _merge(vc.terms, terms, 1)
        if vc.is_zero():
            del self.by_degree[degree]

    def degree(self, k: int) -> VirtualCharacter:
        return self.by_degree.get(k, VirtualCharacter(self.m, self.n))

    def degrees(self) -> list[int]:
        return sorted(self.by_degree)

    def total_dim(self) -> int:
        return _total_dim(self.by_degree.values())

    def euler_characteristic(self) -> VirtualCharacter:
        out = VirtualCharacter(self.m, self.n)
        for deg, vc in self.by_degree.items():
            _merge(out.terms, vc.terms, -1 if deg % 2 else 1)
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
        mine, theirs = self.by_degree, other.by_degree
        for deg in set(mine) | set(theirs):
            if deg not in theirs:
                terms = dict(mine[deg].terms)
            elif deg not in mine:
                terms = {key: -c for key, c in theirs[deg].terms.items()}
            else:
                terms = dict(mine[deg].terms)
                _merge(terms, theirs[deg].terms, -1)
            if terms:
                out[deg] = VirtualCharacter._trusted(self.m, self.n, terms)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.by_degree == other.by_degree

    def __repr__(self) -> str:
        return f"GradedCharacter(m={self.m}, n={self.n}, degrees={self.degrees()!r})"

    def to_json_obj(self) -> dict:
        return {str(deg): self.by_degree[deg].to_json_obj() for deg in self.degrees()}
