"""Inputs of the four workloads, made from the seed alone.

Everything here is plain tuples and integers computed by the benchmark
itself or read from its own files, so that a change to the program cannot
change which inputs a seed selects.  Each seeded workload draws from a
fixed pool whose outputs are pinned in ``pins.json``; the draw keeps the
pool's size distribution fixed so that every seed carries the same work:

- the pool is sorted by the measured cost of each item (``costs.json``,
  written by ``make_pins.py`` together with the pins);
- ``census`` items at the expensive end are always taken;
- of every further block of ``block`` consecutive items, the seed picks one.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

Shape = Tuple[int, ...]

COSTS = Path(__file__).resolve().parent / "costs.json"

WORKLOADS = ("e1-ladder", "verify-grid", "closed-form", "oracle-check")

# (P,Q), (M,N), alpha, beta of `superbott --output json e1`: three CASE1
# rungs of growing size and the CASE2 mirror of the second one.
LADDER: Tuple[Tuple[Tuple[int, int], Tuple[int, int], Shape, Shape], ...] = (
    ((2, 1), (9, 4), (2, 1), (1,)),
    ((3, 2), (12, 6), (2, 1), (1,)),
    ((2, 4), (6, 14), (2, 1), (1,)),
    ((4, 2), (14, 6), (2, 2), (1, 1)),
)

GRID_MAX_DIM = 7  # m, n <= 7
GRID_MAX_SIZE = 3  # |alpha|, |beta| <= 3
GRID_BLOCK = 3  # about 3070 of the 9210 grid bundles per pass

CLOSED_FORM_ALPHA = range(6, 11)  # |alpha| 6..10
CLOSED_FORM_BETA = range(4, 9)  # |beta| 4..8
CLOSED_FORM_PER_CELL = 40  # pool items per (|alpha|, |beta|) cell
CLOSED_FORM_CENSUS = 300
CLOSED_FORM_BLOCK = 3

ORACLE_MAX_SIZE = 5  # 1 <= |lam|, |mu| <= 5
ORACLE_MAX_PROXY = 40_000  # drops the pairs that take seconds each
ORACLE_CENSUS = 80
ORACLE_BLOCK = 2

# Fixed rational points for the specialization oracle (no zero entries).
EVEN_POINTS = tuple(Fraction(i + 2, 2 * i + 3) for i in range(12))
ODD_POINTS = (Fraction(3, 7),)


def partitions_of(n: int) -> Iterator[Shape]:
    """Partitions of n in lex-decreasing order."""

    def rec(rem: int, cap: int) -> Iterator[Shape]:
        if rem == 0:
            yield ()
            return
        for v in range(min(rem, cap), 0, -1):
            for rest in rec(rem - v, v):
                yield (v,) + rest

    yield from rec(n, n)


def shapes_up_to(k: int) -> List[Shape]:
    return [lam for size in range(k + 1) for lam in partitions_of(size)]


def transpose(lam: Shape) -> Shape:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def ssyt_count(lam: Shape, nvars: int) -> int:
    """Semistandard tableaux of shape lam with entries <= nvars (hook-content)."""
    lam_t = transpose(lam)
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= nvars + j - i
            den *= row - j + lam_t[j] - i - 1
    return num // den


def _case(p: int, q: int, m: int, n: int, alpha: Shape, beta: Shape) -> str:
    """Branch of the main-theorem hypothesis: 'case1', 'case2' or ''."""
    if m - n - len(alpha) >= p - q >= len(beta):
        return "case1"
    if n - m - (alpha[0] if alpha else 0) >= q - p >= (beta[0] if beta else 0):
        return "case2"
    return ""


def _stratified(pool_costs: Sequence[int], rng: random.Random, block: int, census: int = 0) -> List[int]:
    """Indices drawn with a fixed size distribution, returned in pool order."""
    order = sorted(range(len(pool_costs)), key=lambda i: (pool_costs[i], i))
    cut = len(order) - census
    chosen = order[cut:]
    for start in range(0, cut, block):
        chosen.append(order[start + rng.randrange(min(block, cut - start))])
    return sorted(chosen)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _sample(workload: str, seed: int, block: int, census: int = 0) -> List[int]:
    with open(COSTS) as fh:
        costs = json.load(fh)[workload]
    if len(costs) != len(POOLS[workload]()):
        raise ValueError(f"costs.json does not match the {workload} pool; run make_pins.py")
    return _stratified(costs, _rng(workload, seed), block, census)


# --- verify-grid -----------------------------------------------------------


def grid_pool() -> List[Tuple[int, int, int, int, Shape, Shape]]:
    """CASE1 and CASE2 bundles (p, q, m, n, alpha, beta) with m, n <= 7."""
    shapes = shapes_up_to(GRID_MAX_SIZE)
    out = []
    for m in range(GRID_MAX_DIM + 1):
        for n in range(GRID_MAX_DIM + 1):
            for p in range(m + 1):
                for q in range(n + 1):
                    for alpha in shapes:
                        for beta in shapes:
                            if _case(p, q, m, n, alpha, beta):
                                out.append((p, q, m, n, alpha, beta))
    return out


def grid_sample(seed: int) -> List[int]:
    return _sample("verify-grid", seed, GRID_BLOCK)


# --- closed-form -----------------------------------------------------------


def closed_form_pool() -> List[Tuple[Shape, Shape, int, int]]:
    """Large (alpha, beta, m, n) with m at or above the complete-intersection bound."""
    rng = random.Random("closed-form-pool")
    out = []
    for a in CLOSED_FORM_ALPHA:
        alphas = list(partitions_of(a))
        for b in CLOSED_FORM_BETA:
            betas = list(partitions_of(b))
            for _ in range(CLOSED_FORM_PER_CELL):
                alpha = rng.choice(alphas)
                beta = rng.choice(betas)
                n = rng.choice((2, 3))
                m = len(alpha) + len(beta) - 1 + rng.randrange(3)
                out.append((alpha, beta, m, n))
    return out


def closed_form_sample(seed: int) -> List[int]:
    return _sample("closed-form", seed, CLOSED_FORM_BLOCK, CLOSED_FORM_CENSUS)


# --- oracle-check ----------------------------------------------------------


def _oracle_cost(lam: Shape, mu: Shape) -> int:
    """Monomials of s_lam * s_mu times the number of nu the oracle expands for
    (a proxy that bounds the pool; samples are stratified by measured cost)."""
    nvars = len(lam) + len(mu)
    return ssyt_count(lam, nvars) * ssyt_count(mu, nvars) * sum(1 for _ in partitions_of(sum(lam) + sum(mu)))


def oracle_pool() -> List[Tuple[Shape, Shape]]:
    shapes = [lam for lam in shapes_up_to(ORACLE_MAX_SIZE) if lam]
    return [(lam, mu) for lam in shapes for mu in shapes if _oracle_cost(lam, mu) <= ORACLE_MAX_PROXY]


def oracle_sample(seed: int) -> List[int]:
    return _sample("oracle-check", seed, ORACLE_BLOCK, ORACLE_CENSUS)


def oracle_dims(lam: Shape, mu: Shape) -> Tuple[int, int]:
    """Super dimension for the specialization check of one pair."""
    return len(lam) + len(mu), len(ODD_POINTS)


POOLS = {"verify-grid": grid_pool, "closed-form": closed_form_pool, "oracle-check": oracle_pool}
SAMPLES = {"verify-grid": grid_sample, "closed-form": closed_form_sample, "oracle-check": oracle_sample}
