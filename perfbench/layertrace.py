"""Per-layer counts and self times, taken from outside the program.

``install`` replaces every module attribute of the ``superbott`` package
that is bound to a traced function (the defining module, re-exports and
``from .x import y`` copies alike) with a wrapper, and patches the traced
methods on their classes.  Nothing under ``src/`` is edited.

Self time of a timed function is its wall time minus the time of the timed
functions it called.  Counted-only functions (the ones called about 10^5
times or more per operation) add no timer, so their time stays in the
self time of their caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, attribute or Class.method, stat, mode, outcome counted as "positive")
TARGETS = (
    ("bott", "bott", "bott", "timed", lambda r: r is not None),
    ("characters", "rational_tensor", "characters.rational_tensor", "timed", None),
    ("characters", "schur_product", "characters.schur_product", "timed", None),
    ("characters", "lr_coefficient", "characters.lr_coefficient", "timed", bool),
    ("characters", "_lr_count", "characters.lr_count", "timed", None),
    ("characters", "pad_weight", "characters.pad_dual", "counted", None),
    ("characters", "dual_weight", "characters.pad_dual", "counted", None),
    ("characters", "weyl_dim", "characters.weyl_dim", "timed", None),
    ("characters", "VirtualCharacter.add_term", "characters.add_term", "timed", None),
    ("characters", "GradedCharacter.add_term", "characters.add_term", "timed", None),
    ("partitions", "Partition.__new__", "partitions.new", "counted", None),
    ("partitions", "Partition.part", "partitions.part", "counted", None),
    ("partitions", "partitions_of", "partitions.enumerate", "generator", None),
    ("partitions", "partitions_in_box", "partitions.enumerate", "generator", None),
    ("partitions", "subpartitions", "partitions.enumerate", "generator", None),
    ("superschur", "super_schur_decompose", "superschur.super_schur_decompose", "timed", None),
    ("superschur", "rational_schur_char", "superschur.rational_schur_char", "timed", None),
    ("cohomology", "e1_page", "cohomology.e1_page", "timed", None),
    ("cohomology", "main_theorem_char", "cohomology.main_theorem_char", "timed", None),
    ("cohomology", "verify_main_theorem", "cohomology.verify_main_theorem", "timed", None),
    ("qseries", "flag_poincare", "qseries.flag_poincare", "timed", None),
    ("cli", "run", "cli.run", "timed", None),
    ("oracle", "lr_bruteforce", "oracle.lr_bruteforce", "timed", None),
    ("oracle", "schur_expand_bruteforce", "oracle.schur_expand_bruteforce", "counted", None),
    ("oracle", "specialize_character", "oracle.specialize_character", "timed", None),
)

# lru_caches whose hit and miss counts feed the metrics.
CACHES = (
    ("characters", "_rational_tensor_cached", "characters.rational_tensor"),
    ("characters", "_lr_count", "characters.lr_count"),
    ("oracle", "schur_monomials", "oracle.schur_monomials"),
)

# Counters that must repeat exactly between two traced passes on one seed.
EXACT_COUNTERS = (
    "bott.calls",
    "characters.rational_tensor.calls",
    "characters.lr_count.misses",
    "characters.add_term.calls",
    "partitions.part.calls",
    "oracle.lr_bruteforce.calls",
)


class Stat:
    __slots__ = ("calls", "self_s", "positive")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.positive = 0


class Tracer:
    """Holds the stats of one process; ``install`` starts the counting."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self._stack: List[List[float]] = []
        self._caches = {}
        self._cache_start = {}

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def counted(self, name: str, fn: Callable, outcome: Optional[Callable]) -> Callable:
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            result = fn(*args, **kwargs)
            if outcome is not None and outcome(result):
                stat.positive += 1
            return result

        return wrapper

    def timed(self, name: str, fn: Callable, outcome: Optional[Callable]) -> Callable:
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if outcome is not None and outcome(result):
                stat.positive += 1
            return result

        return wrapper

    def generator(self, name: str, fn: Callable, outcome: Optional[Callable]) -> Callable:
        """Time every resume of a generator; each call counts once."""
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            gen = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat.self_s += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every traced function of the imported ``superbott`` package."""
        for module_name, attr, name in CACHES:
            cache = getattr(importlib.import_module(f"superbott.{module_name}"), attr)
            self._caches[name] = cache
            self._cache_start[name] = cache.cache_info()
        for module_name, attr, stat, mode, outcome in TARGETS:
            module = importlib.import_module(f"superbott.{module_name}")
            make = getattr(self, mode)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, staticmethod):
                    setattr(cls, meth, staticmethod(make(stat, original.__func__, outcome)))
                else:
                    setattr(cls, meth, make(stat, original, outcome))
                continue
            original = getattr(module, attr)
            wrapper = make(stat, original, outcome)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "superbott" or name.startswith("superbott.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)

    def raw(self) -> dict:
        """Counts and times so far, in a form that sums across processes."""
        caches = {}
        for name, fn in self._caches.items():
            now, start = fn.cache_info(), self._cache_start[name]
            caches[name] = [now.hits - start.hits, now.misses - start.misses, now.currsize]
        return {
            "stats": {k: [s.calls, s.self_s, s.positive] for k, s in self.stats.items()},
            "caches": caches,
        }


def merge(raws: List[dict]) -> dict:
    """Sum the raw records of several processes (cache sizes take the max)."""
    out = {"stats": {}, "caches": {}, "json_bytes": 0}
    for raw in raws:
        for k, (calls, self_s, positive) in raw["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += positive
        for k, (hits, misses, size) in raw["caches"].items():
            acc = out["caches"].setdefault(k, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], size)
        out["json_bytes"] += raw.get("json_bytes", 0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> Dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one merged record."""
    stats, caches = raw["stats"], raw["caches"]

    def calls(k: str) -> int:
        return stats.get(k, [0, 0.0, 0])[0]

    def self_s(k: str) -> float:
        return stats.get(k, [0, 0.0, 0])[1]

    def positive_ratio(k: str) -> float:
        calls_, _, positive = stats.get(k, [0, 0.0, 0])
        return _ratio(positive, calls_)

    def hit_ratio(k: str) -> float:
        hits, misses, _ = caches.get(k, [0, 0, 0])
        return _ratio(hits, hits + misses)

    return {
        "bott.calls": calls("bott"),
        "bott.self_s": self_s("bott"),
        "bott.nonvanishing_ratio": positive_ratio("bott"),
        "characters.rational_tensor.calls": calls("characters.rational_tensor"),
        "characters.rational_tensor.self_s": self_s("characters.rational_tensor"),
        "characters.rational_tensor.hit_ratio": hit_ratio("characters.rational_tensor"),
        "characters.schur_product.self_s": self_s("characters.schur_product"),
        "characters.lr_coefficient.calls": calls("characters.lr_coefficient"),
        "characters.lr_coefficient.nonzero_ratio": positive_ratio("characters.lr_coefficient"),
        "characters.lr_count.misses": caches.get("characters.lr_count", [0, 0, 0])[1],
        "characters.lr_count.self_s": self_s("characters.lr_count"),
        "characters.pad_dual.calls": calls("characters.pad_dual"),
        "characters.weyl_dim.calls": calls("characters.weyl_dim"),
        "characters.weyl_dim.self_s": self_s("characters.weyl_dim"),
        "characters.add_term.calls": calls("characters.add_term"),
        "characters.add_term.self_s": self_s("characters.add_term"),
        "characters.cache_entries": sum(
            caches.get(k, [0, 0, 0])[2] for k in ("characters.rational_tensor", "characters.lr_count")
        ),
        "partitions.new.calls": calls("partitions.new"),
        "partitions.part.calls": calls("partitions.part"),
        "partitions.enumerate.self_s": self_s("partitions.enumerate"),
        "superschur.super_schur_decompose.calls": calls("superschur.super_schur_decompose"),
        "superschur.super_schur_decompose.self_s": self_s("superschur.super_schur_decompose"),
        "superschur.rational_schur_char.calls": calls("superschur.rational_schur_char"),
        "superschur.rational_schur_char.self_s": self_s("superschur.rational_schur_char"),
        "cohomology.e1_page.self_s": self_s("cohomology.e1_page"),
        "cohomology.main_theorem_char.self_s": self_s("cohomology.main_theorem_char"),
        "cohomology.verify_main_theorem.self_s": self_s("cohomology.verify_main_theorem"),
        "qseries.flag_poincare.calls": calls("qseries.flag_poincare"),
        "qseries.flag_poincare.self_s": self_s("qseries.flag_poincare"),
        "cli.run.self_s": self_s("cli.run"),
        "cli.json_bytes": raw.get("json_bytes", 0),
        "oracle.lr_bruteforce.calls": calls("oracle.lr_bruteforce"),
        "oracle.lr_bruteforce.self_s": self_s("oracle.lr_bruteforce"),
        "oracle.schur_expand_bruteforce.calls": calls("oracle.schur_expand_bruteforce"),
        "oracle.schur_monomials.hit_ratio": hit_ratio("oracle.schur_monomials"),
        "oracle.specialize_character.self_s": self_s("oracle.specialize_character"),
    }
