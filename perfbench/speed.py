"""Machine speed, read from a fixed reference kernel run beside the work.

On a shared host the speed of one core drifts by 12-24 % over minutes
(other tenants, shared caches, frequency), and process CPU time drifts with
it, so a time measured at one moment is not comparable with one measured a
minute later.  The benchmark therefore runs a fixed pure-Python kernel in
short slices between its operations and reports every end-to-end time at a
fixed reference speed:

    reported = measured * NOMINAL_S / mean(kernel time measured alongside)

The kernel lives here, not in the program, so no change to the program can
change it.  It allocates no garbage-collected objects and runs with the
collector off, so the program's heap cannot slow it.  NOMINAL_S is the
kernel's median time on the machine the baseline in reference.json was
taken on (2-core Intel Xeon, Python 3.11); a reported time is the time the
work takes when the kernel runs at that speed.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import sys
import threading
import time
from typing import List

KERNEL_ROUNDS = 10_000
NOMINAL_S = 0.0038  # kernel time at the reference speed
EVERY_S = 0.05  # work between two kernel slices inside a pass
WINDOW = 8  # slices on each side of a moment that give the speed at that moment

_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}
_BUF = [0] * 256
_EXPECTED = None


def _step(acc: int, v: int, i: int) -> int:
    return (acc * 31 + v * i) % 1_000_003


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Interpreter-bound work of fixed size: dict and list access, calls, int ops."""
    table, buf, step = _TABLE, _BUF, _step
    acc = 0
    for i in range(rounds):
        v = table[i & 1023]
        acc = step(acc, v, i)
        buf[i & 255] = acc
        if acc in table:
            acc += 1
    return acc


class Gauge:
    """Kernel timings taken between operations, at most one per EVERY_S of work."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.at: List[float] = []  # perf_counter at the middle of each sample
        self._next = time.perf_counter() + EVERY_S

    def sample(self, times: int = 1) -> None:
        global _EXPECTED
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not machine speed
        for _ in range(times):
            t0 = time.perf_counter()
            value = kernel()
            t1 = time.perf_counter()
            if _EXPECTED is None:
                _EXPECTED = value
            elif value != _EXPECTED:
                raise RuntimeError("reference kernel gave a different result")
            self.samples.append(t1 - t0)
            self.at.append((t0 + t1) / 2)
            self._next = t1 + EVERY_S
        if enabled:
            gc.enable()

    def poll(self) -> None:
        """Take a sample if EVERY_S has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()


class BackgroundGauge:
    """Kernel slices from a second thread while the main thread runs one long call.

    Used where the work cannot be cut between operations (one CLI
    invocation).  The switch interval is raised to several slices, so each
    slice runs whole while the main thread waits; the caller subtracts
    ``sum(samples)`` from the time it measured.
    """

    SWITCH_S = 0.02

    def __init__(self) -> None:
        self.gauge = Gauge()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._switch = sys.getswitchinterval()

    @property
    def samples(self) -> List[float]:
        return self.gauge.samples

    def _loop(self) -> None:
        while not self._stop.wait(EVERY_S):
            self.gauge.sample()

    def __enter__(self) -> "BackgroundGauge":
        sys.setswitchinterval(self.SWITCH_S)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch)


def scale(samples: List[float]) -> float:
    """Factor that turns a time measured alongside these samples into reference time."""
    return NOMINAL_S / statistics.mean(samples)


def local_scales(at: List[float], samples: List[float], moments: List[float]) -> List[float]:
    """The factor at each moment, from the WINDOW slices on either side of it.

    Inside one pass the speed drifts too, so each operation is scaled by the
    speed around it rather than by the mean speed of the pass.
    """
    out = []
    for t in moments:
        j = bisect.bisect_left(at, t)
        out.append(scale(samples[max(0, j - WINDOW) : j + WINDOW]))
    return out
