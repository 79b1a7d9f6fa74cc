"""Host-speed sampling: how fast this processor runs pure-Python code while
a unit of work runs.

The benchmark runs on shared virtual machines whose speed changes by up to
about 1.8x, for reasons no process in the guest can see or control: a fixed
loop flips between a fast and a slow rate every few hundred milliseconds,
and the share of time spent slow drifts over minutes.  A timed unit of work
therefore runs with a SpeedSampler started.  A periodic timer interrupts the
unit between two bytecodes and times one run of a fixed reference kernel.
Because the samples are even in real time, the mean of REFERENCE_S over
their durations is the unit's mean speed relative to the reference
processor, and a time multiplied by it is the time the unit would have
taken at reference speed.  The time spent sampling is subtracted first.

The kernel lives here, not in the package, so no change to the package
changes it.  It mixes the three kinds of work the package spends its time
on: sparse integer polynomial products in dicts (as in the Lawrence-Krammer
layer), permutation sliding in small lists (as in the Garside layer), and a
memo of tuple keys (as in the ordering search).  It allocates few container
objects, and runs with the garbage collector paused, so a sample never
collects the unit's garbage.
"""

from __future__ import annotations

import gc
import signal
import time

# seconds one kernel() takes on a 2.1 GHz Xeon virtual machine with Python
# 3.11.7 in its fast state; only ratios to it are used, so the value need
# not match any other machine
REFERENCE_S = 0.00070

# seconds between samples while a sampler runs
INTERVAL_S = 0.05

_POLY_A = {k * 37: (k % 7) - 3 for k in range(40) if (k % 7) != 3}
_POLY_B = {k * 11: (k % 5) - 2 for k in range(30) if (k % 5) != 2}
_MEMO_KEYS = [(i % 97, (i * 7) % 13, tuple(range(i % 5))) for i in range(800)]


def _poly_products() -> int:
    acc: dict[int, int] = {}
    for _ in range(4):
        acc = {}
        get = acc.get
        for ka, va in _POLY_A.items():
            for kb, vb in _POLY_B.items():
                kk = ka + kb
                nv = get(kk, 0) + va * vb
                if nv:
                    acc[kk] = nv
                else:
                    del acc[kk]
    return len(acc)


def _slides() -> int:
    m = 7
    a, b, ainv = [0] * m, [0] * m, [0] * m
    moved = 0
    for seed in range(130):
        for i in range(m):
            a[i] = (i * 3 + seed) % m
            b[i] = (i * 5 + seed * 2) % m
        for i in range(m):
            ainv[a[i]] = i
        while True:
            hit = -1
            for i in range(m - 1):
                if b[i] > b[i + 1] and ainv[i] < ainv[i + 1]:
                    hit = i
                    break
            if hit < 0:
                break
            pa, pb = ainv[hit], ainv[hit + 1]
            a[pa], a[pb] = hit + 1, hit
            ainv[hit], ainv[hit + 1] = pb, pa
            b[hit], b[hit + 1] = b[hit + 1], b[hit]
            moved += 1
    return moved


def _memo() -> int:
    memo: dict[tuple, int] = {}
    hits = 0
    for i, key in enumerate(_MEMO_KEYS):
        if key in memo:
            hits += 1
        else:
            memo[key] = i
    return hits


def kernel() -> int:
    return _poly_products() + _slides() + _memo()


def timed_kernel() -> float:
    """Seconds one kernel() takes now, with the garbage collector paused.

    The kernel runs once untimed first, so the timed run finds its code and
    data in cache whatever the unit had been doing: its time then tracks the
    host's speed, not the unit's memory footprint.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Samples the kernel every INTERVAL_S seconds between start() and
    stop(), in the main thread, from a SIGALRM handler."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, one per sample
        self.spent = 0.0  # seconds spent in the handler
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(timed_kernel())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.spent = [timed_kernel()], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.samples.append(timed_kernel())

    def work_clock(self) -> float:
        """perf_counter() less the time spent sampling so far."""
        return time.perf_counter() - self.spent

    def speed(self) -> float:
        """Mean speed over the samples, relative to the reference (1.0 =
        reference speed, below 1 = slower)."""
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
