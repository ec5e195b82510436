"""A fixed calibration task that gauges how fast the machine runs Python now.

The benchmark's machine is shared: its speed changes by up to a half within
milliseconds to minutes, and the program and any other Python code slow
down together.  While a ``Gauge`` is active, a timer signal runs this task
every ``INTERVAL_S``, in the middle of whatever the process is doing; the
runner takes the handler's time out of each command's time and reports it
scaled by ``Gauge.scale``, so the machine's speed cancels out and what is
left is the program's cost.

The task does what the program does most, in the standard library only:
exact elimination over the rationals and modulo a prime, and tuple-keyed
dict bookkeeping.  It never changes with the program, so a change to the
program moves the scaled times and leaves the task's time alone.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# What the task takes, in seconds, on the machine the bounds were set on
# while it ran at its faster speed; scaled times are in these nominal seconds.
NOMINAL_S = 0.0025

INTERVAL_S = 0.05  # the task then takes about a twentieth of the wall time

_SIZE = 10
_PRIME = 5


def task() -> int:
    """The fixed work; returns a checksum so that nothing is optimised away."""
    q = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(_SIZE)]
         for i in range(_SIZE)]
    p = [[(i * i + 3 * j) % _PRIME for j in range(4 * _SIZE)] for i in range(2 * _SIZE)]
    rank = _eliminate(q, lambda a, b: a / b, lambda a: a)
    rank += _eliminate(p, lambda a, b: a * pow(b, _PRIME - 2, _PRIME), lambda a: a % _PRIME)
    table: dict[tuple[int, int], int] = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return rank + len(table)


def _eliminate(rows: list[list], divide, reduce) -> int:
    """Forward elimination in place, entries kept reduced; the rank."""
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = divide(rows[r][col], rows[rank][col])
                rows[r] = [reduce(a - f * b) for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def measure() -> float:
    """Seconds the task takes now.

    The cycle collector is off meanwhile: the task makes no cycles, and a
    collection would walk the program's heap, whose size is not the
    machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Samples the task's time every ``INTERVAL_S`` of wall time while active.

    A ``SIGALRM`` handler takes each sample, so samples land inside long
    commands as well as between them, in this one thread.  Python retries
    system calls a signal interrupts, so the program sees no difference but
    the lost time, which ``busy`` adds up for the caller to take out.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []     # perf_counter() at the end of each sample
        self.times: list[float] = []    # what the task took in each sample
        self.busy = 0.0                 # seconds spent in the handler
        self._previous: object = None

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def _sample(self, *_: object) -> None:
        self._take()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def _take(self) -> None:
        t0 = time.perf_counter()
        self.times.append(measure())
        self.ends.append(time.perf_counter())
        self.busy += self.ends[-1] - t0

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean task time from ``start`` to ``end``:
        the samples that ended in between, the last before and the first after."""
        first = max(bisect.bisect_left(self.ends, start) - 1, 0)
        last = min(bisect.bisect_right(self.ends, end), len(self.ends) - 1)
        return NOMINAL_S / statistics.fmean(self.times[first:last + 1])
