"""Interpreter-speed calibration.

The machines this benchmark runs on share cores with other tenants, and
their speed for pure-Python work drifts between states about a third
apart, each lasting from seconds to minutes.  While a `Clock` runs, a
timer signal interrupts the main thread every `INTERVAL_S` seconds and
times a fixed probe of the same kind of work; there is no extra thread
or process.  An operation's time divided by the mean probe time sampled
during it, times `REFERENCE_PROBE_S`, is the time it would take at the
reference speed.  Changes to synthtop move that figure; changes in the
machine's state do not.

The probe makes calls, reads attributes and dicts and does integer
arithmetic, but allocates no container, so it never triggers (and is
never charged for) a garbage collection of the workload's objects.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

REFERENCE_PROBE_S = 0.0001
INTERVAL_S = 0.05
_ROUNDS = 3


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def bump(self, k: int) -> int:
        self.v = (self.v * 31 + k) & 0xFFFF
        return self.v


_TABLE = {i: i * 7 for i in range(64)}


def _work(cell: _Cell) -> int:
    acc = 0
    table = _TABLE
    for i in range(600):
        acc += cell.bump(i) ^ table[i & 63]
        if acc > 1 << 20:
            acc -= 1 << 20
    return acc


def probe() -> float:
    """Seconds one probe takes now: the fastest of a few rounds, so that
    an interrupt during one round does not count."""
    cell = _Cell(1)
    best = float("inf")
    for _ in range(_ROUNDS):
        t0 = time.perf_counter()
        _work(cell)
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Samples the probe while started and converts operation times to
    the reference speed.  Use as a context manager around the timed work;
    only one clock may run at a time, since it owns SIGALRM."""

    def __init__(self):
        self._at = array("d")      # sample times (perf_counter seconds)
        self._probe = array("d")   # probe seconds at each sample
        self._spent = array("d")   # running total of time spent sampling
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._sample()

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        p = probe()
        t1 = time.perf_counter()
        self._at.append(t0)
        self._probe.append(p)
        self._spent.append((self._spent[-1] if self._spent else 0.0) + t1 - t0)

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def tick(self, t0: float, t1: float, own: bool = True) -> float:
        """Record one operation that ran from ``t0`` to ``t1``
        (perf_counter seconds); return its time at the reference speed.
        Sampling time inside the window is not the operation's, unless
        the operation ran in another process (``own=False``), which the
        samples did not interrupt."""
        lo = bisect.bisect_left(self._at, t0)
        hi = bisect.bisect_left(self._at, t1)
        if hi > lo:
            speed = sum(self._probe[lo:hi]) / (hi - lo)
            spent = (self._spent[hi - 1] - (self._spent[lo - 1] if lo else 0.0)
                     if own else 0.0)
        else:  # no sample inside: the state seen last still holds
            speed = self._probe[max(lo - 1, 0)]
            spent = 0.0
        raw = max(t1 - t0 - spent, 0.0)
        ref = raw * REFERENCE_PROBE_S / speed
        self.raw_s += raw
        self.ref_s += ref
        return ref
