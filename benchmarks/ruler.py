"""A machine-speed ruler for the timed section of a pass.

The host this benchmark was built on (2 vCPUs of a shared virtual machine)
changes speed by up to a factor of two over seconds to minutes, and an
inls_lab pass slows and speeds up with it.  The ruler times a fixed kernel
that runs no inls_lab code (a Python float loop and zlib on 160 kB, about
13 ms) at the start and end of the timed section and about every
``INTERVAL_S`` inside it, and expresses the program's time in units of that
kernel: a stretch of program time between two ticks counts as its length
divided by the mean of the two ticks' kernel times.  The sum over the timed
section is ``wall_cal``; it moves with the program's speed and much less
with the machine's.  Of the kernels tried, a Python loop and zlib tracked
the host best; numpy on 8001 points tracked it worst, on every workload.

Ticks inside the program come from ``poll``, which the plain pass calls at
its frequent entry points (each ``evolution.step``, each RK4 trajectory of
the shooting, each CLI call) and which ticks only once ``INTERVAL_S`` has
passed.  The kernel therefore runs in whichever thread runs the program,
while the program waits, and the tick time is left out of every figure.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

INTERVAL_S = 0.25
_LOOP = 60_000
_BLOB = ((np.arange(80_000) % 251).astype(np.uint8).tobytes()
         + np.random.default_rng(0).integers(0, 40, 80_000).astype(np.uint8).tobytes())


def kernel() -> float:
    s = 0.0
    for i in range(_LOOP):
        s += (i % 7) * 0.5
    zlib.compress(_BLOB, 6)
    return s


class Ruler:
    def __init__(self):
        self.ticks: list[tuple[float, float]] = []

    def tick(self) -> None:
        start = time.perf_counter()
        kernel()
        self.ticks.append((start, time.perf_counter()))

    def poll(self) -> None:
        if time.perf_counter() - self.ticks[-1][1] >= INTERVAL_S:
            self.tick()

    def polling(self, fn):
        """fn, with a poll before each call."""
        def polled(*args, **kwargs):
            self.poll()
            return fn(*args, **kwargs)
        return polled

    def _segments(self):
        """(start, end, kernel time) of each stretch of program time."""
        for (s0, e0), (s1, e1) in zip(self.ticks, self.ticks[1:]):
            yield e0, s1, ((e0 - s0) + (e1 - s1)) / 2.0

    def program_s(self, a: float | None = None, b: float | None = None) -> float:
        """Seconds of program time (no tick) inside [a, b]."""
        return self._measure(a, b, lambda length, cal: length)

    def cal(self, a: float | None = None, b: float | None = None) -> float:
        """Program time inside [a, b] in kernel units."""
        return self._measure(a, b, lambda length, cal: length / cal)

    def _measure(self, a, b, unit) -> float:
        a = -float("inf") if a is None else a
        b = float("inf") if b is None else b
        total = 0.0
        for s, e, cal in self._segments():
            length = min(e, b) - max(s, a)
            if length > 0:
                total += unit(length, cal)
        return total
