"""The machine's speed, sampled while the benchmark runs.

The CPU speed a process gets on a shared host drifts: on the shared 2-vCPU
virtual machine where this benchmark was written, the same pass over the
same jobs took anywhere from 1.0x to 1.5x its fastest time, moving within
seconds and from minute to minute.  Timings are therefore converted to reference seconds.

A background thread times a fixed pure-Python loop every ``INTERVAL_S``.  A
measured interval is scaled by ``REF_LOOP_S`` over the median loop time seen
within ``WINDOW_S`` of it: a reference second is the time in which the
machine runs the loop ``1 / REF_LOOP_S`` (2,000) times.  The sampling thread
holds the interpreter lock for about 0.5 ms every 50 ms, which costs the
timed code about 1%, the same on every commit.
"""
from __future__ import annotations

import statistics
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_LOOP_S = 0.0005
INTERVAL_S = 0.05
WINDOW_S = 0.25


def loop():
    """Set, dict and sort work of the kind spg spends its time on."""
    seen = {}
    for i in range(300):
        t = frozenset((i % 17, i % 23, i % 31)) | {i % 7}
        seen[t] = seen.get(t, 0) + 1
        sorted(t)


class SpeedSampler:
    def __init__(self):
        self.times: list[float] = []
        self.loop_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)

    def _sample(self):
        while not self._stop.wait(INTERVAL_S):
            t0 = perf_counter()
            loop()
            self.loop_s.append(perf_counter() - t0)
            self.times.append(t0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0, t1):
        """Reference seconds per measured second over [t0, t1]; read it
        once sampling has gone on past ``t1 + WINDOW_S``."""
        i = bisect_left(self.times, t0 - WINDOW_S)
        j = bisect_right(self.times, t1 + WINDOW_S)
        if j <= i:  # no sample near: take the closest one
            i = min(max(i - 1, 0), len(self.times) - 1)
            j = i + 1
        return REF_LOOP_S / statistics.median(self.loop_s[i:j])
