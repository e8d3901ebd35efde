"""How fast the shared host runs at the moment, from a fixed probe.

The benchmark's host is shared with other machines' work, and its speed
drifts by up to 1.5x over seconds and over minutes. The drift shows in the
process's own CPU time, so no choice of clock removes it, and a run's
median moves with whatever the host did during that run.

The probe is fixed work of the kind minivla does, an interpreted loop and
NumPy operations on small arrays, in the benchmark's own code, so no
change to minivla changes it. Timing the probe just before and just after
a measured interval gives the host's slowdown over that interval. Dividing
the interval by the slowdown gives the time it would have taken on a host
where one probe takes ``NOMINAL_S``. A change to minivla moves that
normalised time as it moves the wall time; a change in the host's speed
moves it much less.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# The probe's median on the host the baseline in README.md was measured on
# (2 vCPUs of an Intel Xeon at 2.1 GHz): normalised times are in seconds of
# that host at its median speed.
NOMINAL_S = 0.034

LOOP_N = 250_000
ARRAY_ROUNDS = 200


class Probe:
    """Fixed probe work; calling it runs the work once and returns its seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.weights = rng.standard_normal((64, 64))
        self.image = rng.random((32, 32, 3))

    def _loop(self) -> int:
        s = 0
        for i in range(LOOP_N):
            s += i * i % 7
        return s

    def _arrays(self) -> float:
        total = 0.0
        for _ in range(ARRAY_ROUNDS):
            patches = self.image.reshape(8, 4, 8, 4, 3).transpose(0, 2, 1, 3, 4).reshape(64, 48)
            tokens = np.concatenate([patches, patches[:, :16]], axis=1) @ self.weights
            tokens = tokens - tokens.mean(axis=1, keepdims=True)
            tokens = tokens / np.sqrt((tokens * tokens).mean(axis=1, keepdims=True) + 1e-5)
            scores = np.exp(tokens[:8] @ tokens.T / 8.0)
            scores /= scores.sum(axis=1, keepdims=True)
            total += float(scores[0, 0]) + float(tokens[0, 0])
        return total

    def __call__(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._loop()
            self._arrays()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def slowdown(before_s: float, after_s: float) -> float:
    """The host's slowdown over an interval, from probes at its two ends (1 = nominal)."""
    return math.sqrt(before_s * after_s) / NOMINAL_S
