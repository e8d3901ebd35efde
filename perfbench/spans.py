"""Span tracer, timing summaries and failure ledger of the minivla benchmark.

A Tracer replaces named functions of the ``minivla`` modules with timing
wrappers for the length of a ``with`` block and puts every original back
on exit, so code run outside the block is unwrapped. Spans nest on a
stack (minivla is single-threaded): a span's self time is its duration
minus the time its child spans cover. The tracer's own bookkeeping and
hooks are excluded from the duration of every open span.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "minivla"

# Highest first; a tail percentile is reported only with >= 10 samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


@dataclass
class FnStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)       # per call, inclusive
    self_durations: list[float] = field(default_factory=list)  # per call, exclusive


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Times calls to ``<module>.<function>`` or ``<module>.<Class>.<method>``.

    ``hooks`` maps a span name to ``(pre, post)``: ``pre(args, kwargs)``
    runs before the call and returns a state, ``post(counters, state,
    result)`` runs after it; either may be None. Names whose target does
    not exist are listed in ``missing`` and left alone.
    """

    def __init__(self, names, hooks=None, clock=time.perf_counter):
        self.names = list(names)
        self.hooks = hooks or {}
        self.clock = clock
        self.stats: dict[str, FnStats] = {name: FnStats() for name in self.names}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # open spans: [child_s, excluded_s]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name in self.names:
                self._patch(name)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, name: str) -> None:
        module_name, *path = name.split(".")
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        owner = module
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = None if owner is None else vars(owner).get(path[-1])
        if original is None:
            self.missing.append(name)
            return
        wrapper = self._wrap(name, original)
        if len(path) > 1:  # a method: patch the class attribute
            sites = [(owner, path[-1])]
        else:  # a function: patch every module that holds it, under any name
            sites = [(m, attr) for m in _package_modules()
                     for attr, value in list(vars(m).items()) if value is original]
        for site, attr in sites:
            self._patched.append((site, attr, original))
            setattr(site, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            site, attr, original = self._patched.pop()
            setattr(site, attr, original)

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        pre, post = self.hooks.get(name, (None, None))
        clock = self.clock
        stack = self._stack
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            h0 = clock()
            state = pre(args, kwargs) if pre is not None else None
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            duration = t1 - t0 - frame[1]
            self_time = duration - frame[0]
            if stack:
                stack[-1][0] += duration
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += self_time
            stats.durations.append(duration)
            stats.self_durations.append(self_time)
            if post is not None:
                post(counters, state, result)
            overhead = (t0 - h0) + (clock() - t1)
            for open_frame in stack:
                open_frame[1] += overhead
            return result

        return wrapper


# --- timing summaries -----------------------------------------------------------


def tail_percentile(n: int) -> float | None:
    """The highest of TAIL_PERCENTILES with at least MIN_BEYOND of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% of samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def summarize(samples) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    samples = list(samples)
    out = {"n": len(samples), "p50": statistics.median(samples) if samples else 0.0}
    p = tail_percentile(len(samples))
    if p is not None:
        out[f"p{p:g}"] = percentile(samples, p)
    return out


# --- failures --------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed; an exception or a wrong output fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, n: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += n
        self.failed += failed
        if problem:
            self.problems.append(problem)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops(1, 0 if ok else 1, None if ok else f"{name}: {detail}".rstrip(": "))
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
