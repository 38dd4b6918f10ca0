"""Arithmetic and tracing primitives of the benchmark.

Nothing here imports sbvod: the tail rule, the quartile spread, the Erlang B
oracle and the span tracer are plain functions of numbers and callables, so
they can be tested on their own (see ``test_measure.py``).
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Percentiles the tail rule may pick from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly above a reported tail percentile.
TAIL_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile among ``n`` samples."""
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def beyond_count(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - _rank(n, q)


def tail_rule(n: int, ladder=TAIL_LADDER, beyond: int = TAIL_BEYOND) -> float | None:
    """Highest ladder percentile with at least ``beyond`` of ``n`` samples above it."""
    for q in ladder:
        if beyond_count(n, q) >= beyond:
            return q
    return None


def samples_needed(q: float, beyond: int = TAIL_BEYOND) -> int:
    """Smallest sample count for which ``q`` leaves ``beyond`` samples above it."""
    n = 1
    while beyond_count(n, q) < beyond:
        n += 1
    return n


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def erlang_b_oracle(load: float, servers: int) -> float:
    """Erlang B as a ratio of sums in log space: (a^n/n!) / sum_k a^k/k!."""
    if servers == 0:
        return 1.0
    if load == 0.0:
        return 0.0
    logs = [k * math.log(load) - math.lgamma(k + 1) for k in range(servers + 1)]
    top = max(logs)
    return math.exp(logs[-1] - top) / sum(math.exp(x - top) for x in logs)


def host_kernel() -> int:
    """Fixed pure-Python work shaped like the simulator's: dicts, tuples, a heap, a sort."""
    counts: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for i in range(10_000):
        key = i * 7919 % 1009
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


class HostSpeed:
    """Host speed read from the fixed kernel, timed in the gaps between units.

    On a shared host the speed can switch every few seconds between a fast
    and a much slower state, and the share of time spent slow drifts over
    minutes as other tenants load the machine; every timing drifts with it.
    Each ``tick()`` times the kernel until the time spent on it reaches
    ``share`` of the time that passed since the first tick, so the kernel
    samples the states in the proportions the measured work met them.
    ``scale()`` turns a time measured in this run into the time it would
    take on a host whose mean kernel time is ``ref_ms``; ``scale_at(t)``
    does the same from the kernel samples taken near the instant ``t``.
    """

    def __init__(self, ref_ms: float, share: float, kernel=host_kernel, clock=time.perf_counter):
        self.ref_ms = ref_ms
        self.share = share
        self._kernel = kernel
        self._clock = clock
        self._start: float | None = None
        self.samples_ms: list[float] = []
        self.sample_times: list[float] = []
        self.spent = 0.0

    def tick(self) -> None:
        now = self._clock()
        if self._start is None:
            self._start = now
        while not self.samples_ms or self.spent < self.share * (now - self._start - self.spent):
            t0 = self._clock()
            self._kernel()
            dt = self._clock() - t0
            self.spent += dt
            self.samples_ms.append(dt * 1e3)
            self.sample_times.append(t0)

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ms)

    def scale(self) -> float:
        return self.ref_ms / self.mean_ms()

    def scale_at(self, t: float, window: float) -> float:
        """Scale from the samples within ``window`` of ``t``, or the next one if none is."""
        lo = bisect.bisect_left(self.sample_times, t - window)
        hi = bisect.bisect_right(self.sample_times, t + window)
        near = self.samples_ms[lo:hi] or [self.samples_ms[min(lo, len(self.samples_ms) - 1)]]
        return self.ref_ms / statistics.fmean(near)


@dataclass
class Batch:
    """One timed batch of a workload, the per-unit times inside it, and its output."""

    wall: float
    unit_times: list[float]
    output: bytes


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    samples: list[float] | None = None

    def mean(self) -> float:
        return self.total / self.calls if self.calls else 0.0

    def self_mean(self) -> float:
        return self.self_time / self.calls if self.calls else 0.0


class Tracer:
    """Wraps callables so each call records a span into per-name aggregates.

    A span's self time is its duration minus the durations of the spans
    opened directly inside it, so time spent in a wrapped callee is
    charged to the callee only. Spans are aggregated as they close rather
    than stored one by one, which keeps memory flat over long runs.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open: list[float] = []
        self.spans: dict[str, SpanStats] = {}

    def stats(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())

    def span(self, name: str, fn, observe=None, keep_samples: bool = False):
        """Return ``fn`` wrapped in a timed span; ``observe(args, result)`` runs after it closes."""
        st = self.stats(name)
        if keep_samples and st.samples is None:
            st.samples = []
        clock = self._clock
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                st.calls += 1
                st.total += dt
                st.self_time += dt - child
                if st.samples is not None:
                    st.samples.append(dt)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Return ``fn`` wrapped so calls are counted but not timed."""
        st = self.stats(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper


@contextmanager
def rebound(bindings):
    """Set each ``(owner, attr, value)`` for the duration of the block, then restore."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in bindings]
    try:
        for owner, attr, value in bindings:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
