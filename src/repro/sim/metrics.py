"""Metric recording primitives shared by the serving and replay harnesses.

Three recorder types cover everything the paper reports:

* :class:`Counter` — monotonically increasing totals (requests served,
  failures, preemptions).
* :class:`TimeSeries` — irregular ``(time, value)`` samples (ready-replica
  counts for Fig. 10, provisioning counts for Fig. 12), with step-function
  semantics and time-weighted aggregation for availability and cost.
* :class:`LatencyRecorder` — per-request latencies with percentile
  summaries (P50/P90/P99 for Figs. 9, 13, 15).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BoxPlotStats",
    "Counter",
    "LatencyRecorder",
    "LatencySummary",
    "TimeSeries",
    "percentile",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile; ``nan`` on empty input.

    ``q`` is in [0, 100].  A thin wrapper over ``numpy.percentile``
    (including the array conversion) that adds the two behaviours the
    callers rely on: ``nan`` instead of an exception on empty input, and
    an explicit range check on ``q``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q!r} outside [0, 100]")
    if len(values) == 0:
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Counter:
    """A named monotonic counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self._value += amount


class TimeSeries:
    """Step-function time series of ``(time, value)`` samples.

    Samples must arrive in non-decreasing time order (the simulator
    guarantees this).  A sample at the same timestamp as the previous one
    overwrites it, which is the natural semantics for "state at time t"
    recorded from several callbacks in the same event.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> list[float]:
        return list(self._times)

    @property
    def values(self) -> list[float]:
        return list(self._values)

    def record(self, time: float, value: float) -> None:
        times = self._times
        if times:
            last = times[-1]
            if time <= last:
                if time < last:
                    raise ValueError(
                        f"time series {self.name}: sample at t={time} after t={last}"
                    )
                self._values[-1] = value
                return
        times.append(time)
        self._values.append(value)

    def value_at(self, time: float) -> float:
        """Step-function lookup; ``nan`` before the first sample."""
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return math.nan
        return self._values[index]

    def time_weighted_mean(self, start: float, end: float) -> float:
        """Average value over ``[start, end]`` weighting by duration.

        A zero-width window (``end == start`` — e.g. a series with a
        single sample queried at its own timestamp) degenerates to the
        step-function value at ``start`` instead of dividing by zero.
        """
        if end < start:
            raise ValueError(f"inverted window [{start}, {end}]")
        if end == start:
            return self.value_at(start)
        total = self.integrate(start, end)
        return total / (end - start)

    def integrate(self, start: float, end: float) -> float:
        """Integral of the step function over ``[start, end]``.

        Time before the first sample contributes zero.
        """
        if end < start:
            raise ValueError(f"inverted window [{start}, {end}]")
        if not self._times or end <= self._times[0]:
            return 0.0
        total = 0.0
        # Walk segments [t_i, t_{i+1}) clipped to the window.
        start_index = max(bisect.bisect_right(self._times, start) - 1, 0)
        for i in range(start_index, len(self._times)):
            seg_start = max(self._times[i], start)
            seg_end = self._times[i + 1] if i + 1 < len(self._times) else end
            seg_end = min(seg_end, end)
            if seg_end > seg_start:
                total += self._values[i] * (seg_end - seg_start)
            if seg_end >= end:
                break
        return total

    def fraction_at_least(self, threshold: float, start: float, end: float) -> float:
        """Fraction of ``[start, end]`` during which value >= ``threshold``.

        This is exactly the paper's *availability* metric: the percentage
        of time at least ``N_Tar`` replicas are ready.  Time before the
        first sample counts as *not* meeting the threshold.
        """
        if end <= start:
            raise ValueError(f"empty window [{start}, {end}]")
        if not self._times:
            return 0.0
        satisfied = 0.0
        start_index = max(bisect.bisect_right(self._times, start) - 1, 0)
        for i in range(start_index, len(self._times)):
            seg_start = max(self._times[i], start)
            seg_end = self._times[i + 1] if i + 1 < len(self._times) else end
            seg_end = min(seg_end, end)
            if seg_end > seg_start and self._values[i] >= threshold:
                satisfied += seg_end - seg_start
            if seg_end >= end:
                break
        # Clamp away float round-off so callers can rely on [0, 1].
        return min(max(satisfied / (end - start), 0.0), 1.0)


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of a latency distribution, in seconds."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float

    def __bool__(self) -> bool:
        """Falsy when empty, so ``if summary:`` keeps reading naturally
        now that empty recorders return NaN summaries instead of None."""
        return self.count > 0

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return (
            f"n={self.count} mean={self.mean:.2f}s "
            f"p50={self.p50:.2f}s p90={self.p90:.2f}s p99={self.p99:.2f}s"
        )


@dataclass(frozen=True)
class BoxPlotStats:
    """The paper's Fig. 9 box-plot elements: median line, 25th/75th
    percentile box, 10th/90th percentile whiskers, mean marker."""

    count: int
    p10: float
    p25: float
    p50: float
    p75: float
    p90: float
    mean: float

    def __bool__(self) -> bool:
        return self.count > 0

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return (
            f"whiskers [{self.p10:.2f}, {self.p90:.2f}] "
            f"box [{self.p25:.2f}, {self.p75:.2f}] "
            f"median {self.p50:.2f} mean {self.mean:.2f}"
        )


class LatencyRecorder:
    """Collects per-request latencies and summarises them."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._samples: list[float] = []

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency!r}")
        self._samples.append(latency)

    def extend(self, latencies: Iterable[float]) -> None:
        for value in latencies:
            self.record(value)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def summary(self) -> LatencySummary:
        """Percentile summary.  An empty recorder yields a NaN-safe
        summary with ``count == 0`` that is *falsy*, so both
        ``summary.p50`` (NaN, no crash) and ``if summary:`` work."""
        if not self._samples:
            nan = math.nan
            return LatencySummary(count=0, mean=nan, p50=nan, p90=nan, p99=nan)
        data = np.asarray(self._samples, dtype=float)
        return LatencySummary(
            count=int(data.size),
            mean=float(data.mean()),
            p50=float(np.percentile(data, 50)),
            p90=float(np.percentile(data, 90)),
            p99=float(np.percentile(data, 99)),
        )

    def boxplot(self) -> BoxPlotStats:
        """Fig. 9's box-plot elements; NaN-safe and falsy when empty."""
        if not self._samples:
            nan = math.nan
            return BoxPlotStats(
                count=0, p10=nan, p25=nan, p50=nan, p75=nan, p90=nan, mean=nan
            )
        data = np.asarray(self._samples, dtype=float)
        p10, p25, p50, p75, p90 = (
            float(q) for q in np.percentile(data, (10, 25, 50, 75, 90))
        )
        return BoxPlotStats(
            count=int(data.size),
            p10=p10,
            p25=p25,
            p50=p50,
            p75=p75,
            p90=p90,
            mean=float(data.mean()),
        )
