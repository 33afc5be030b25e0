"""Window helpers for the ``hybrid`` replay engine.

:class:`~repro.experiments.replay.TraceReplayer` runs one step loop for
both engines.  On ``engine="hybrid"`` (the default) each step is
followed by a fast-forward check: when the step provably repeats, the
loop fills the steps up to the end of the window in closed form —
readiness/on-demand/effective series are constant fills and both cost
series advance by a seeded sequential accumulate — and resumes there.
Fast-forwarding requires a policy that declares
:attr:`~repro.serving.policy.ServingPolicy.stationary_decisions` with no
audit log attached (:func:`repro.serving.policy.supports_fluid`, the
predicate the service controller's settled ticks use too), so it makes
the same decision at every skipped step.

* **Quiescent windows.**  The step completed with *zero* fleet activity
  (no promotions, preemptions, launch attempts, scale-downs or
  on-demand changes).  The window ends at the earliest of: the step
  that promotes the next pending replica (:func:`bucket_step`), the
  next capacity crossing below any occupied zone's count, or the trace
  horizon.
* **Shortage windows.**  The step was *failure-only* — its only
  activity was spot launches that failed for want of capacity — and it
  closes a cycle: ``pickle.dumps(policy)`` after it equals the pickle
  after a step ``p`` back in the same run of consecutive failure-only
  steps.  The pickle covers every attribute (placer zone lists,
  caches, any RNG state) with no per-policy code, and nothing in the
  fleet changes within the run, so the next ``p`` steps see the same
  states and observations as the last ``p``, make the same launch
  attempts into the same zones, and fail again.  Alg. 1's Z_A/Z_P
  rebalance rotates its zone lists with a period of up to one less
  than the zone count; round robin's cursor is kept modulo the zone
  count so it repeats too.  The window ends at the first of: a
  capacity rise above the count in any zone that failed anywhere in
  the cycle, a capacity fall below the count in an occupied zone, or
  the next promotion.  Whole cycles are skipped, adding ``cycles ×
  failures per cycle`` to the launch-failure count; the partial
  remainder is stepped.  It needs the telemetry bus disabled (every
  failure is an event); no RNG is drawn on failure-only steps, so the
  stream position does not move.  A run remembers its last 32 steps
  (the longest detectable period is 31); a step is pickled only when
  its failed-zone tuple already occurred in the run and no promotion or
  preemption ends the window at the next step, and a run that spends
  32 pickles without closing a cycle takes no more.  A policy that
  cannot be pickled is stepped one step at a time.

Capacity crossings are looked up by run (:func:`crossing_lookup`): each
zone row is split once into runs of equal capacity, and a query checks
the row at the query step, then bisects the starts of the runs whose
value is below (or above) the count — memory per run, not per step.

Every step that is not skipped runs the discrete loop itself, so the
two engines differ only in the skipped steps; the result is
byte-identical on every :class:`~repro.experiments.replay.ReplayResult`
field, with identical telemetry event content — property-tested in
``tests/properties`` over random traces, policies, weights and chaos
overlays.  ``TraceReplayer.fast_forwarded_steps`` counts the steps a run
skipped.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.cloud.traces import SpotTrace

__all__ = ["bucket_step", "crossing_lookup"]


def bucket_step(ready_at: float, step: float) -> int:
    """First step index ``s`` with ``s * step >= ready_at``.

    This is the step at which the discrete loop's ``ready_at <= now``
    promotion check first passes, computed with explicit fix-ups so
    float rounding in the division can never disagree with the
    comparison the oracle actually performs.
    """
    s = int(math.ceil(ready_at / step))
    while s * step < ready_at:
        s += 1
    while s > 0 and (s - 1) * step >= ready_at:
        s -= 1
    return s


def crossing_lookup(
    trace: SpotTrace, zone_caps: Mapping[str, Sequence[int]]
) -> Callable[[str, int, int, bool], int]:
    """Run-indexed capacity crossings over the zones of ``zone_caps``.

    Returns ``next_crossing(zone, count, after, rise)``: the first step
    ``>= after`` whose capacity in ``zone`` is below ``count`` (above it
    when ``rise``), or ``trace.n_steps``.  ``zone_caps`` holds the
    replay's per-zone capacity rows, read for the direct check at
    ``after``.
    """
    n_steps = trace.n_steps
    runs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for zone in zone_caps:
        row = np.asarray(trace.zone_row(zone))
        starts = np.concatenate(([0], np.flatnonzero(np.diff(row)) + 1))
        runs[zone] = (starts, row[starts])
    # (zone, count, rise) -> starts of the runs whose capacity sits
    # below ``count`` (above it when ``rise``), as a list for bisect.
    cache: dict[tuple[str, int, bool], list[int]] = {}

    def next_crossing(zone: str, count: int, after: int, rise: bool) -> int:
        if after >= n_steps:
            return n_steps
        cap = zone_caps[zone][after]
        if cap > count if rise else cap < count:
            return after
        key = (zone, count, rise)
        starts = cache.get(key)
        if starts is None:
            run_starts, values = runs[zone]
            starts = run_starts[values > count if rise else values < count].tolist()
            cache[key] = starts
        # The run holding ``after`` does not qualify, so the answer is
        # the first qualifying run that starts later.
        pos = bisect_right(starts, after)
        return starts[pos] if pos < len(starts) else n_steps

    return next_crossing
