"""Fluid/flow data plane for trace replay — the ``hybrid`` engine.

:class:`~repro.experiments.replay.TraceReplayer` dispatches here for
``engine="hybrid"``, its default.  Spot fleet state lives in per-zone
integer/float lists instead of per-instance Python objects:

* per-zone parallel lists of replica ids (sorted ascending — ids are
  issued monotonically and removals preserve order), ``ready_at``
  stamps and readiness flags, with per-zone counts and per-zone ready
  counts alongside;
* preemption excess straight from ``capacity - count`` row math, with
  victim subsets drawn by the *same* partial Fisher–Yates procedure —
  one ``rng.random(excess)`` batch per preempting zone — so the RNG
  stream consumption matches the discrete oracle draw for draw;
* readiness promotion from a pending queue of ``(ready_at, id, zone)``
  entries in the oracle's order, with the replica located in its
  zone's id list by bisection (a missing id means it died);
* cost accrual via per-step products against the folded price rows
  (static zone multipliers × chaos price factors), accumulated with
  ``np.add.accumulate`` — a strict left fold, so the float result is
  bit-identical to the discrete ``cost += x`` loop;
* effective (capacity-weighted) readiness for heterogeneous pools,
  recomputed from the per-zone ready counts in fixed zone order with
  the oracle's expression whenever a count changes.

On top of this stepper sits the hybrid dispatcher: steps around
capacity crossings, policy mix changes and chaos injection edges run
the exact discrete per-step semantics (identical victim-sampling RNG
draws, identical telemetry events), and two kinds of window are
fast-forwarded in closed form — readiness/on-demand/effective series
are constant fills and both cost series advance by a seeded
sequential accumulate.  Fast-forwarding requires a policy that declares
:attr:`~repro.serving.policy.ServingPolicy.stationary_decisions` with no
audit log attached (:func:`supports_fluid`), so it makes the same
decision at every skipped step.

* **Quiescent windows.**  The step completed with *zero* fleet activity
  (no promotions, preemptions, launch attempts, scale-downs or
  on-demand changes).  The window ends at the earliest of: the step
  that promotes the next pending replica (:func:`bucket_step`), the
  next capacity crossing below any occupied zone's count, or the trace
  horizon.
* **Shortage windows.**  The step was *failure-only* — its only
  activity was spot launches that failed for want of capacity — and it
  is a fixed point: the previous step was failure-only too, with the
  same ordered tuple of failed zones, and ``pickle.dumps(policy)`` is
  unchanged across the step.  The pickle covers every attribute
  (placer zone lists, caches, any RNG state) with no per-policy code,
  so the next step sees the same state and observation, makes the same
  launch attempts into the same zones, and they fail again.  The window
  additionally ends at the first step where a failed zone's capacity
  rises above its count, and adds ``width × failures per step`` to the
  launch-failure count.  It needs the telemetry bus disabled (every
  failure is an event); no RNG is drawn on failure-only steps, so the
  stream position does not move.  Snapshots are taken only while the
  failed-zone tuple repeats, and a mismatch (e.g. Alg. 1's Z_A/Z_P
  rebalance rotating the zone lists) stops them until the tuple
  changes; a policy that cannot be pickled is stepped one step at a
  time.

Capacity crossings are looked up by run: each zone row is split once
into runs of equal capacity, and a crossing query checks the row at the
query step, then bisects the starts of the runs whose value is below
(or above) the count — memory per run, not per step.

The result is byte-identical to the discrete oracle on every
:class:`~repro.experiments.replay.ReplayResult` field (availability,
costs, preemption/launch-failure counts, ready, on-demand and effective
series) with identical telemetry event content — property-tested in
``tests/properties`` over random traces, policies, weights and chaos
overlays.  Because results are engine-independent,
:class:`~repro.experiments.results.ReplayCache` keys do not include the
engine.  ``TraceReplayer.fast_forwarded_steps`` counts the steps a run
skipped.
"""

from __future__ import annotations

import logging
import math
import pickle
from bisect import bisect_left, bisect_right, insort
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, MutableSequence, Optional, Sequence

import numpy as np

from repro.experiments.replay import (
    _EMPTY_FROZENSET,
    _PROFILE_STRIDE_MASK,
    ReplayResult,
    _ReplayInstance,
    _ready_order,
)
from repro.serving.policy import Observation, ServingPolicy
from repro.telemetry.events import (
    CostSnapshot,
    FleetSample,
    ReplicaLaunch,
    ReplicaLaunchFailed,
    ReplicaPreempted,
    ReplicaTerminated,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.replay import TraceReplayer

__all__ = ["bucket_step", "run_fastpath", "supports_fluid"]

logger = logging.getLogger(__name__)

#: What ``pickle.dumps`` raises for an object it cannot serialise:
#: lambdas and local classes raise ``PicklingError``/``AttributeError``,
#: locks and generators ``TypeError``.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


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


def supports_fluid(policy: ServingPolicy) -> bool:
    """Whether windows may be fast-forwarded for ``policy``.

    Requires the policy's stationarity declaration *and* no attached
    audit log — ``PolicyAuditLog.touch`` keys on ``obs.now``, so an
    audited policy must be consulted every step.
    """
    return bool(getattr(policy, "stationary_decisions", False)) and policy.audit is None


def run_fastpath(
    replayer: "TraceReplayer",
    policy: ServingPolicy,
    *,
    spot_zones: Optional[Sequence[str]] = None,
) -> ReplayResult:
    """Replay ``policy`` on the hybrid engine's data plane."""
    cfg = replayer.config
    trace = replayer.trace
    bus = replayer.telemetry
    rng = replayer._rng

    fluid_ok = supports_fluid(policy)

    zones = list(spot_zones) if spot_zones is not None else list(trace.zone_ids)
    n_zones = len(zones)
    zone_index = {zone: i for i, zone in enumerate(zones)}
    step = trace.step
    n_steps = trace.n_steps
    base_d = cfg.cold_start
    d = base_d
    chaos_cs = replayer._cold_start_factors
    # Capacity rows as plain int lists for scalar indexing on churn
    # steps (boxing a numpy scalar per access costs ~100 ns), and as
    # runs of equal value — (start step, capacity) pairs — for the
    # crossing queries.
    caps_list: list[list[int]] = []
    run_starts: list[np.ndarray] = []
    run_values: list[np.ndarray] = []
    for zone in zones:
        row = np.asarray(trace.zone_row(zone))
        caps_list.append(row.tolist())
        starts = np.concatenate(([0], np.flatnonzero(np.diff(row)) + 1))
        run_starts.append(starts)
        run_values.append(row[starts])

    # Per-zone parallel fleet lists (a zone holds a handful of
    # replicas, where plain lists beat numpy calls).  Ids ascend within
    # each zone, so promotions locate entries by bisection and a
    # missing id means the replica died.
    z_ids: list[list[int]] = [[] for _ in range(n_zones)]
    z_ready_at: list[list[float]] = [[] for _ in range(n_zones)]
    z_ready: list[list[bool]] = [[] for _ in range(n_zones)]
    sizes = [0] * n_zones
    zone_ready = [0] * n_zones
    spot_total = 0
    spot_ready = 0

    # The on-demand fleet reuses the oracle's object representation
    # verbatim — on-demand capacity is always obtainable, so sharing
    # the code shares its semantics.
    od: list[_ReplayInstance] = []
    od_ready = 0
    # Pending queues ordered like the oracle's: FIFO under a constant
    # cold start, sorted by (ready_at, id) under a chaos overlay.
    pending_spot: MutableSequence[tuple[float, int, int]]
    pending_od: MutableSequence[_ReplayInstance]
    if chaos_cs is None:
        pending_spot = deque()
        pending_od = deque()
        push_spot = pending_spot.append
        push_od = pending_od.append
        pop_spot = pending_spot.popleft
        pop_od = pending_od.popleft
    else:
        pending_spot = []
        pending_od = []
        push_spot = partial(insort, pending_spot)
        push_od = partial(insort, pending_od, key=_ready_order)
        pop_spot = partial(pending_spot.pop, 0)
        pop_od = partial(pending_od.pop, 0)

    # Price rows folded exactly as the discrete engine folds them, kept
    # as lists (churn-step scalar access) and float64 rows (fluid
    # window products).
    multipliers = dict(cfg.zone_price_multipliers or {})
    mult_by_zone = [multipliers.get(zone, 1.0) for zone in zones]
    price_rows: Optional[list[list[float]]] = None
    price_np: Optional[list[np.ndarray]] = None
    if replayer._zone_price_factors is not None:
        price_rows = []
        price_np = []
        for zi, zone in enumerate(zones):
            factors = replayer._zone_price_factors.get(zone)
            if factors is None:
                row = [mult_by_zone[zi]] * n_steps
            else:
                row = [mult_by_zone[zi] * f for f in factors]
            price_rows.append(row)
            price_np.append(np.asarray(row))

    # Capacity weights (heterogeneous pools): the effective series is
    # only tracked when weights are set, exactly like the oracle.
    weights = cfg.zone_capacity_weights
    track_eff = weights is not None
    zone_weight = [float(weights.get(z, 1.0)) for z in zones] if weights is not None else []
    eff = 0.0

    # (zone_idx, count, rise) -> starts of the runs whose capacity sits
    # below ``count`` (above it when ``rise``), as a list for bisect.
    run_cache: dict[tuple[int, int, bool], list[int]] = {}

    def next_crossing(zi: int, count: int, after: int, rise: bool) -> int:
        """First step ``>= after`` whose capacity is below ``count``
        (above it when ``rise``), or ``n_steps``."""
        if after >= n_steps:
            return n_steps
        cap = caps_list[zi][after]
        if cap > count if rise else cap < count:
            return after
        key = (zi, count, rise)
        starts = run_cache.get(key)
        if starts is None:
            values = run_values[zi]
            starts = run_starts[zi][values > count if rise else values < count].tolist()
            run_cache[key] = starts
        # The run holding ``after`` does not qualify, so the answer is
        # the first qualifying run that starts later.
        pos = bisect_right(starts, after)
        return starts[pos] if pos < len(starts) else n_steps

    hours = step / 3600.0
    preemptions = 0
    launch_failures = 0
    spot_cost = 0.0
    od_cost = 0.0
    # Per-step series as lists (a list append beats a numpy store);
    # fast-forwarded windows extend them by repetition.
    ready_list: list[int] = []
    od_list: list[int] = []
    eff_list: list[float] = []
    prev_ready = -1
    next_id = 0
    fast_forwarded = 0

    # Shortage fast-forward state: the failed-zone tuple of the previous
    # step when it was failure-only, the policy snapshot taken while
    # that tuple repeats, and whether snapshots are worth taking.
    stall_key: Optional[tuple[str, ...]] = None
    snapshot: Optional[bytes] = None
    snap_armed = False
    picklable = True

    on_preempted = policy.on_spot_preempted
    on_ready = policy.on_spot_ready
    on_launch_failed = policy.on_spot_launch_failed
    target_mix = policy.target_mix
    select_spot_zone = policy.select_spot_zone
    n_tar = cfg.n_tar
    max_attempts = cfg.max_launch_attempts_per_step

    # Profiler locals, as in the oracle: every (mask+1)-th loop
    # iteration is timed phase by phase.  An iteration is one processed
    # step plus the window it fast-forwards, whose time is accrual.
    profiler = replayer.profiler
    prof_enabled = profiler.enabled
    prof_clock = profiler.clock
    prof_acc = profiler.accumulate if prof_enabled else None
    stride_mask = _PROFILE_STRIDE_MASK
    t_mark = 0.0
    iteration = 0

    logger.info(
        "replaying %s over %s (%d steps, %s engine)",
        policy.name,
        trace.name,
        n_steps,
        replayer.engine,
    )

    k = 0
    while k < n_steps:
        now = k * step
        bus_enabled = bus.enabled
        do_profile = prof_enabled and (iteration & stride_mask) == 0
        iteration += 1
        if do_profile:
            t_mark = prof_clock()
        if chaos_cs is not None:
            d = base_d * chaos_cs[k]
        activity = False

        # 0. Promote pending replicas whose cold start has elapsed;
        # entries whose id is gone from their zone died meanwhile.
        while pending_spot and pending_spot[0][0] <= now:
            _, rid, zi = pop_spot()
            ids_i = z_ids[zi]
            pos = bisect_left(ids_i, rid)
            if pos < sizes[zi] and ids_i[pos] == rid:
                z_ready[zi][pos] = True
                spot_ready += 1
                zone_ready[zi] += 1
                activity = True
        while pending_od and pending_od[0].ready_at <= now:
            inst = pop_od()
            if inst.alive:
                inst.ready = True
                od_ready += 1
                activity = True
        if do_profile:
            t_now = prof_clock()
            prof_acc("replay.promote", t_now - t_mark)
            t_mark = t_now

        # 1. Preemptions from capacity - count row math; victim subsets
        # drawn by the identical partial Fisher–Yates procedure (and
        # the identical whole-zone wipe shortcut) as the oracle.
        for zi in range(n_zones):  # repro: draw-parity[victim-sampling]: oracle (replay.py) must draw the identical victim skeleton
            count = sizes[zi]
            if count == 0:
                continue
            excess = count - caps_list[zi][k]
            if excess <= 0:
                continue
            activity = True
            ids_i = z_ids[zi]
            rd_i = z_ready[zi]
            if excess >= count:
                victim_positions: Sequence[int] = range(count - 1, -1, -1)
            else:
                u = rng.random(excess)
                idx = list(range(count))
                for t in range(excess):
                    j = t + int(u[t] * (count - t))
                    idx[t], idx[j] = idx[j], idx[t]
                victim_positions = sorted(idx[:excess], reverse=True)
            zone = zones[zi]
            for pos in victim_positions:
                if rd_i[pos]:
                    spot_ready -= 1
                    zone_ready[zi] -= 1
                preemptions += 1
                if bus_enabled:
                    bus.emit(ReplicaPreempted(now, ids_i[pos], zone, True))
                on_preempted(zone)
            ra_i = z_ready_at[zi]
            for pos in victim_positions:  # descending: later deletions stay valid
                del ids_i[pos], ra_i[pos], rd_i[pos]
            sizes[zi] = count - excess
            spot_total -= excess
        if do_profile:
            t_now = prof_clock()
            prof_acc("replay.preempt", t_now - t_mark)
            t_mark = t_now

        # 2. Observe and ask the policy for targets.
        ready_spot_obs = spot_ready
        ready_od_obs = od_ready
        n_od = len(od)
        obs = Observation(
            now,
            n_tar,
            spot_total,
            ready_spot_obs,
            n_od,
            ready_od_obs,
            {zones[i]: sizes[i] for i in range(n_zones) if sizes[i]},
        )
        mix = target_mix(obs)
        if do_profile:
            t_now = prof_clock()
            prof_acc("replay.policy", t_now - t_mark)
            t_mark = t_now

        # 3. Reconcile the spot fleet — the loop is line-for-line the
        # oracle's, over the per-zone lists.  ``tried`` records that the
        # loop was entered at all: selection may mutate placer state
        # (e.g. round-robin rotation), so a step that tried is never
        # quiescent, only possibly failure-only.
        spot_target = mix.spot_target
        counted = spot_total if mix.count_provisioning_spot else ready_spot_obs
        tried = counted < spot_target
        attempts = 0
        failed_zones: set[str] = set()
        failed_order: list[str] = []
        excluded = _EMPTY_FROZENSET
        obs_now: Optional[Observation] = obs
        while counted < spot_target and attempts < max_attempts:
            attempts += 1
            if obs_now is None:
                obs_now = Observation(
                    now,
                    n_tar,
                    spot_total,
                    ready_spot_obs,
                    n_od,
                    ready_od_obs,
                    {zones[i]: sizes[i] for i in range(n_zones) if sizes[i]},
                )
            zone = select_spot_zone(obs_now, excluded)
            if zone is None:
                break
            zi = zone_index[zone]  # KeyError for unknown zones, like the oracle
            n_i = sizes[zi]
            if n_i < caps_list[zi][k]:
                activity = True
                next_id += 1
                ready_at = now + d
                z_ids[zi].append(next_id)
                z_ready_at[zi].append(ready_at)
                z_ready[zi].append(d <= 0)
                if d <= 0:
                    spot_ready += 1
                    zone_ready[zi] += 1
                else:
                    push_spot((ready_at, next_id, zi))
                sizes[zi] = n_i + 1
                spot_total += 1
                if bus_enabled:
                    bus.emit(ReplicaLaunch(now, next_id, zone, True))
                on_ready(zone)
                counted += 1
                obs_now = None
            else:
                launch_failures += 1
                failed_zones.add(zone)
                failed_order.append(zone)
                excluded = frozenset(failed_zones)
                if bus_enabled:
                    bus.emit(ReplicaLaunchFailed(now, -1, zone, True))
                on_launch_failed(zone)
        while spot_total > spot_target:
            activity = True
            # Scale down the unique max of (ready_at, id); ids ascend
            # within a zone, so the last occurrence of the zone's max
            # ready_at is its (ready_at, id) maximum.
            best_ra = -math.inf
            best_id = -1
            best_zi = -1
            best_pos = -1
            for zi in range(n_zones):
                n_i = sizes[zi]
                if n_i == 0:
                    continue
                ra_i = z_ready_at[zi]
                ra_v = max(ra_i)
                pos = n_i - 1 - ra_i[::-1].index(ra_v)
                id_v = z_ids[zi][pos]
                if ra_v > best_ra or (ra_v == best_ra and id_v > best_id):
                    best_ra, best_id, best_zi, best_pos = ra_v, id_v, zi, pos
            zi, pos = best_zi, best_pos
            if z_ready[zi][pos]:
                spot_ready -= 1
                zone_ready[zi] -= 1
            del z_ids[zi][pos], z_ready_at[zi][pos], z_ready[zi][pos]
            sizes[zi] -= 1
            spot_total -= 1
            if bus_enabled:
                bus.emit(ReplicaTerminated(now, best_id, zones[zi], True, "scale_down"))

        # 4. Reconcile the on-demand fleet (oracle code, shared types).
        while len(od) < mix.od_target:
            activity = True
            inst = _ReplayInstance(zone=None, spot=False, ready_at=now + d)
            od.append(inst)
            if d <= 0:
                inst.ready = True
                od_ready += 1
            else:
                push_od(inst)
        while len(od) > mix.od_target:
            activity = True
            victim = od.pop()
            victim.alive = False
            if victim.ready:
                od_ready -= 1
        if do_profile:
            t_now = prof_clock()
            prof_acc("replay.reconcile", t_now - t_mark)
            t_mark = t_now

        # 5. Accrue cost and record readiness — same fold order and
        # expressions as the oracle, so the floats agree bit for bit.
        if price_rows is not None:
            spot_cost += (
                sum(sizes[i] * price_rows[i][k] for i in range(n_zones) if sizes[i])
                * hours
            )
        elif multipliers:
            spot_cost += (
                sum(sizes[i] * mult_by_zone[i] for i in range(n_zones) if sizes[i])
                * hours
            )
        else:
            spot_cost += spot_total * hours
        od_cost += len(od) * cfg.k * hours
        total_ready = spot_ready + od_ready
        if bus_enabled and (k == 0 or total_ready != prev_ready):
            bus.emit(FleetSample(now, total_ready, n_tar))
        prev_ready = total_ready
        ready_list.append(total_ready)
        od_list.append(len(od))
        if track_eff:
            if activity:
                # Every ready-count change is activity; otherwise the
                # weighted sum is the previous step's.
                eff = float(od_ready)
                for zi in range(n_zones):
                    count = zone_ready[zi]
                    if count:
                        eff += zone_weight[zi] * count
            eff_list.append(eff)

        # 6. Fast-forward the steps that provably repeat this one.
        after = k + 1
        nxt = after
        if activity or not fluid_ok:
            stall_key = None
        else:
            shortage = False
            if not tried:
                # Quiescent: the same no-op decision repeats until the
                # next promotion or capacity crossing.
                stall_key = None
                nxt = n_steps
            else:
                # Failure-only: a candidate fixed point once the
                # failed-zone tuple repeats; the failures repeat until a
                # failed zone gains capacity.
                key = tuple(failed_order)
                if key != stall_key:
                    stall_key = key
                    snapshot = None
                    snap_armed = True
                elif snap_armed and picklable and not bus_enabled:
                    shortage = True
                    nxt = n_steps
                    for zone in key:
                        zi = zone_index[zone]
                        nxt = min(nxt, next_crossing(zi, sizes[zi], after, True))
            # Bound the window; churn usually ends it at the very next
            # step, so stop looking once it cannot get any shorter.
            for zi in range(n_zones):
                count = sizes[zi]
                if count and nxt > after:
                    nxt = min(nxt, next_crossing(zi, count, after, False))
            if pending_spot and nxt > after:
                nxt = min(nxt, bucket_step(pending_spot[0][0], step))
            if pending_od and nxt > after:
                nxt = min(nxt, bucket_step(pending_od[0].ready_at, step))
            if shortage:
                # Confirm the fixed point: the policy left this step
                # exactly as it entered it (the snapshot holds its state
                # after the previous step).  Snapshots are only worth
                # taking while a window could follow.
                if nxt == after:
                    snapshot = None
                else:
                    try:
                        snap = pickle.dumps(policy, pickle.HIGHEST_PROTOCOL)
                    except _PICKLE_ERRORS:
                        picklable = False
                        nxt = after
                    else:
                        if snap != snapshot:
                            if snapshot is None:
                                snapshot = snap
                            else:
                                # Stop until the tuple changes.
                                snap_armed = False
                            nxt = after
            if nxt > after:
                # Fill steps after..nxt-1 in closed form.
                width = nxt - after
                ready_list += [total_ready] * width
                od_list += [len(od)] * width
                if track_eff:
                    eff_list += [eff] * width
                # Seeded sequential accumulate: buf[0] carries the
                # running total and np.add.accumulate applies the
                # per-step adds in order — the exact float left fold of
                # the discrete loop.
                buf = np.empty(width + 1)
                if price_np is not None:
                    contrib = np.zeros(width)
                    for i in range(n_zones):
                        if sizes[i]:
                            contrib = contrib + sizes[i] * price_np[i][after:nxt]
                    buf[1:] = contrib * hours
                elif multipliers:
                    buf[1:] = (
                        sum(sizes[i] * mult_by_zone[i] for i in range(n_zones) if sizes[i])
                        * hours
                    )
                else:
                    buf[1:] = spot_total * hours
                buf[0] = spot_cost
                np.add.accumulate(buf, out=buf)
                spot_cost = float(buf[-1])
                buf[0] = od_cost
                buf[1:] = len(od) * cfg.k * hours
                np.add.accumulate(buf, out=buf)
                od_cost = float(buf[-1])
                launch_failures += width * len(failed_order)
                fast_forwarded += width
        if do_profile:
            prof_acc("replay.accrue", prof_clock() - t_mark)
        k = nxt

    replayer._next_id = next_id
    replayer.fast_forwarded_steps = fast_forwarded
    if bus.enabled:
        end = n_steps * step
        bus.emit(CostSnapshot(end, spot_cost, od_cost, spot_cost + od_cost))
    baseline = cfg.k * cfg.n_tar * (n_steps * step / 3600.0)
    ready_series = np.asarray(ready_list, dtype=int)
    eff_series: Optional[np.ndarray] = None
    eff_availability: Optional[float] = None
    if track_eff:
        eff_series = np.asarray(eff_list, dtype=float)
        eff_availability = float((eff_series >= cfg.n_tar).mean())
    return ReplayResult(
        policy=policy.name,
        trace=trace.name,
        n_tar=cfg.n_tar,
        availability=float((ready_series >= cfg.n_tar).mean()),
        relative_cost=(spot_cost + od_cost) / baseline,
        spot_cost=spot_cost,
        od_cost=od_cost,
        preemptions=preemptions,
        launch_failures=launch_failures,
        ready_series=ready_series,
        step=step,
        od_series=np.asarray(od_list, dtype=int),
        eff_ready_series=eff_series,
        eff_availability=eff_availability,
    )
