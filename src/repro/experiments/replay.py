"""Policy replay on spot obtainability traces (§5.2).

Instead of simulating the full request path, this harness replays a
:class:`SpotTrace` at replica granularity, exactly like the paper's
simulated-preemption experiments: at every trace step the policy sees
its fleet, preemptions are injected wherever zone capacity drops below
the policy's placements, launches fail in zones without capacity, and
replicas become ready one cold start after a successful launch.

Outputs per policy: availability (fraction of steps with ≥ N_Tar ready
replicas — Fig. 14a), cost relative to an all-on-demand deployment
(Fig. 14b), and a queueing-based service-latency estimate for a given
workload (Figs. 14c/d and 15).

Performance: the replay step loop is the substrate every figure sweep
multiplies through (policy × trace × seed × parameter), so it avoids
O(fleet) work per step.  Zone capacity rows are extracted from the
trace once, fleet and readiness counts are maintained incrementally,
and scale-down selects its victim with a single max-scan instead of
sorting the fleet per termination.  :func:`estimate_latency` is fully
vectorised — O(steps + requests) instead of O(requests × steps).

:class:`TraceReplayer` has one step loop for both engines.  On
``engine="discrete"`` it processes every step: the per-instance oracle.
On ``engine="hybrid"`` (the default) each step is followed by a
fast-forward check that fills the steps a quiescent or capacity-shortage
window provably repeats in closed form; the window rules and helpers
live in :mod:`repro.experiments.fastpath`.  Every step that is not
skipped is the oracle's, so the two engines agree byte for byte on
every :class:`ReplayResult` field.
"""

from __future__ import annotations

import logging
import math
import pickle
from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, MutableSequence, Optional, Sequence

import numpy as np

from repro.cloud.traces import SpotTrace
from repro.experiments.fastpath import bucket_step, crossing_lookup
from repro.serving.policy import Observation, ServingPolicy, supports_fluid
from repro.sim.rng import RngRegistry
from repro.telemetry.events import (
    NULL_BUS,
    CostSnapshot,
    EventBus,
    FleetSample,
    ReplicaLaunch,
    ReplicaLaunchFailed,
    ReplicaPreempted,
    ReplicaTerminated,
)
from repro.telemetry.profile import NULL_PROFILER, PhaseProfiler
from repro.workloads.request import Workload

__all__ = [
    "ENGINES",
    "ReplayConfig",
    "ReplayResult",
    "TraceReplayer",
    "erlang_c_wait",
    "estimate_latency",
]

#: Replay engines accepted by :class:`TraceReplayer`.  Both run the
#: same step loop: ``discrete`` steps through every trace step (the
#: oracle); ``hybrid`` (the default) also fast-forwards the windows it
#: can prove repeat (:mod:`repro.experiments.fastpath`).  Both produce
#: byte-identical :class:`ReplayResult` objects for every config;
#: ``TraceReplayer.fast_forwarded_steps`` reports how many steps a
#: hybrid run skipped.
ENGINES: tuple[str, ...] = ("discrete", "hybrid")

logger = logging.getLogger(__name__)

#: What ``pickle.dumps`` raises for a policy it cannot serialise
#: (shortage cycle check): lambdas and local classes raise
#: ``PicklingError``/``AttributeError``, locks and generators
#: ``TypeError``.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)

#: Shortage cycles: how many failure-only steps of the current run are
#: remembered (so the longest detectable period is one less), and how
#: many policy pickles a run may take without closing a cycle before
#: it stops taking them.
_CYCLE_CAP = 32

#: Profiling samples every (mask+1)-th iteration of the replay loop.  Stride
#: sampling keeps the enabled-profiler overhead under the 5% budget
#: (clock reads per sampled step only) while still attributing time to
#: the five phases proportionally; the stats underestimate absolute
#: totals by ~the stride, which ``PhaseProfiler.stride`` records.
#: Stride 32: six clock reads per sampled step amortise to well under
#: 5% of the ~1.5 us step (stride 16 measured right at the budget).
_PROFILE_STRIDE_MASK = 31


@dataclass(frozen=True)
class ReplayConfig:
    """Replay parameters.

    ``k`` is the on-demand/spot price ratio; costs are reported relative
    to holding ``n_tar`` on-demand replicas for the whole trace.  The
    default cold start follows the §2.3 measurement (~183 s).
    """

    n_tar: int = 4
    cold_start: float = 180.0
    k: float = 3.0
    max_launch_attempts_per_step: int = 8
    #: Optional per-zone spot price multipliers (1.0 = the base spot
    #: unit price).  Models the regional price spread MIN-COST exploits;
    #: zones absent from the mapping cost 1.0.
    zone_price_multipliers: Optional[Mapping[str, float]] = None
    #: Optional per-zone (or per-pool, for ``zone@itype`` heterogeneous
    #: traces) serving-capacity weights in reference-replica units.
    #: When set, the replay additionally tracks *effective* readiness —
    #: weighted ready capacity per step — and reports
    #: ``eff_availability``/``eff_ready_series``; zones absent from the
    #: mapping weigh 1.0.  ``None`` (the default) leaves the replay
    #: loop byte-identical to the unweighted code.
    zone_capacity_weights: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        if self.n_tar < 1:
            raise ValueError("n_tar must be >= 1")
        if self.cold_start < 0:
            raise ValueError("negative cold start")
        if self.k <= 0:
            raise ValueError("non-positive cost ratio")
        if self.max_launch_attempts_per_step < 1:
            raise ValueError("need at least one launch attempt per step")
        if self.zone_price_multipliers is not None:
            for zone, multiplier in self.zone_price_multipliers.items():
                if multiplier <= 0:
                    raise ValueError(f"non-positive price multiplier for {zone}")
        if self.zone_capacity_weights is not None:
            for zone, weight in self.zone_capacity_weights.items():
                if weight <= 0:
                    raise ValueError(f"non-positive capacity weight for {zone}")


def _ready_order(inst: "_ReplayInstance") -> tuple[float, int]:
    """Sort key for pending queues under time-varying cold starts."""
    return (inst.ready_at, inst.id)


@dataclass(slots=True)
class _ReplayInstance:
    zone: Optional[str]  # None for on-demand
    spot: bool
    ready_at: float
    id: int = -1  # replica id in telemetry events; -1 when untracked
    ready: bool = False  # promoted once ``ready_at`` has passed
    alive: bool = True  # cleared on preemption/termination (lazy removal)


@dataclass(frozen=True)
class ReplayResult:
    """Per-policy replay outcome."""

    policy: str
    trace: str
    n_tar: int
    availability: float
    relative_cost: float
    spot_cost: float
    od_cost: float
    preemptions: int
    launch_failures: int
    ready_series: np.ndarray  # total ready replicas per step
    step: float
    #: Launched on-demand instances per step (the Dynamic Fallback
    #: footprint); ``None`` for results deserialised from entries that
    #: predate the field.
    od_series: Optional[np.ndarray] = None
    #: Weighted (effective) ready capacity per step, in reference-
    #: replica units, and the fraction of steps it covers ``n_tar``.
    #: Only populated when ``ReplayConfig.zone_capacity_weights`` is
    #: set — heterogeneous fleets; ``None`` otherwise.
    eff_ready_series: Optional[np.ndarray] = None
    eff_availability: Optional[float] = None

    def summary_row(self) -> str:  # pragma: no cover - formatting helper
        return (
            f"{self.policy:<12} {self.trace:<8} avail={self.availability:6.1%} "
            f"cost={self.relative_cost:5.1%} of OD  "
            f"preemptions={self.preemptions}"
        )


class TraceReplayer:
    """Replays one policy over one trace."""

    def __init__(
        self,
        trace: SpotTrace,
        config: Optional[ReplayConfig] = None,
        *,
        seed: int = 0,
        telemetry: Optional[EventBus] = None,
        profiler: Optional[PhaseProfiler] = None,
        cold_start_factors: Optional[Sequence[float]] = None,
        zone_price_factors: Optional[Mapping[str, Sequence[float]]] = None,
        engine: str = "hybrid",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown replay engine {engine!r}: expected one of {ENGINES}"
            )
        self.trace = trace
        self.config = config or ReplayConfig()
        self.engine = engine
        self._seed = seed
        self._rng = RngRegistry(seed).stream("replay")
        self.telemetry = telemetry if telemetry is not None else NULL_BUS
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        if self.profiler.enabled:
            # Replay phases are stride-sampled (see _PROFILE_STRIDE_MASK);
            # record that on the profiler so reports flag the stats.
            self.profiler.stride = _PROFILE_STRIDE_MASK + 1
        self._next_id = 0
        #: Steps the last ``run()`` fast-forwarded instead of stepping
        #: (always 0 on the discrete engine).
        self.fast_forwarded_steps = 0
        # Chaos overlay hooks (repro.chaos.overlay): per-step cold-start
        # multipliers and per-zone per-step spot price multipliers.  Both
        # default to None so the no-chaos replay path is untouched.
        if cold_start_factors is not None and len(cold_start_factors) != trace.n_steps:
            raise ValueError(
                f"{len(cold_start_factors)} cold-start factors for "
                f"{trace.n_steps} trace steps"
            )
        if zone_price_factors is not None:
            for zone, factors in zone_price_factors.items():
                if len(factors) != trace.n_steps:
                    raise ValueError(
                        f"zone {zone!r}: {len(factors)} price factors for "
                        f"{trace.n_steps} trace steps"
                    )
        self._cold_start_factors = (
            list(cold_start_factors) if cold_start_factors is not None else None
        )
        self._zone_price_factors = (
            {zone: list(f) for zone, f in zone_price_factors.items()}
            if zone_price_factors is not None
            else None
        )

    def run(self, policy: ServingPolicy, *, spot_zones: Optional[Sequence[str]] = None) -> ReplayResult:
        """Replay ``policy`` over the full trace.

        Every call starts from a pristine replayer: the RNG stream and
        the telemetry replica-id counter are re-derived from the
        constructor seed, so replaying a second policy on the same
        instance sees the exact stream a fresh replayer would.
        """
        # Per-run reset — without it a second run() consumed a shifted
        # RNG stream and continued the replica-id sequence.
        self._rng = RngRegistry(self._seed).stream("replay")
        self._next_id = 0
        self.fast_forwarded_steps = 0
        cfg = self.config
        trace = self.trace
        bus = self.telemetry
        rng = self._rng
        zones = list(spot_zones) if spot_zones is not None else list(trace.zone_ids)
        step = trace.step
        base_d = cfg.cold_start
        d = base_d
        chaos_cs = self._cold_start_factors
        n_steps = trace.n_steps
        # Zone capacity rows, extracted once as contiguous arrays and
        # materialised to plain int lists: per-step scalar indexing of a
        # numpy row costs ~100 ns in boxing alone and used to dominate
        # the loop.
        zone_caps: dict[str, list[int]] = {
            zone: np.ascontiguousarray(trace.zone_row(zone)).tolist() for zone in zones
        }
        # Fleet state, all maintained incrementally: per-zone instance
        # lists (insertion-ordered — victim draws index into them),
        # per-zone placement counts, total/ready counters, and FIFO
        # queues of not-yet-ready instances.  The cold start is a
        # constant, so launch order == readiness order and one deque
        # front-pop per promotion replaces the old per-step fleet scans.
        zone_insts: dict[str, list[_ReplayInstance]] = {zone: [] for zone in zones}
        zone_count: dict[str, int] = {zone: 0 for zone in zones}
        # (zone, caps, instances) triples hoisted out of the step loop so
        # the preemption scan does no per-step dict lookups.
        zone_state = [(zone, zone_caps[zone], zone_insts[zone]) for zone in zones]
        spot_total = 0
        spot_ready = 0
        od: list[_ReplayInstance] = []  # launch-ordered; newest at the tail
        od_ready = 0
        # Pending (not-yet-ready) queues.  With a constant cold start,
        # launch order == readiness order and FIFO deques suffice; under
        # a chaos cold-start overlay ready_at is no longer monotone in
        # launch order, so entries are kept sorted by (ready_at, id)
        # instead.  The queue operations are bound once so the step loop
        # is identical either way — and byte-identical to the pre-chaos
        # code when no overlay is attached.
        pending_spot: MutableSequence[_ReplayInstance]
        pending_od: MutableSequence[_ReplayInstance]
        push_spot: Callable[[_ReplayInstance], None]
        push_od: Callable[[_ReplayInstance], None]
        pop_spot: Callable[[], _ReplayInstance]
        pop_od: Callable[[], _ReplayInstance]
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
            push_spot = partial(insort, pending_spot, key=_ready_order)
            push_od = partial(insort, pending_od, key=_ready_order)
            pop_spot = partial(pending_spot.pop, 0)
            pop_od = partial(pending_od.pop, 0)
        multipliers = dict(cfg.zone_price_multipliers or {})
        price_rows: Optional[dict[str, list[float]]] = None
        if self._zone_price_factors is not None:
            # Fold the static per-zone multipliers into the per-step
            # chaos factor rows once, so cost accrual does one indexed
            # lookup per occupied zone per step.
            price_rows = {}
            for zone in zones:
                base = multipliers.get(zone, 1.0)
                factors = self._zone_price_factors.get(zone)
                if factors is None:
                    price_rows[zone] = [base] * n_steps
                else:
                    price_rows[zone] = [base * f for f in factors]
        hours = step / 3600.0
        preemptions = 0
        launch_failures = 0
        spot_cost = 0.0
        od_cost = 0.0
        ready_list: list[int] = []
        od_list: list[int] = []
        # Heterogeneous capacity accounting: per-zone *ready* counts
        # (exact integers) are only maintained when weights are set, so
        # the homogeneous path stays byte-identical; the weighted sum is
        # recomputed in fixed zone order from those integers on every
        # step with fleet activity (no other step changes a count) — no
        # incremental float accumulation, no dict-order dependence.
        weights = cfg.zone_capacity_weights
        track_eff = weights is not None
        zone_weight: dict[str, float] = (
            {zone: float(weights.get(zone, 1.0)) for zone in zones}
            if weights is not None
            else {}
        )
        zone_ready: dict[str, int] = {zone: 0 for zone in zones}
        eff_list: list[float] = []
        eff = 0.0
        # Observed placements (non-zero zone counts), rebuilt only after
        # a count changes; Observations share it until then.
        placed: Optional[dict[str, int]] = None
        # Step 6 state (hybrid engine only, see repro.experiments.fastpath):
        # run-indexed capacity crossings, price rows as numpy rows for
        # window products, and the shortage cycle tracker — the failed-
        # zone tuples of the current run of failure-only steps, the
        # policy pickle after each (None where none was taken), and the
        # pickles taken since the run last closed a cycle.
        fast_forward = self.engine == "hybrid" and supports_fluid(policy)
        if fast_forward:
            next_crossing = crossing_lookup(trace, zone_caps)
            price_np = (
                {zone: np.asarray(row) for zone, row in price_rows.items()}
                if price_rows is not None
                else None
            )
        fast_forwarded = 0
        run_keys: deque[tuple[str, ...]] = deque(maxlen=_CYCLE_CAP)
        run_snaps: deque[Optional[bytes]] = deque(maxlen=_CYCLE_CAP)
        run_pickles = 0
        picklable = True
        next_id = self._next_id
        # Pre-bound callables: attribute lookups on ``policy``/``cfg``
        # inside the step loop are measurable at trace scale.
        on_preempted = policy.on_spot_preempted
        on_ready = policy.on_spot_ready
        on_launch_failed = policy.on_spot_launch_failed
        target_mix = policy.target_mix
        select_spot_zone = policy.select_spot_zone
        n_tar = cfg.n_tar
        max_attempts = cfg.max_launch_attempts_per_step
        # Profiler locals: when disabled, each step pays one short-
        # circuited ``and`` plus five false branch checks — no clock
        # reads, no objects, no allocations.  Every (mask+1)-th loop
        # iteration is timed; an iteration is one processed step plus
        # the window it fast-forwards, whose time is accrual.
        profiler = self.profiler
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
            self.engine,
        )

        k_step = 0
        while k_step < n_steps:
            now = k_step * step
            bus_enabled = bus.enabled
            do_profile = prof_enabled and (iteration & stride_mask) == 0
            iteration += 1
            if do_profile:
                t_mark = prof_clock()
            if chaos_cs is not None:
                d = base_d * chaos_cs[k_step]
            activity = False

            # 0. Promote instances whose cold start has elapsed.  The
            # queues are ordered by ready_at; dead entries are skipped.
            while pending_spot and pending_spot[0].ready_at <= now:
                inst = pop_spot()
                if inst.alive:
                    inst.ready = True
                    spot_ready += 1
                    activity = True
                    if track_eff:
                        zone_ready[inst.zone] += 1
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

            # 1. Inject preemptions: per zone, capacity below placements.
            for zone, caps, in_zone in zone_state:
                count = zone_count[zone]
                if count == 0:
                    continue
                excess = count - caps[k_step]
                if excess <= 0:
                    continue
                activity = True
                if excess >= count:
                    # Whole zone wiped (the §2.2 blackout case): every
                    # instance is a victim — no random draw needed.
                    victim_indices = range(count - 1, -1, -1)
                else:
                    # Uniform subset via partial Fisher–Yates driven by
                    # one batched uniform draw — an order of magnitude
                    # cheaper than Generator.choice(replace=False) at
                    # fleet sizes, with the same victim distribution.
                    u = rng.random(excess)
                    idx = list(range(count))
                    for t in range(excess):
                        j = t + int(u[t] * (count - t))
                        idx[t], idx[j] = idx[j], idx[t]
                    victim_indices = sorted(idx[:excess], reverse=True)
                for index in victim_indices:
                    victim = in_zone.pop(index)
                    victim.alive = False
                    if victim.ready:
                        spot_ready -= 1
                        if track_eff:
                            zone_ready[zone] -= 1
                    preemptions += 1
                    if bus_enabled:
                        # Positional construction: kwargs cost ~2x
                        # on this hot path (fields: time,
                        # replica_id, zone, spot).
                        bus.emit(ReplicaPreempted(now, victim.id, zone, True))
                    on_preempted(zone)
                zone_count[zone] = count - excess
                spot_total -= excess
                placed = None
            if do_profile:
                t_now = prof_clock()
                prof_acc("replay.preempt", t_now - t_mark)
                t_mark = t_now

            # 2. Observe and ask the policy for targets.  Readiness is
            # observed once per step: launches later in the step use the
            # same snapshot (their instances are not ready yet anyway
            # unless the cold start is zero).
            ready_spot_obs = spot_ready
            ready_od_obs = od_ready
            n_od = len(od)
            if placed is None:
                placed = {z: c for z, c in zone_count.items() if c}
            # Positional construction (field order: now, n_tar,
            # spot_launched, spot_ready, od_launched, od_ready,
            # spot_by_zone) — kwargs are measurably slower here.
            obs = Observation(
                now, n_tar, spot_total, ready_spot_obs, n_od, ready_od_obs, placed
            )
            mix = target_mix(obs)
            if do_profile:
                t_now = prof_clock()
                prof_acc("replay.policy", t_now - t_mark)
                t_mark = t_now

            # 3. Reconcile spot fleet.  Zones that already returned a
            # capacity error this step are not retried within the step:
            # ``failed`` is an insertion-ordered set of them, and its
            # live keys view is the ``excluded`` set every attempt sees.
            # The observation is rebuilt only after a successful launch —
            # a failed attempt changes nothing the policy can observe
            # except the ``excluded`` set, which is passed separately.
            # ``tried`` records that the loop was entered at all:
            # selection may mutate placer state (e.g. round-robin
            # rotation), so a step that tried is never quiescent, only
            # possibly failure-only.
            spot_target = mix.spot_target
            counted = spot_total if mix.count_provisioning_spot else ready_spot_obs
            tried = counted < spot_target
            attempts = 0
            failed: dict[str, None] = {}
            excluded = failed.keys()
            obs_now: Optional[Observation] = obs
            while counted < spot_target and attempts < max_attempts:
                attempts += 1
                if obs_now is None:
                    placed = {z: c for z, c in zone_count.items() if c}
                    obs_now = Observation(
                        now, n_tar, spot_total, ready_spot_obs, n_od, ready_od_obs, placed
                    )
                zone = select_spot_zone(obs_now, excluded)
                if zone is None:
                    break
                caps = zone_caps.get(zone)
                if caps is None:
                    raise ValueError(
                        f"policy {policy.name!r} selected zone {zone!r}, which is "
                        f"not one of the replay's spot zones {zones}"
                    )
                if zone_count[zone] < caps[k_step]:
                    activity = True
                    next_id += 1
                    inst = _ReplayInstance(zone=zone, spot=True, ready_at=now + d, id=next_id)
                    zone_insts[zone].append(inst)
                    zone_count[zone] += 1
                    spot_total += 1
                    placed = None
                    if d <= 0:
                        inst.ready = True
                        spot_ready += 1
                        if track_eff:
                            zone_ready[zone] += 1
                    else:
                        push_spot(inst)
                    if bus_enabled:
                        bus.emit(ReplicaLaunch(now, next_id, zone, True))
                    on_ready(zone)  # launch succeeded in this zone
                    counted += 1
                    obs_now = None  # placements changed: rebuild lazily
                else:
                    launch_failures += 1
                    failed[zone] = None
                    if bus_enabled:
                        # No replica object ever existed for a failed
                        # attempt at this granularity: id -1.
                        bus.emit(ReplicaLaunchFailed(now, -1, zone, True))
                    on_launch_failed(zone)
            while spot_total > spot_target:
                # Scale down: drop the newest (least likely to be
                # ready) — a single max-scan over the (small) fleet;
                # id breaks ready_at ties towards the latest launch.
                activity = True
                victim = None
                for insts in zone_insts.values():
                    for inst in insts:
                        if victim is None or (inst.ready_at, inst.id) >= (
                            victim.ready_at,
                            victim.id,
                        ):
                            victim = inst
                assert victim is not None  # spot_total > 0
                zone_insts[victim.zone].remove(victim)
                victim.alive = False
                if victim.ready:
                    spot_ready -= 1
                    if track_eff:
                        zone_ready[victim.zone] -= 1
                zone_count[victim.zone] -= 1
                spot_total -= 1
                placed = None
                if bus_enabled:
                    bus.emit(
                        ReplicaTerminated(
                            now, victim.id, victim.zone or "", True, "scale_down"
                        )
                    )

            # 4. Reconcile on-demand fleet (always obtainable, §5.1).
            # ``od`` is launch-ordered, so scale-down pops the newest
            # from the tail.
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

            # 5. Accrue cost and record readiness.
            if price_rows is not None:
                spot_step = (
                    sum(c * price_rows[z][k_step] for z, c in zone_count.items() if c)
                    * hours
                )  # base multiplier folded into the per-step rows
            elif multipliers:
                spot_step = (
                    sum(c * multipliers.get(z, 1.0) for z, c in zone_count.items() if c)
                    * hours
                )  # spot replica-hour = 1 unit at the base price
            else:
                spot_step = spot_total * hours
            spot_cost += spot_step
            od_step = len(od) * cfg.k * hours
            od_cost += od_step
            total_ready = spot_ready + od_ready
            if bus_enabled and (k_step == 0 or total_ready != ready_list[-1]):
                bus.emit(FleetSample(now, total_ready, n_tar))
            ready_list.append(total_ready)
            od_list.append(len(od))
            if track_eff:
                if activity:
                    # On-demand replicas are reference instances (weight
                    # 1); spot capacity is summed in fixed zone order.
                    eff = float(od_ready)
                    for zone in zones:
                        count = zone_ready[zone]
                        if count:
                            eff += zone_weight[zone] * count
                eff_list.append(eff)

            # 6. Fast-forward the steps that provably repeat this one
            # (hybrid engine; the rules are in repro.experiments.fastpath).
            # A quiescent step repeats until the next promotion or
            # capacity crossing.  A failure-only step joins the run of
            # them in run_keys/run_snaps; once its pickle equals the one
            # ``period`` entries back, those steps form a cycle that
            # repeats whole until a zone that failed in it gains capacity.
            after = k_step + 1
            nxt = after
            if activity or not tried or not fast_forward:
                # Any other kind of step ends the run of failure-only steps.
                if run_keys:
                    run_keys.clear()
                    run_snaps.clear()
                run_pickles = 0
            if fast_forward and not activity:
                key = tuple(failed)
                # A window can follow a failure-only step only once its
                # failed-zone tuple recurs in the run (a cycle repeats
                # its tuples) and the run has pickles left to spend.
                candidate = not tried or (
                    key in run_keys
                    and run_pickles < _CYCLE_CAP
                    and picklable
                    and not bus_enabled
                )
                if candidate:
                    # Bound the window by the next preemption or
                    # promotion; churn usually ends it at the very next
                    # step, so stop looking once it cannot get shorter.
                    nxt = n_steps
                    for zone, count in zone_count.items():
                        if count and nxt > after:
                            nxt = min(nxt, next_crossing(zone, count, after, False))
                    if pending_spot and nxt > after:
                        nxt = min(nxt, bucket_step(pending_spot[0].ready_at, step))
                    if pending_od and nxt > after:
                        nxt = min(nxt, bucket_step(pending_od[0].ready_at, step))
                if tried:
                    snap: Optional[bytes] = None
                    period = 0
                    if candidate and nxt > after:
                        try:
                            snap = pickle.dumps(policy, pickle.HIGHEST_PROTOCOL)
                        except _PICKLE_ERRORS:
                            picklable = False
                        else:
                            run_pickles += 1
                            n_run = len(run_snaps)
                            for back in range(1, n_run + 1):
                                if run_snaps[n_run - back] == snap:
                                    period = back
                                    break
                    if period:
                        # The cycle is the last period - 1 recorded steps
                        # plus this one; it repeats until any of its
                        # failed zones gains capacity.
                        run_pickles = 0
                        cycle_failures = len(key)
                        cycle_zones = set(key)
                        for index in range(len(run_keys) - period + 1, len(run_keys)):
                            cycle_failures += len(run_keys[index])
                            cycle_zones.update(run_keys[index])
                        for zone in cycle_zones:
                            if nxt > after:
                                nxt = min(nxt, next_crossing(zone, zone_count[zone], after, True))
                        # Skip whole cycles only; the partial remainder is
                        # stepped (and found to repeat again).
                        cycles = (nxt - after) // period
                        nxt = after + cycles * period
                        launch_failures += cycles * cycle_failures
                    else:
                        nxt = after
                    run_keys.append(key)
                    run_snaps.append(snap)
                if nxt > after:
                    # Fill steps after..nxt-1 in closed form.
                    width = nxt - after
                    ready_list += [total_ready] * width
                    od_list += [len(od)] * width
                    if track_eff:
                        eff_list += [eff] * width
                    if width == 1 and price_np is None:
                        # The fleet is unchanged, so the next step
                        # accrues exactly what this one did.
                        spot_cost += spot_step
                        od_cost += od_step
                    else:
                        # Seeded sequential accumulate: buf[0] carries the
                        # running total and np.add.accumulate applies the
                        # per-step adds in order — the exact float left
                        # fold of the per-step accrual above.
                        buf = np.empty(width + 1)
                        if price_np is not None:
                            contrib = np.zeros(width)
                            for z, c in zone_count.items():
                                if c:
                                    contrib = contrib + c * price_np[z][after:nxt]
                            buf[1:] = contrib * hours
                        else:
                            buf[1:] = spot_step
                        buf[0] = spot_cost
                        np.add.accumulate(buf, out=buf)
                        spot_cost = float(buf[-1])
                        buf[0] = od_cost
                        buf[1:] = od_step
                        np.add.accumulate(buf, out=buf)
                        od_cost = float(buf[-1])
                    fast_forwarded += width
            if do_profile:
                prof_acc("replay.accrue", prof_clock() - t_mark)
            k_step = nxt

        self._next_id = next_id
        self.fast_forwarded_steps = fast_forwarded
        if bus.enabled:
            # Terminal cost snapshot so report timelines and scorecards
            # see the accrued totals without re-deriving them.
            end = n_steps * step
            bus.emit(CostSnapshot(end, spot_cost, od_cost, spot_cost + od_cost))
        ready_series = np.asarray(ready_list, dtype=int)
        baseline = cfg.k * cfg.n_tar * (n_steps * step / 3600.0)
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


# ----------------------------------------------------------------------
# Latency estimation from ready-replica series (Figs. 14c/d, 15)
# ----------------------------------------------------------------------


def erlang_c_wait(arrival_rate: float, service_time: float, servers: int) -> float:
    """Expected M/M/c queueing delay (Erlang C), in seconds.

    Returns ``inf`` when the system is unstable (ρ ≥ 1) or has no
    servers.
    """
    if servers <= 0:
        return math.inf
    if arrival_rate <= 0:
        return 0.0
    if service_time <= 0:
        return 0.0
    offered = arrival_rate * service_time  # Erlangs
    rho = offered / servers
    if rho >= 1.0:
        return math.inf
    # Erlang C probability of waiting, computed iteratively for stability.
    inv_b = 1.0
    for j in range(1, servers + 1):
        inv_b = 1.0 + inv_b * j / offered
    erlang_b = 1.0 / inv_b
    p_wait = erlang_b / (1.0 - rho * (1.0 - erlang_b))
    return p_wait * service_time / (servers * (1.0 - rho))


def estimate_latency(
    result: ReplayResult,
    workload: Workload,
    *,
    service_time: float = 8.0,
    concurrency_per_replica: int = 8,
    timeout: float = 100.0,
) -> np.ndarray:
    """Per-request latency estimates for a replayed policy.

    Each request sees the replica count of its arrival step.  With
    replicas up, latency = service time + Erlang-C queueing delay at
    the current arrival rate (each replica contributes
    ``concurrency_per_replica`` servers).  With no replicas (downtime),
    the request waits for the next step with capacity and times out at
    ``timeout`` — failed requests are reported *at* the timeout, which
    matches how the paper folds failures into tail latency.

    Vectorised: arrivals are binned per step with ``np.bincount``, the
    downtime wait comes from a precomputed next-step-with-capacity
    index, and the Erlang-C delay is evaluated once per arrival step
    instead of once per request — O(steps + requests) total, where the
    per-request reference is O(requests × steps) on downtime-heavy
    series.
    """
    if service_time <= 0 or timeout <= 0:
        raise ValueError("service_time and timeout must be positive")
    ready = result.ready_series
    step = result.step
    n = len(ready)
    horizon = n * step
    arrivals = workload.arrival_times  # sorted by Workload's contract
    arrivals = arrivals[arrivals < horizon]
    latencies = np.empty(len(arrivals))
    if len(arrivals) == 0:
        return latencies
    arrival_steps = (arrivals // step).astype(np.int64)
    # Arrival rate per step, for the Erlang-C load.
    rates = np.bincount(arrival_steps, minlength=n) / step

    # nxt[k]: first step >= k with capacity (n when there is none).
    indices = np.arange(n, dtype=np.int64)
    nxt = np.where(ready > 0, indices, n)
    nxt = np.minimum.accumulate(nxt[::-1])[::-1]

    # waits[m]: the downtime wait after skipping m empty steps,
    # accumulated additively (m × step up to float association) exactly
    # as the per-request scan would; m_timeout is the first m at which
    # the wait reaches the timeout.
    waits = np.zeros(n + 1)
    np.add.accumulate(np.full(n, step), out=waits[1:])
    m_timeout = int(np.searchsorted(waits, timeout, side="left"))

    # Latency is a function of the arrival step alone, so evaluate it
    # once per occupied step and gather.  The Erlang-C evaluation is
    # further memoised by (rate, servers): rates are integer arrival
    # counts over a fixed step and servers are quantised by replica
    # count, so long series collapse to a handful of distinct pairs and
    # the O(servers) iterative sum runs once per pair instead of once
    # per occupied step.  Same scalar function → bit-identical results.
    lat_by_step = np.full(n, float(timeout))
    wait_cache: dict[tuple[float, int], float] = {}
    for k in np.unique(arrival_steps):
        j = int(nxt[k])
        if j >= n or j - k >= m_timeout:
            continue  # no capacity before the timeout: reported at it
        servers = int(ready[j]) * concurrency_per_replica
        cache_key = (float(rates[j]), servers)
        queue_wait = wait_cache.get(cache_key)
        if queue_wait is None:
            queue_wait = erlang_c_wait(cache_key[0], service_time, servers)
            wait_cache[cache_key] = queue_wait
        total = waits[j - k] + queue_wait + service_time
        lat_by_step[k] = min(total, timeout)
    latencies[:] = lat_by_step[arrival_steps]
    return latencies


def _estimate_latency_reference(
    result: ReplayResult,
    workload: Workload,
    *,
    service_time: float = 8.0,
    concurrency_per_replica: int = 8,
    timeout: float = 100.0,
) -> np.ndarray:
    """Per-request scalar reference for :func:`estimate_latency`.

    Kept verbatim from before the vectorisation so property tests can
    assert the fast path is numerically identical.  O(requests × steps)
    in the worst case — do not use outside tests.
    """
    if service_time <= 0 or timeout <= 0:
        raise ValueError("service_time and timeout must be positive")
    ready = result.ready_series
    step = result.step
    horizon = len(ready) * step
    rates = np.zeros(len(ready))
    for request in workload:
        if request.arrival_time < horizon:
            rates[int(request.arrival_time // step)] += 1.0
    rates /= step

    latencies = np.empty(len([r for r in workload if r.arrival_time < horizon]))
    index = 0
    for request in workload:
        if request.arrival_time >= horizon:
            break
        k_step = int(request.arrival_time // step)
        waited = 0.0
        j = k_step
        while j < len(ready) and ready[j] == 0 and waited < timeout:
            waited += step
            j += 1
        if waited >= timeout or j >= len(ready):
            latencies[index] = timeout
        else:
            servers = int(ready[j]) * concurrency_per_replica
            queue_wait = erlang_c_wait(rates[j], service_time, servers)
            total = waited + queue_wait + service_time
            latencies[index] = min(total, timeout)
        index += 1
    return latencies
