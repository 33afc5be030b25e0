"""Service controller (§4, Fig. 8).

The controller owns the replica life cycle: it launches spot and
on-demand replicas where the policy tells it to, watches readiness,
reacts to preemptions and launch failures, gracefully drains surplus
replicas, and exposes the ready set to the load balancer.  It runs a
reconciliation loop every ``reconcile_interval`` seconds plus an
immediate pass after every lifecycle event, mirroring SkyServe's
controller + readiness-probe design.

Policy/mechanism split: all decisions about *how many* and *where* come
from the attached :class:`~repro.serving.policy.ServingPolicy`
(SpotHedge or a baseline); the controller only executes them.
"""

from __future__ import annotations

import itertools
import logging
from typing import Optional

import numpy as np

from repro.cloud.gpus import capacity_weight, is_pool, pool_zone, split_pool
from repro.cloud.instance import Instance, InstanceCallbacks
from repro.cloud.network import NetworkModel, default_network
from repro.cloud.provider import SimCloud
from repro.serving.autoscaler import Autoscaler
from repro.serving.inference import ModelProfile, scale_profile_for_accelerator
from repro.serving.load_balancer import LoadBalancer, make_balancer
from repro.serving.policy import MixTarget, Observation, ServingPolicy
from repro.serving.replica import Replica, ReplicaState
from repro.serving.spec import ServiceSpec
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import Counter, TimeSeries
from repro.telemetry.events import (
    AutoscaleDecision,
    AutoscalerSample,
    FleetSample,
    LoadBalancerFallback,
    PreemptWarning,
    ProbeFailure,
    ReplicaLaunch,
    ReplicaLaunchFailed,
    ReplicaLoadSample,
    ReplicaPreempted,
    ReplicaReady,
    ReplicaTerminated,
    RouteDecision,
)
from repro.workloads.request import Request

__all__ = ["ServiceController"]

logger = logging.getLogger(__name__)

# Safety valve for policies that do not count in-flight launches
# (MArk/AWSSpot): never hold more than this many times the target in
# alive spot replicas.  Fig. 12 observes ~14 provisioning replicas for a
# target of 4, i.e. a factor of ~3.5.
_MAX_OVERREQUEST_FACTOR = 4


class ServiceController:
    """Executes a serving policy against the simulated cloud."""

    def __init__(
        self,
        engine: SimulationEngine,
        cloud: SimCloud,
        spec: ServiceSpec,
        policy: ServingPolicy,
        profile: ModelProfile,
        *,
        network: Optional[NetworkModel] = None,
        balancer: Optional[LoadBalancer] = None,
        rng: Optional[np.random.Generator] = None,
        reconcile_interval: float = 10.0,
        client_region: str = "aws:us-west-2",
        adaptive_parallelism: bool = False,
        probe_interval: Optional[float] = None,
        probe_timeout: float = 30.0,
    ) -> None:
        self.engine = engine
        self.cloud = cloud
        self.spec = spec
        self.policy = policy
        self.profile = profile
        self.network = network or default_network()
        self.balancer = balancer or make_balancer(
            spec.load_balancing_policy,
            client_region=client_region,
            network=self.network,
        )
        self._rng = rng
        self.reconcile_interval = reconcile_interval
        self.autoscaler = Autoscaler(
            spec.replica_policy, initial_target=spec.replica_policy.min_replicas
        )
        self.replicas: list[Replica] = []
        self._replica_ids = itertools.count(1)
        self._instance_replica: dict[int, Replica] = {}
        self._adaptive_parallelism = adaptive_parallelism

        # Zones usable for spot must be covered by the capacity trace.
        allowed = spec.resources.allowed_zones(cloud.topology)
        self.spot_zones = [z.id for z in allowed if z.id in cloud.trace.zone_ids]
        self.od_zones = [z.id for z in allowed]
        # Heterogeneous traces carry (zone, instance-type) pool rows
        # ("zone@itype", repro.cloud.gpus): a pool is usable for spot
        # when its base zone is allowed.  Pool order follows the trace
        # so placement sees a deterministic pool list.
        allowed_ids = {z.id for z in allowed}
        self.spot_zones += [
            trace_id
            for trace_id in cloud.trace.zone_ids
            if is_pool(trace_id) and pool_zone(trace_id) in allowed_ids
        ]
        if not self.od_zones:
            raise ValueError("service spec allows no zones in this topology")
        self._zone_itype = self._resolve_instance_types()
        self._zone_profile, self._zone_weight = self._resolve_serving_profiles()

        # Metrics (Fig. 10 ready-replica timelines, Fig. 12 provisioning
        # counts, availability windows).
        self.ready_spot_series = TimeSeries("ready_spot")
        self.ready_od_series = TimeSeries("ready_od")
        self.ready_total_series = TimeSeries("ready_total")
        self.provisioning_spot_series = TimeSeries("provisioning_spot")
        self.n_tar_series = TimeSeries("n_tar")
        self.preemption_count = Counter("replica_preemptions")
        self.launch_failure_count = Counter("replica_launch_failures")
        # Zones with a recent capacity error are excluded from placement
        # until the cooldown expires (real failover does not hammer a
        # zone that just returned InsufficientCapacity).
        self._zone_cooldown: dict[str, float] = {}
        self.zone_failure_cooldown = 2.0 * cloud.config.failure_detect_delay
        # Readiness probing (SS4): periodically run a tiny compute
        # workload on every ready replica; replicas that do not answer
        # within probe_timeout are replaced.  None disables probing.
        if probe_interval is not None and probe_interval <= 0:
            raise ValueError("probe_interval must be positive when set")
        if probe_timeout <= 0:
            raise ValueError("probe_timeout must be positive")
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.probe_failure_count = Counter("probe_failures")
        self._probe_ids = -1  # probe requests use negative ids
        self._started = False

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _resolve_instance_types(self) -> dict[str, str]:
        """Pick, per zone, the cheapest instance type (by spot price)
        carrying the requested accelerator in that zone's cloud.  Pool
        ids carry their instance type explicitly and resolve to it."""
        accelerator = self.spec.resources.accelerator
        by_cloud: dict[str, str] = {}
        for itype in self.cloud.catalog.with_accelerator(accelerator):
            best = by_cloud.get(itype.cloud)
            if best is None or itype.spot_hourly < self.cloud.catalog.get(best).spot_hourly:
                by_cloud[itype.cloud] = itype.name
        mapping: dict[str, str] = {}
        for zone_id in self.od_zones:
            cloud_name = zone_id.split(":")[0]
            if cloud_name in by_cloud:
                mapping[zone_id] = by_cloud[cloud_name]
        for zone_id in self.spot_zones:
            _base, itype_name = split_pool(zone_id)
            if itype_name is None:
                continue
            itype = self.cloud.catalog.get(itype_name)
            if itype.accelerator is None:
                raise ValueError(
                    f"pool {zone_id!r}: instance type {itype_name!r} "
                    "carries no accelerator"
                )
            mapping[zone_id] = itype_name
        if not mapping:
            raise ValueError(
                f"no instance type with accelerator {accelerator!r} "
                "available in any allowed zone"
            )
        # Zones whose cloud lacks the accelerator are unusable; drop them.
        self.spot_zones = [z for z in self.spot_zones if z in mapping]
        self.od_zones = [z for z in self.od_zones if z in mapping]
        return mapping

    def _resolve_serving_profiles(
        self,
    ) -> tuple[dict[str, ModelProfile], dict[str, float]]:
        """Per-zone model profile and capacity weight.

        Zones running the service's reference accelerator share the
        *same* profile object and weight 1.0 (the homogeneous path is
        untouched); pools on other GPU classes get decode timing scaled
        by the class throughput ratio and a matching capacity weight for
        the balancers (repro.cloud.gpus)."""
        reference = self.spec.resources.accelerator
        profiles: dict[str, ModelProfile] = {}
        weights: dict[str, float] = {}
        for zone_id, itype_name in self._zone_itype.items():
            accelerator = self.cloud.catalog.get(itype_name).accelerator
            if accelerator is None or accelerator == reference:
                profiles[zone_id] = self.profile
                weights[zone_id] = 1.0
            else:
                profiles[zone_id] = scale_profile_for_accelerator(
                    self.profile, accelerator, reference=reference
                )
                weights[zone_id] = capacity_weight(accelerator, reference)
        return profiles, weights

    def start(self) -> None:
        """Begin the reconciliation loop.  Call once, before running."""
        if self._started:
            raise RuntimeError("controller already started")
        self._started = True
        self._timers = [
            self.engine.call_after(0.0, self._tick),
            self.engine.call_every(self.reconcile_interval, self._tick),
        ]
        if self.probe_interval is not None:
            self._timers.append(
                self.engine.call_every(self.probe_interval, self._probe_all)
            )

    def stop(self) -> None:
        """Halt the reconciliation and probe loops (service teardown).
        Safe to call before start() or repeatedly."""
        self._stopped = True
        for timer in getattr(self, "_timers", []):
            timer.cancel()

    # ------------------------------------------------------------------
    # Observation and request routing
    # ------------------------------------------------------------------
    def _alive_replicas(self, spot: bool) -> list[Replica]:
        """Replicas that count toward the policy's targets: alive, not
        being scaled down, and not doomed by a preemption warning (a
        doomed replica still serves, but its replacement must launch
        now)."""
        return [
            r
            for r in self.replicas
            if r.spot == spot
            and r.state is not ReplicaState.DEAD
            and not r.draining
            and not r.doomed
        ]

    def _routable_replicas(self, spot: bool) -> list[Replica]:
        """Replicas the balancer may still send traffic to — includes
        doomed-but-alive ones riding out their warning grace."""
        return [
            r
            for r in self.replicas
            if r.spot == spot and r.is_ready and not r.draining
        ]

    def ready_replicas(self) -> list[Replica]:
        return [
            r
            for r in self.replicas
            if r.is_ready and not r.draining
        ]

    def observe(self) -> Observation:
        spot_alive = self._alive_replicas(spot=True)
        od_alive = self._alive_replicas(spot=False)
        by_zone: dict[str, int] = {}
        for replica in spot_alive:
            by_zone[replica.zone_id] = by_zone.get(replica.zone_id, 0) + 1
        return Observation(
            now=self.engine.now,
            n_tar=self.autoscaler.n_tar,
            spot_launched=len(spot_alive),
            spot_ready=sum(1 for r in spot_alive if r.is_ready),
            od_launched=len(od_alive),
            od_ready=sum(1 for r in od_alive if r.is_ready),
            spot_by_zone=by_zone,
        )

    def route(self, request: Request) -> Optional[Replica]:
        """Route one request; feeds the autoscaler's QPS window."""
        self.autoscaler.record_request(self.engine.now)
        replica = self.balancer.pick(self.ready_replicas(), request)
        bus = self.engine.telemetry
        if bus.enabled and replica is not None:
            bus.emit(
                RouteDecision(
                    time=self.engine.now,
                    request_id=request.request_id,
                    replica_id=replica.id,
                    zone=replica.zone_id,
                    balancer=type(self.balancer).__name__,
                    ongoing=replica.ongoing_requests,
                )
            )
            if getattr(self.balancer, "last_pick_fallback", False):
                bus.emit(
                    LoadBalancerFallback(
                        time=self.engine.now,
                        request_id=request.request_id,
                        replica_id=replica.id,
                        balancer=type(self.balancer).__name__,
                    )
                )
        return replica

    def note_slo_ttft(self, value: float) -> None:
        """Client-reported time-to-first-token sample (SLO signal)."""
        self.autoscaler.record_ttft(self.engine.now, value)

    def note_slo_tpot(self, value: float) -> None:
        """Client-reported time-per-output-token sample (SLO signal)."""
        self.autoscaler.record_tpot(self.engine.now, value)

    def status(self) -> list[dict[str, object]]:
        """A ``sky serve status``-style snapshot of every live replica."""
        rows = []
        for replica in self.replicas:
            state = replica.state.value
            if replica.draining:
                state += " (draining)"
            elif replica.doomed:
                state += " (preempt warned)"
            rows.append(
                {
                    "replica": replica.id,
                    "market": "spot" if replica.spot else "on-demand",
                    "zone": replica.zone_id,
                    "state": state,
                    "ongoing_requests": replica.ongoing_requests,
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if getattr(self, "_stopped", False):
            return
        old_target = self.autoscaler.n_tar
        self.autoscaler.evaluate(self.engine.now)
        if self.autoscaler.n_tar != old_target:
            logger.info(
                "t=%.1f autoscale: N_Tar %d -> %d",
                self.engine.now,
                old_target,
                self.autoscaler.n_tar,
            )
            bus = self.engine.telemetry
            if bus.enabled:
                bus.emit(
                    AutoscaleDecision(
                        time=self.engine.now,
                        old_target=old_target,
                        new_target=self.autoscaler.n_tar,
                        request_rate=self.autoscaler.request_rate(self.engine.now),
                        mode=self.spec.replica_policy.autoscale_mode,
                        slo_violation_rate=self.autoscaler.slo_violation_rate(
                            self.engine.now
                        ),
                    )
                )
        self._reap_drained()
        obs = self.observe()
        mix = self.policy.target_mix(obs)
        self._reconcile_spot(obs, mix)
        self._reconcile_od(obs, mix)
        self._record_metrics()

    def _cooling_zones(self) -> frozenset[str]:
        now = self.engine.now
        self._zone_cooldown = {
            z: t for z, t in self._zone_cooldown.items() if t > now
        }
        return frozenset(self._zone_cooldown)

    def _policy_view(self, obs: Observation, mix: MixTarget) -> Observation:
        """The observation as the policy's worldview sees it.

        Policies that do not count in-flight launches (MArk, AWSSpot —
        built for fast CPU readiness) also do not see them in the
        per-zone placement counts; that blindness is what produces the
        Fig. 12 over-requesting.
        """
        if mix.count_provisioning_spot:
            return obs
        ready_by_zone: dict[str, int] = {}
        for replica in self._alive_replicas(spot=True):
            if replica.is_ready:
                ready_by_zone[replica.zone_id] = (
                    ready_by_zone.get(replica.zone_id, 0) + 1
                )
        return Observation(
            now=obs.now,
            n_tar=obs.n_tar,
            spot_launched=obs.spot_ready,
            spot_ready=obs.spot_ready,
            od_launched=obs.od_launched,
            od_ready=obs.od_ready,
            spot_by_zone=ready_by_zone,
        )

    def _reconcile_spot(self, obs: Observation, mix: MixTarget) -> None:
        alive = self._alive_replicas(spot=True)
        counted = (
            len(alive)
            if mix.count_provisioning_spot
            else sum(1 for r in alive if r.is_ready)
        )
        if counted < mix.spot_target:
            cap = max(
                mix.spot_target * _MAX_OVERREQUEST_FACTOR, mix.spot_target + 2
            )
            deficit = mix.spot_target - counted
            excluded = (
                self._cooling_zones()
                if self.policy.respects_zone_cooldown
                else frozenset()
            )
            for _ in range(deficit):
                if len(self._alive_replicas(spot=True)) >= cap:
                    break
                obs = self._policy_view(self.observe(), mix)
                zone = self.policy.select_spot_zone(obs, excluded)
                if zone is None:
                    break
                self._launch_replica(zone, spot=True)
        elif len(alive) > mix.spot_target:
            surplus = len(alive) - mix.spot_target
            for victim in self._scale_down_victims(alive, surplus):
                self._retire(victim)

    def _reconcile_od(self, obs: Observation, mix: MixTarget) -> None:
        alive = self._alive_replicas(spot=False)
        if len(alive) < mix.od_target:
            for _ in range(mix.od_target - len(alive)):
                obs = self.observe()
                zone = self.policy.select_od_zone(obs)
                if zone is None:
                    break
                self._launch_replica(zone, spot=False)
        elif len(alive) > mix.od_target:
            surplus = len(alive) - mix.od_target
            for victim in self._scale_down_victims(alive, surplus):
                self._retire(victim)

    @staticmethod
    def _scale_down_victims(alive: list[Replica], surplus: int) -> list[Replica]:
        """Pick replicas to remove: cancel still-launching ones first
        (cheapest to stop), then the youngest ready ones."""
        launching = [r for r in alive if not r.is_ready]
        ready = [r for r in alive if r.is_ready]
        ordered = launching + sorted(ready, key=lambda r: -(r.ready_at or 0.0))
        return ordered[:surplus]

    def _retire(self, replica: Replica) -> None:
        """Gracefully remove a replica: drain if serving, else kill now."""
        if replica.is_ready and replica.ongoing_requests > 0:
            replica.draining = True  # excluded from routing; reaped later
            return
        self._destroy(replica, reason="scale_down")

    def _reap_drained(self) -> None:
        for replica in list(self.replicas):
            if replica.draining and replica.ongoing_requests == 0:
                self._destroy(replica, reason="drained")

    def _destroy(self, replica: Replica, *, reason: str = "teardown") -> None:
        for worker in list(replica.workers):
            self.cloud.terminate(worker)
            self._instance_replica.pop(worker.id, None)
        replica.kill()
        if replica in self.replicas:
            self.replicas.remove(replica)
        logger.debug(
            "t=%.1f replica %d terminated (%s)", self.engine.now, replica.id, reason
        )
        bus = self.engine.telemetry
        if bus.enabled:
            bus.emit(
                ReplicaTerminated(
                    time=self.engine.now,
                    replica_id=replica.id,
                    zone=replica.zone_id,
                    spot=replica.spot,
                    reason=reason,
                )
            )

    # ------------------------------------------------------------------
    # Launch path and lifecycle callbacks
    # ------------------------------------------------------------------
    def _launch_replica(self, zone_id: str, *, spot: bool) -> Replica:
        if spot and zone_id not in self.spot_zones:
            raise ValueError(f"zone {zone_id!r} not enabled for spot launches")
        if not spot and zone_id not in self.od_zones:
            raise ValueError(f"zone {zone_id!r} not enabled for launches")
        replica = Replica(
            self.engine,
            self._zone_profile.get(zone_id, self.profile),
            zone_id=zone_id,
            spot=spot,
            rng=self._rng,
            adaptive_parallelism=self._adaptive_parallelism,
            replica_id=next(self._replica_ids),
            max_queue=self.spec.max_queue_per_replica,
            capacity_weight=self._zone_weight.get(zone_id, 1.0),
        )
        self.replicas.append(replica)
        itype = self._zone_itype[zone_id]
        callbacks = InstanceCallbacks(
            on_ready=self._on_instance_ready,
            on_preempted=self._on_instance_preempted,
            on_failed=self._on_instance_failed,
            on_preempt_warning=self._on_preempt_warning,
        )
        for _ in range(self.spec.resources.workers_per_replica):
            instance = self.cloud.request_instance(
                zone_id, itype, spot=spot, callbacks=callbacks
            )
            replica.attach_worker(instance)
            self._instance_replica[instance.id] = replica
        logger.debug(
            "t=%.1f launch replica %d in %s (%s)",
            self.engine.now,
            replica.id,
            zone_id,
            "spot" if spot else "on-demand",
        )
        bus = self.engine.telemetry
        if bus.enabled:
            bus.emit(
                ReplicaLaunch(
                    time=self.engine.now,
                    replica_id=replica.id,
                    zone=zone_id,
                    spot=spot,
                )
            )
        return replica

    def _on_instance_ready(self, instance: Instance) -> None:
        replica = self._instance_replica.get(instance.id)
        if replica is None or replica.state is ReplicaState.DEAD:
            self.cloud.terminate(instance)
            return
        became_ready = replica.worker_ready(instance)
        if became_ready:
            logger.debug(
                "t=%.1f replica %d ready in %s",
                self.engine.now,
                replica.id,
                replica.zone_id,
            )
            bus = self.engine.telemetry
            if bus.enabled:
                bus.emit(
                    ReplicaReady(
                        time=self.engine.now,
                        replica_id=replica.id,
                        zone=replica.zone_id,
                        spot=replica.spot,
                    )
                )
            if replica.spot:
                self._touch_audit()
                self.policy.on_spot_ready(replica.zone_id)
            self._after_event()

    def _on_instance_preempted(self, instance: Instance) -> None:
        replica = self._instance_replica.pop(instance.id, None)
        if replica is None:
            return
        was_alive = replica.state is not ReplicaState.DEAD
        replica.worker_lost(instance)
        if replica.state is ReplicaState.DEAD and was_alive:
            if replica in self.replicas:
                self.replicas.remove(replica)
            for worker in list(replica.workers):
                self.cloud.terminate(worker)
                self._instance_replica.pop(worker.id, None)
            self.preemption_count.add()
            logger.info(
                "t=%.1f replica %d preempted in %s (warned=%s)",
                self.engine.now,
                replica.id,
                replica.zone_id,
                instance.preempt_warned,
            )
            bus = self.engine.telemetry
            if bus.enabled:
                bus.emit(
                    ReplicaPreempted(
                        time=self.engine.now,
                        replica_id=replica.id,
                        zone=replica.zone_id,
                        spot=replica.spot,
                        warned=instance.preempt_warned,
                    )
                )
        if replica.spot and not instance.crashed:
            # A hardware fault says nothing about the zone's spot
            # market, so the placer is not penalised for it.
            self._touch_audit()
            self.policy.on_spot_preempted(replica.zone_id)
        self._after_event()

    def _on_preempt_warning(self, instance: Instance) -> None:
        """Best-effort preemption warning (§4, "Preemption handling").

        The doomed replica keeps serving its in-flight requests but
        receives no new traffic, the zone is marked as preempting so the
        replacement avoids it, and a reconcile launches the replacement
        immediately — shaving up to the warning period off the recovery.
        §2.3's caveat still holds: with ~180 s cold starts, a 30-120 s
        warning cannot eliminate the gap, only shorten it.
        """
        replica = self._instance_replica.get(instance.id)
        if replica is None or replica.state is ReplicaState.DEAD:
            return
        already_doomed = replica.doomed
        replica.doomed = True
        if not already_doomed:
            bus = self.engine.telemetry
            if bus.enabled:
                bus.emit(
                    PreemptWarning(
                        time=self.engine.now,
                        replica_id=replica.id,
                        zone=replica.zone_id,
                    )
                )
        if replica.spot:
            self._touch_audit()
            self.policy.on_spot_preempted(replica.zone_id)
        self._after_event()

    def _on_instance_failed(self, instance: Instance) -> None:
        replica = self._instance_replica.pop(instance.id, None)
        if replica is None:
            return
        was_alive = replica.state is not ReplicaState.DEAD
        replica.worker_lost(instance)
        if replica.state is ReplicaState.DEAD and was_alive:
            if replica in self.replicas:
                self.replicas.remove(replica)
            for worker in list(replica.workers):
                self.cloud.terminate(worker)
                self._instance_replica.pop(worker.id, None)
            self.launch_failure_count.add()
            logger.info(
                "t=%.1f replica %d launch failed in %s",
                self.engine.now,
                replica.id,
                replica.zone_id,
            )
            bus = self.engine.telemetry
            if bus.enabled:
                bus.emit(
                    ReplicaLaunchFailed(
                        time=self.engine.now,
                        replica_id=replica.id,
                        zone=replica.zone_id,
                        spot=replica.spot,
                    )
                )
        if replica.spot:
            self._zone_cooldown[replica.zone_id] = (
                self.engine.now + self.zone_failure_cooldown
            )
            self._touch_audit()
            self.policy.on_spot_launch_failed(replica.zone_id)
        self._after_event()

    # ------------------------------------------------------------------
    # Readiness probing (SS4)
    # ------------------------------------------------------------------
    def _probe_all(self) -> None:
        for replica in list(self.ready_replicas()):
            self._probe(replica)

    def _probe(self, replica: Replica) -> None:
        """Send one tiny compute request; replace the replica if it
        does not answer within the probe timeout."""
        self._probe_ids -= 1
        probe = Request(
            request_id=self._probe_ids,
            arrival_time=self.engine.now,
            input_tokens=1,
            output_tokens=1,
        )
        state = {"answered": False}

        def on_answer(_request: Request) -> None:
            state["answered"] = True

        replica.handle(probe, on_answer, on_answer, urgent=True)

        def check() -> None:
            if state["answered"] or replica.state is ReplicaState.DEAD:
                return
            self.probe_failure_count.add()
            logger.warning(
                "t=%.1f replica %d failed readiness probe in %s",
                self.engine.now,
                replica.id,
                replica.zone_id,
            )
            bus = self.engine.telemetry
            if bus.enabled:
                bus.emit(
                    ProbeFailure(
                        time=self.engine.now,
                        replica_id=replica.id,
                        zone=replica.zone_id,
                    )
                )
            self._destroy(replica, reason="probe_failure")
            self._after_event()

        self.engine.call_after(self.probe_timeout, check)

    def _after_event(self) -> None:
        """Reconcile promptly after a lifecycle event (not re-entrantly)."""
        self.engine.call_after(0.0, self._tick)

    def _touch_audit(self) -> None:
        """Advance the policy audit clock before a lifecycle callback.

        The ``on_spot_*`` notifications carry no :class:`Observation`, so
        without this the audit log would stamp Z_A/Z_P transitions with
        the time of the *previous* reconcile tick.
        """
        audit = self.policy.audit
        if audit is not None:
            audit.touch(self.engine.now)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_metrics(self) -> None:
        now = self.engine.now
        spot_alive = self._alive_replicas(spot=True)
        od_alive = self._alive_replicas(spot=False)
        # Readiness counts include doomed-but-serving replicas: until
        # the cloud actually reclaims them they handle traffic.
        ready_spot = len(self._routable_replicas(spot=True))
        ready_od = len(self._routable_replicas(spot=False))
        self.ready_spot_series.record(now, ready_spot)
        self.ready_od_series.record(now, ready_od)
        self.ready_total_series.record(now, ready_spot + ready_od)
        self.provisioning_spot_series.record(
            now, sum(1 for r in spot_alive if not r.is_ready)
        )
        self.n_tar_series.record(now, self.autoscaler.n_tar)
        bus = self.engine.telemetry
        if bus.enabled:
            n_tar = self.autoscaler.n_tar
            bus.emit(FleetSample(now, ready_spot + ready_od, n_tar))
            bus.emit(
                AutoscalerSample(
                    time=now,
                    target=n_tar,
                    candidate=self.autoscaler.candidate_target(now),
                    request_rate=self.autoscaler.request_rate(now),
                    slo_violation_rate=self.autoscaler.slo_violation_rate(now),
                )
            )
            for replica in self.replicas:
                if not replica.is_ready:
                    continue
                bus.emit(
                    ReplicaLoadSample(
                        time=now,
                        replica_id=replica.id,
                        zone=replica.zone_id,
                        executing=replica.executing_requests,
                        queued=replica.queue_depth,
                        shed=replica.shed_count,
                    )
                )

    def availability(self, start: float, end: float, n_tar: Optional[int] = None) -> float:
        """Fraction of [start, end] with at least n_tar replicas ready
        (default: the autoscaler's current target, at least 1) — the
        availability every service and tenant report carries."""
        threshold = n_tar if n_tar is not None else max(self.autoscaler.n_tar, 1)
        return self.ready_total_series.fraction_at_least(threshold, start, end)
