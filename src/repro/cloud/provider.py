"""Simulated multi-cloud provider.

Plays the role AWS/GCP/Azure play in the real SkyServe deployment: it
accepts launch requests for spot or on-demand instances in specific
zones, enforces per-zone spot capacity from a :class:`SpotTrace`, preempts
running spot instances when capacity drops, applies provisioning and
cold-start delays, and bills every instance through a
:class:`BillingMeter`.

Policies never see the underlying trace — like real clients they only
observe launch successes/failures, readiness, and preemptions.  The
Omniscient ILP baseline is the one consumer allowed to read the trace
directly (the paper calls it "infeasible in practice").

Timing model (defaults follow §2.3):

* ``provision_delay`` — time from launch request to a running VM, drawn
  per-launch with jitter (default mean 60 s).
* ``setup_delay`` — model download + load into GPU (default mean 120 s);
  provisioning + setup ≈ 183 s, the paper's measured cold start for a
  Llama-2-7B vLLM endpoint.  Billing starts when the VM is running, so
  cold-start time costs money.
* ``failure_detect_delay`` — how long a capacity-exhausted launch attempt
  takes to report failure (default 30 s).
* ``preempt_warning`` — optional best-effort grace between the preemption
  warning and the kill (0 disables; AWS offers 120 s, GCP/Azure 30 s).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cloud.billing import BillingMeter
from repro.cloud.catalog import Catalog, default_catalog
from repro.cloud.instance import Instance, InstanceCallbacks, InstanceState
from repro.cloud.topology import Topology, default_topology
from repro.cloud.traces import SpotTrace
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import Counter
from repro.sim.rng import RngRegistry
from repro.telemetry.events import ZoneCapacity

__all__ = ["CloudConfig", "SimCloud"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CloudConfig:
    """Timing and behaviour knobs of the simulated provider."""

    provision_delay_mean: float = 60.0
    setup_delay_mean: float = 120.0
    delay_jitter: float = 0.15
    failure_detect_delay: float = 30.0
    preempt_warning: float = 0.0
    on_demand_capacity: Optional[int] = None  # None = unlimited per zone
    #: Mean time between injected instance faults (hardware errors,
    #: kernel panics, ...), exponential per ready instance; None
    #: disables fault injection.  Faults hit spot and on-demand alike.
    instance_mtbf: Optional[float] = None

    def __post_init__(self) -> None:
        if self.provision_delay_mean < 0 or self.setup_delay_mean < 0:
            raise ValueError("negative delay means")
        if not 0.0 <= self.delay_jitter < 1.0:
            raise ValueError(f"delay_jitter {self.delay_jitter} outside [0, 1)")
        if self.failure_detect_delay < 0 or self.preempt_warning < 0:
            raise ValueError("negative delays")
        if self.instance_mtbf is not None and self.instance_mtbf <= 0:
            raise ValueError("instance_mtbf must be positive when set")

    @property
    def cold_start_mean(self) -> float:
        """Mean end-to-end time from request to READY, absent failures."""
        return self.provision_delay_mean + self.setup_delay_mean


class SimCloud:
    """The simulated provider: launch, preempt, terminate, bill."""

    def __init__(
        self,
        engine: SimulationEngine,
        trace: SpotTrace,
        *,
        topology: Optional[Topology] = None,
        catalog: Optional[Catalog] = None,
        config: Optional[CloudConfig] = None,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        self.engine = engine
        self.trace = trace
        self.topology = topology or default_topology()
        self.catalog = catalog or default_catalog()
        self.config = config or CloudConfig()
        self._rng = (rng or RngRegistry(0)).stream("cloud")
        self.billing = BillingMeter()
        self.launch_failures = Counter("launch_failures")
        self._alive: dict[str, list[Instance]] = {z: [] for z in trace.zone_ids}
        self._od_alive: dict[str, list[Instance]] = {}
        self._doomed: set[int] = set()  # instances warned, awaiting the kill
        #: Chaos seam (:class:`repro.chaos.injector.ChaosInjector`):
        #: called per pre-warning with ``(zone_id, kill_time)``.  Return
        #: ``None`` to suppress the warning entirely (the instances are
        #: reclaimed unwarned at the drop), a positive number of seconds
        #: to delay its delivery, or ``0.0`` to deliver normally.  Unset
        #: (the default) costs nothing on the warning path.
        self.warning_gate: Optional[Callable[[str, float], Optional[float]]] = None
        self._schedule_capacity_events()

    # ------------------------------------------------------------------
    # Capacity bookkeeping
    # ------------------------------------------------------------------
    def _schedule_capacity_events(self) -> None:
        """Schedule a callback at every grid step where capacity changes.

        With a warning grace configured, capacity *drops* additionally
        schedule a best-effort pre-warning ``preempt_warning`` seconds
        earlier — the cloud knows its own reclaim decisions ahead of
        time, which is exactly what the real termination notices are.
        """
        warn = self.config.preempt_warning
        for zone_id in self.trace.zone_ids:
            row = self.trace.zone_row(zone_id)
            for k in range(1, len(row)):
                if row[k] == row[k - 1]:
                    continue
                time = k * self.trace.step
                self.engine.call_at(
                    time,
                    lambda z=zone_id, cap=int(row[k]): self._on_capacity_change(z, cap),
                )
                if warn > 0 and row[k] < row[k - 1] and time - warn >= 0:
                    self.engine.call_at(
                        time - warn,
                        lambda z=zone_id, cap=int(row[k]), t=time: self._pre_warn(
                            z, cap, t
                        ),
                    )

    def spot_usage(self, zone_id: str) -> int:
        """Alive spot instances holding capacity in the zone."""
        return len(self._alive.get(zone_id, []))

    def spot_room(self, zone_id: str) -> int:
        """Remaining launchable spot slots in the zone right now."""
        capacity = self.trace.capacity_at(zone_id, self.engine.now)
        return max(capacity - self.spot_usage(zone_id), 0)

    def _pre_warn(self, zone_id: str, new_capacity: int, kill_time: float) -> None:
        """Issue termination notices ahead of a scheduled capacity drop.

        Victims are chosen now, notified, and killed exactly at the
        drop.  Instances launched after the warning are not covered —
        they get reclaimed unwarned at the drop, which mirrors how real
        best-effort notices miss late arrivals.
        """
        gate = self.warning_gate
        if gate is not None:
            action = gate(zone_id, kill_time)
            if action is None:
                return  # suppressed: unwarned reclaim at the drop
            if action > 0:
                resume = self.engine.now + action
                if resume >= kill_time:
                    return  # delayed past the kill: warning is useless
                self.engine.call_at(
                    resume, lambda: self._pre_warn(zone_id, new_capacity, kill_time)
                )
                return
        alive = self._alive[zone_id]
        already_doomed = sum(1 for i in alive if i.id in self._doomed)
        excess = (len(alive) - already_doomed) - new_capacity
        candidates = [i for i in alive if i.id not in self._doomed]
        excess = min(excess, len(candidates))
        if excess <= 0:
            return
        victims = self._rng.choice(len(candidates), size=excess, replace=False)
        for index in sorted(victims, reverse=True):
            instance = candidates[index]
            instance.preempt_warned = True
            self._doomed.add(instance.id)
            if instance.callbacks.on_preempt_warning is not None:
                instance.callbacks.on_preempt_warning(instance)
            self.engine.call_at(kill_time, lambda i=instance: self._kill(i))

    def _on_capacity_change(self, zone_id: str, new_capacity: int) -> None:
        logger.debug(
            "t=%.1f zone %s spot capacity -> %d", self.engine.now, zone_id, new_capacity
        )
        bus = self.engine.telemetry
        if bus.enabled:
            bus.emit(
                ZoneCapacity(
                    time=self.engine.now, zone=zone_id, capacity=new_capacity
                )
            )
        alive = self._alive[zone_id]
        # Doomed instances die via their own scheduled kills at this
        # same timestamp; count only the survivors against capacity.
        candidates = [i for i in alive if i.id not in self._doomed]
        excess = len(candidates) - new_capacity
        if excess <= 0:
            return
        # The provider reclaims arbitrary instances; we draw victims
        # uniformly from a dedicated stream for determinism.
        victims = self._rng.choice(len(candidates), size=excess, replace=False)
        for index in sorted(victims, reverse=True):
            self._kill(candidates[index])

    def _kill(self, instance: Instance) -> None:
        if instance.state.is_terminal:
            return
        self._remove_alive(instance)
        self._doomed.discard(instance.id)
        if instance.state is InstanceState.PROVISIONING:
            # Capacity vanished before the VM was acquired: the launch
            # attempt fails rather than "preempting" a VM we never had.
            instance.transition(InstanceState.FAILED, self.engine.now)
            self.launch_failures.add()
            if instance.callbacks.on_failed is not None:
                instance.callbacks.on_failed(instance)
            return
        instance.transition(InstanceState.PREEMPTED, self.engine.now)
        if instance.callbacks.on_preempted is not None:
            instance.callbacks.on_preempted(instance)

    def _remove_alive(self, instance: Instance) -> None:
        pool = self._alive if instance.spot else self._od_alive
        instances = pool.get(instance.zone_id)
        if instances and instance in instances:
            instances.remove(instance)

    # ------------------------------------------------------------------
    # Launch / terminate API (what policies interact with)
    # ------------------------------------------------------------------
    def request_instance(
        self,
        zone_id: str,
        instance_type_name: str,
        *,
        spot: bool,
        callbacks: Optional[InstanceCallbacks] = None,
    ) -> Instance:
        """Request an instance.  Returns immediately with a PROVISIONING
        instance; outcomes arrive through the callbacks.

        A spot request in a zone with no free capacity fails after
        ``failure_detect_delay`` (the InsufficientCapacity error path).
        """
        if spot and zone_id not in self._alive:
            raise KeyError(f"zone {zone_id!r} not covered by trace {self.trace.name!r}")
        itype = self.catalog.get(instance_type_name)
        instance = Instance(
            zone_id=zone_id,
            instance_type=itype,
            spot=spot,
            launched_at=self.engine.now,
            callbacks=callbacks or InstanceCallbacks(),
        )
        self.billing.track(instance)
        if spot:
            if self.spot_room(zone_id) <= 0:
                self.engine.call_after(
                    self.config.failure_detect_delay, lambda: self._fail_launch(instance)
                )
                return instance
            self._alive[zone_id].append(instance)
        else:
            od_pool = self._od_alive.setdefault(zone_id, [])
            capacity = self.config.on_demand_capacity
            if capacity is not None and len(od_pool) >= capacity:
                self.engine.call_after(
                    self.config.failure_detect_delay, lambda: self._fail_launch(instance)
                )
                return instance
            od_pool.append(instance)
        provision = self._jittered(self.config.provision_delay_mean)
        self.engine.call_after(provision, lambda: self._vm_running(instance))
        return instance

    def _jittered(self, mean: float) -> float:
        if mean == 0:
            return 0.0
        jitter = self.config.delay_jitter
        if jitter == 0:
            return mean
        low, high = mean * (1 - jitter), mean * (1 + jitter)
        return float(self._rng.uniform(low, high))

    def _fail_launch(self, instance: Instance) -> None:
        if instance.state.is_terminal:
            return
        instance.transition(InstanceState.FAILED, self.engine.now)
        self.launch_failures.add()
        if instance.callbacks.on_failed is not None:
            instance.callbacks.on_failed(instance)

    def _vm_running(self, instance: Instance) -> None:
        if instance.state is not InstanceState.PROVISIONING:
            return  # already killed or failed
        instance.transition(InstanceState.INITIALIZING, self.engine.now)
        setup = self._jittered(self.config.setup_delay_mean)
        self.engine.call_after(setup, lambda: self._endpoint_ready(instance))

    def _endpoint_ready(self, instance: Instance) -> None:
        if instance.state is not InstanceState.INITIALIZING:
            return
        instance.transition(InstanceState.READY, self.engine.now)
        if self.config.instance_mtbf is not None:
            delay = float(self._rng.exponential(self.config.instance_mtbf))
            self.engine.call_after(delay, lambda: self._crash(instance))
        if instance.callbacks.on_ready is not None:
            instance.callbacks.on_ready(instance)

    def _crash(self, instance: Instance) -> None:
        """Injected instance fault: kill the instance like a preemption
        but tagged, so callers can distinguish faults from reclaims."""
        if instance.state.is_terminal:
            return
        instance.crashed = True
        self._kill(instance)

    def terminate(self, instance: Instance) -> None:
        """User-initiated scale-down.  Idempotent on dead instances."""
        if instance.state.is_terminal:
            return
        self._remove_alive(instance)
        self._doomed.discard(instance.id)
        instance.transition(InstanceState.TERMINATED, self.engine.now)

    # ------------------------------------------------------------------
    # Admission-control seams (repro.control.CapacityBroker)
    # ------------------------------------------------------------------
    def reclaim(self, instance: Instance) -> None:
        """Provider-initiated eviction of a specific instance.

        Used by multi-tenant admission control (strict-priority mode
        evicting a lower-priority tenant's spot replica).  The victim
        experiences an ordinary preemption — same callbacks, counters,
        and billing as a capacity-drop reclaim — because from a tenant's
        point of view losing capacity to another account *is* a
        preemption.  Idempotent on dead instances.
        """
        self._kill(instance)

    def reject_instance(
        self,
        zone_id: str,
        instance_type_name: str,
        *,
        spot: bool,
        callbacks: Optional[InstanceCallbacks] = None,
    ) -> Instance:
        """Deny a launch request: the admission-control analogue of the
        no-capacity path of :meth:`request_instance`.

        The caller gets a PROVISIONING instance whose launch fails after
        ``failure_detect_delay`` — byte-for-byte the InsufficientCapacity
        timing — so policies observe quota denials exactly like capacity
        exhaustion and their Alg. 1 bookkeeping reacts identically.
        """
        itype = self.catalog.get(instance_type_name)
        instance = Instance(
            zone_id=zone_id,
            instance_type=itype,
            spot=spot,
            launched_at=self.engine.now,
            callbacks=callbacks or InstanceCallbacks(),
        )
        self.billing.track(instance)
        self.engine.call_after(
            self.config.failure_detect_delay, lambda: self._fail_launch(instance)
        )
        return instance
