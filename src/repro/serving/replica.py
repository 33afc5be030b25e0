"""Model replicas.

A :class:`Replica` is the serving unit: one model endpoint backed by one
or more cloud instances (Fig. 2).  The single-instance case covers the
Llama-2-70B and OPT-6.7B experiments; the multi-worker case models
distributed inference where a replica is partitioned over several
instances in the *same zone* (§4, "Support for distributed inference").

A multi-worker replica dies entirely when any worker is preempted —
unless ``adaptive_parallelism`` is on (the SpotServe behaviour), in which
case it re-parallelises over the survivors after a migration pause and
keeps serving at proportionally reduced throughput.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

import numpy as np

from repro.cloud.instance import Instance, InstanceState
from repro.serving.inference import InferenceServer, ModelProfile
from repro.sim.engine import SimulationEngine
from repro.telemetry.events import RequestShed
from repro.telemetry.spans import RequestSpan
from repro.workloads.request import Request

__all__ = ["Replica", "ReplicaState"]

_replica_ids = itertools.count(1)


class ReplicaState(enum.Enum):
    """Replica-level lifecycle, aggregated over the worker instances."""

    PROVISIONING = "provisioning"
    INITIALIZING = "initializing"
    READY = "ready"
    MIGRATING = "migrating"  # SpotServe re-parallelisation pause
    DEAD = "dead"


#: States in which a replica accepts requests (a migrating replica
#: queues them behind the re-parallelisation pause).
_SERVING_STATES = (ReplicaState.READY, ReplicaState.MIGRATING)


class Replica:
    """One model endpoint over ``workers`` cloud instances."""

    def __init__(
        self,
        engine: SimulationEngine,
        profile: ModelProfile,
        *,
        zone_id: str,
        spot: bool,
        rng: Optional[np.random.Generator] = None,
        adaptive_parallelism: bool = False,
        migration_pause: float = 30.0,
        replica_id: Optional[int] = None,
        max_queue: Optional[int] = None,
        capacity_weight: float = 1.0,
    ) -> None:
        # The controller passes its own per-service counter so replica
        # ids (and hence telemetry event streams) are reproducible
        # run-to-run within one process; the module-global counter only
        # backs directly constructed replicas.
        if capacity_weight <= 0:
            raise ValueError("capacity_weight must be positive")
        self.id = replica_id if replica_id is not None else next(_replica_ids)
        self.engine = engine
        self.profile = profile
        self.zone_id = zone_id
        self.spot = spot
        #: Serving capacity in reference-replica units (1.0 = the
        #: service's reference GPU).  Capacity-weighted balancers
        #: normalise ongoing load by this, so an H100 replica absorbs
        #: proportionally more traffic than an L4 one.
        self.capacity_weight = capacity_weight
        self.adaptive_parallelism = adaptive_parallelism
        self.migration_pause = migration_pause
        #: The replica's ``cloud:region`` id.  Zone ids normally follow
        #: ``cloud:region:zone``; synthetic traces use free-form ids
        #: ("z1"), for which the zone id doubles as the region id.
        parts = zone_id.rsplit(":", 1)
        self.region_id = parts[0] if len(parts) == 2 else zone_id
        self.workers: list[Instance] = []
        self._initial_workers = 0
        self.server = InferenceServer(engine, profile, rng=rng, max_queue=max_queue)
        #: Called with no arguments after every change of ``state``,
        #: ``draining`` or ``doomed`` — whoever makes it, including the
        #: engine callback that ends a migration.  The controller uses it
        #: to keep its replica index current.
        self.on_change: Optional[Callable[[], None]] = None
        self._state = ReplicaState.PROVISIONING
        self._draining = False
        self._doomed = False
        self.ready_at: Optional[float] = None
        self.died_at: Optional[float] = None

    @property
    def state(self) -> ReplicaState:
        return self._state

    @state.setter
    def state(self, state: ReplicaState) -> None:
        self._state = state
        self._changed()

    @property
    def draining(self) -> bool:
        """Set by the controller when the replica is being scaled down:
        it finishes ongoing requests but receives no new traffic."""
        return self._draining

    @draining.setter
    def draining(self, draining: bool) -> None:
        self._draining = draining
        self._changed()

    @property
    def doomed(self) -> bool:
        """Set when a preemption warning arrived: the replica keeps
        serving until the cloud reclaims it, but the controller launches
        its replacement immediately."""
        return self._doomed

    @doomed.setter
    def doomed(self, doomed: bool) -> None:
        self._doomed = doomed
        self._changed()

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()

    @property
    def is_ready(self) -> bool:
        return self._state is ReplicaState.READY

    @property
    def ongoing_requests(self) -> int:
        return self.server.ongoing

    @property
    def executing_requests(self) -> int:
        """Batch occupancy: requests holding an inference slot."""
        return self.server.executing

    @property
    def queue_depth(self) -> int:
        """Requests waiting in the server-side FIFO queue."""
        return self.server.queue_depth

    @property
    def shed_count(self) -> int:
        """Cumulative admission-control rejections on this replica."""
        return self.server.shed_count

    # ------------------------------------------------------------------
    # Worker management (driven by the controller)
    # ------------------------------------------------------------------
    def attach_worker(self, instance: Instance) -> None:
        if instance.zone_id != self.zone_id:
            raise ValueError(
                f"replica {self.id} in {self.zone_id} cannot attach a worker "
                f"in {instance.zone_id}: workers of one replica share a zone"
            )
        self.workers.append(instance)
        self._initial_workers = max(self._initial_workers, len(self.workers))

    def worker_ready(self, instance: Instance) -> bool:
        """Note a worker reaching READY.  Returns True when the whole
        replica just became ready (all workers up)."""
        if self.state is ReplicaState.DEAD:
            return False
        if all(w.state is InstanceState.READY for w in self.workers):
            became_ready = self.state is not ReplicaState.READY
            self.state = ReplicaState.READY
            if became_ready:
                self.ready_at = self.engine.now
            return became_ready
        self.state = ReplicaState.INITIALIZING
        return False

    def worker_lost(self, instance: Instance) -> None:
        """A worker was preempted or failed to launch.

        Without adaptive parallelism (or when the last worker is gone)
        the replica dies and aborts its in-flight requests; with it, the
        replica pauses for ``migration_pause`` and resumes degraded.
        """
        if instance in self.workers:
            self.workers.remove(instance)
        if self.state is ReplicaState.DEAD:
            return
        survivors = [w for w in self.workers if w.state.is_alive]
        if not survivors or not self.adaptive_parallelism:
            self.kill()
            return
        if self.state is not ReplicaState.READY:
            # Lost a worker while still coming up: cannot re-parallelise
            # a model that never loaded.
            self.kill()
            return
        self.state = ReplicaState.MIGRATING
        slowdown = self._initial_workers / len(survivors)
        self.server.set_slowdown(max(slowdown, 1.0))
        self.engine.call_after(self.migration_pause, self._migration_done)

    def _migration_done(self) -> None:
        if self.state is ReplicaState.MIGRATING:
            self.state = ReplicaState.READY

    def kill(self) -> None:
        """Tear the replica down, aborting all of its requests."""
        if self.state is ReplicaState.DEAD:
            return
        self.state = ReplicaState.DEAD
        self.died_at = self.engine.now
        self.server.abort_all()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def handle(
        self,
        request: Request,
        on_complete: Callable[[Request], None],
        on_abort: Callable[[Request], None],
        on_first_token: Optional[Callable[[Request], None]] = None,
        *,
        span: Optional[RequestSpan] = None,
        urgent: bool = False,
    ) -> bool:
        """Accept a routed request.  Only valid on a ready replica.

        Returns ``False`` when admission control shed the request (no
        callback fires; the client retries with backoff).  Requests
        landing on a non-ready replica are aborted, which counts as
        accepted (``on_abort`` fired).  ``urgent`` bypasses the queue
        bound — readiness probes must reach an overloaded replica.
        """
        if self._state not in _SERVING_STATES:
            on_abort(request)
            return True
        accepted = self.server.submit(
            request, on_complete, on_abort, on_first_token, span=span, urgent=urgent
        )
        if not accepted:
            bus = self.engine.telemetry
            if bus.enabled:
                bus.emit(
                    RequestShed(
                        time=self.engine.now,
                        request_id=request.request_id,
                        replica_id=self.id,
                        zone=self.zone_id,
                        queue_depth=self.server.queue_depth,
                    )
                )
        return accepted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "spot" if self.spot else "od"
        return f"Replica(id={self.id}, {kind} @ {self.zone_id}, {self.state.value})"
