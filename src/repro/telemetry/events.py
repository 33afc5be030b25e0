"""Typed telemetry events and the event bus.

Every observable fact about a run — replica lifecycle transitions,
preemptions and their warnings, autoscaling moves, load-balancer routing,
per-request spans, policy decisions, cost snapshots — is a slotted
dataclass with a stable ``kind`` string and a flat, JSON-friendly field
set.  Components publish events onto an :class:`EventBus`; sinks
(``repro.telemetry.sinks``) consume them.

Events are immutable *by convention*, not enforcement: construction is
on the simulation hot path, and a plain slotted dataclass builds ~3x
faster than a frozen one (``frozen=True`` routes every field through
``object.__setattr__``).  Sinks must never mutate an event they accept —
the same object is shared by every sink on the bus.

The bus is *zero-overhead when disabled*: publishers are expected to
guard construction of the event object itself::

    bus = self.engine.telemetry
    if bus.enabled:
        bus.emit(ReplicaReady(time=now, replica_id=r.id, zone=z, spot=True))

so a run without telemetry pays one attribute load and one branch per
would-be event, nothing more.  :data:`NULL_BUS` is the shared disabled
bus used wherever no telemetry was configured.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterable

__all__ = [
    "NULL_BUS",
    "AutoscaleDecision",
    "AutoscalerSample",
    "ChaosInjected",
    "ChaosScenarioEnded",
    "ChaosScenarioStarted",
    "CostSnapshot",
    "EventBus",
    "EventsDropped",
    "FleetSample",
    "GenericEvent",
    "LoadBalancerFallback",
    "PolicyDecision",
    "PreemptWarning",
    "ProbeFailure",
    "ProfilePhase",
    "ReplicaLaunch",
    "ReplicaLaunchFailed",
    "ReplicaLoadSample",
    "ReplicaPreempted",
    "ReplicaReady",
    "ReplicaTerminated",
    "RequestShed",
    "RequestSpanEvent",
    "RouteDecision",
    "SloBurnAlert",
    "SweepProgress",
    "TelemetryEvent",
    "TenantAdmission",
    "TenantCostSnapshot",
    "TenantEviction",
    "ZoneCapacity",
    "event_from_dict",
    "event_kinds",
]


_REGISTRY: dict[str, type["TelemetryEvent"]] = {}


def _register(cls: type["TelemetryEvent"]) -> type["TelemetryEvent"]:
    """Class decorator adding an event type to the kind registry."""
    if cls.kind in _REGISTRY:
        raise ValueError(f"duplicate event kind {cls.kind!r}")
    _REGISTRY[cls.kind] = cls
    return cls


def event_kinds() -> list[str]:
    """All registered event kind strings, sorted."""
    return sorted(_REGISTRY)


@dataclass(slots=True)
class TelemetryEvent:
    """Base event: a simulated timestamp plus a class-level ``kind``."""

    kind: ClassVar[str] = "event"

    time: float

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-serialisable representation, ``kind`` included."""
        data: dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):
            data[f.name] = getattr(self, f.name)
        return data


@_register
@dataclass(slots=True)
class ReplicaLaunch(TelemetryEvent):
    """A replica's instances were requested from the cloud."""

    kind: ClassVar[str] = "replica.launch"

    replica_id: int
    zone: str
    spot: bool


@_register
@dataclass(slots=True)
class ReplicaReady(TelemetryEvent):
    """All of a replica's workers reached READY; it can serve traffic."""

    kind: ClassVar[str] = "replica.ready"

    replica_id: int
    zone: str
    spot: bool


@_register
@dataclass(slots=True)
class ReplicaPreempted(TelemetryEvent):
    """The cloud reclaimed a replica (spot preemption or crash)."""

    kind: ClassVar[str] = "replica.preempted"

    replica_id: int
    zone: str
    spot: bool
    warned: bool = False


@_register
@dataclass(slots=True)
class ReplicaTerminated(TelemetryEvent):
    """The controller tore a replica down deliberately."""

    kind: ClassVar[str] = "replica.terminated"

    replica_id: int
    zone: str
    spot: bool
    reason: str = "scale_down"  # scale_down | drained | probe_failure | teardown


@_register
@dataclass(slots=True)
class ReplicaLaunchFailed(TelemetryEvent):
    """A launch attempt died before READY (InsufficientCapacity etc.).

    ``replica_id`` is ``-1`` for launch attempts that never got a
    replica object (the replica-granularity trace replayer).
    """

    kind: ClassVar[str] = "replica.launch_failed"

    replica_id: int
    zone: str
    spot: bool


@_register
@dataclass(slots=True)
class PreemptWarning(TelemetryEvent):
    """Best-effort termination notice arrived for a replica."""

    kind: ClassVar[str] = "replica.preempt_warning"

    replica_id: int
    zone: str


@_register
@dataclass(slots=True)
class ProbeFailure(TelemetryEvent):
    """A readiness probe timed out; the replica will be replaced."""

    kind: ClassVar[str] = "probe.failure"

    replica_id: int
    zone: str


@_register
@dataclass(slots=True)
class AutoscaleDecision(TelemetryEvent):
    """The autoscaler moved N_Tar.

    ``mode`` is the signal that drove the move (``qps`` or ``slo``);
    ``slo_violation_rate`` is the fraction of recent first-token /
    per-token samples that violated their SLO (0 in qps mode).
    """

    kind: ClassVar[str] = "autoscale.target"

    old_target: int
    new_target: int
    request_rate: float
    mode: str = "qps"
    slo_violation_rate: float = 0.0


@_register
@dataclass(slots=True)
class RouteDecision(TelemetryEvent):
    """The load balancer routed one request to a replica."""

    kind: ClassVar[str] = "lb.route"

    request_id: int
    replica_id: int
    zone: str
    balancer: str
    ongoing: int


@_register
@dataclass(slots=True)
class RequestSpanEvent(TelemetryEvent):
    """Per-request latency breakdown (see ``repro.telemetry.spans``).

    ``queue + prefill + decode + wan == total`` exactly; for completed
    requests ``total`` equals the client-recorded end-to-end latency.
    """

    kind: ClassVar[str] = "request.span"

    request_id: int
    status: str  # ok | failed
    queue: float
    prefill: float
    decode: float
    wan: float
    total: float
    retries: int
    replica_id: int = -1
    zone: str = ""
    #: Batch occupancy when the request entered its slot (0 = unknown,
    #: e.g. spans recorded before batching telemetry existed).
    batch_size: int = 0
    #: Server queue depth observed at submission time.
    queue_depth: int = 0


@_register
@dataclass(slots=True)
class ReplicaLoadSample(TelemetryEvent):
    """Periodic snapshot of one replica's load (controller tick).

    ``executing`` is batch occupancy (requests holding a batching slot),
    ``queued`` the server-side FIFO depth behind it, and ``shed`` the
    cumulative admission-control rejections on this replica.
    """

    kind: ClassVar[str] = "replica.load"

    replica_id: int
    zone: str
    executing: int
    queued: int
    shed: int = 0


@_register
@dataclass(slots=True)
class RequestShed(TelemetryEvent):
    """Admission control rejected a request (bounded queue full)."""

    kind: ClassVar[str] = "request.shed"

    request_id: int
    replica_id: int
    zone: str
    queue_depth: int


@_register
@dataclass(slots=True)
class ZoneCapacity(TelemetryEvent):
    """A zone's spot capacity changed in the trace."""

    kind: ClassVar[str] = "zone.capacity"

    zone: str
    capacity: int


@_register
@dataclass(slots=True)
class PolicyDecision(TelemetryEvent):
    """One audited policy decision (see ``repro.telemetry.audit``)."""

    kind: ClassVar[str] = "policy.decision"

    policy: str
    decision: str
    data: dict[str, Any] = field(default_factory=dict)


@_register
@dataclass(slots=True)
class CostSnapshot(TelemetryEvent):
    """Accrued spot/on-demand cost at a point in time."""

    kind: ClassVar[str] = "cost.snapshot"

    spot: float
    on_demand: float
    total: float


@_register
@dataclass(slots=True)
class SweepProgress(TelemetryEvent):
    """One grid point of a parameter sweep finished.

    ``time`` is wall-clock (``time.monotonic``), not simulated time —
    sweeps are an offline driver around many simulations.
    """

    kind: ClassVar[str] = "sweep.point"

    index: int
    total: int
    label: str
    ok: bool = True


@_register
@dataclass(slots=True)
class FleetSample(TelemetryEvent):
    """Ready-replica count changed (replica-granularity replay)."""

    kind: ClassVar[str] = "fleet.ready"

    ready: int
    target: int


@_register
@dataclass(slots=True)
class ChaosScenarioStarted(TelemetryEvent):
    """A chaos scenario was attached to the run (see ``repro.chaos``)."""

    kind: ClassVar[str] = "chaos.scenario_started"

    scenario: str
    injections: int = 0


@_register
@dataclass(slots=True)
class ChaosInjected(TelemetryEvent):
    """One concrete chaos fault fired (storm pulse, blackout, ...).

    ``zones`` is a plain list (JSON-friendly); empty means the fault is
    not zone-scoped (cold-start spikes, warning disruption).
    """

    kind: ClassVar[str] = "chaos.injected"

    scenario: str
    injection: str  # injection kind string, e.g. "preemption_storm"
    zones: list[str] = field(default_factory=list)
    detail: str = ""


@_register
@dataclass(slots=True)
class ChaosScenarioEnded(TelemetryEvent):
    """The last injection window of a chaos scenario closed."""

    kind: ClassVar[str] = "chaos.scenario_ended"

    scenario: str
    injected: int = 0


@_register
@dataclass(slots=True)
class AutoscalerSample(TelemetryEvent):
    """Periodic autoscaler internals (controller tick).

    Complements :class:`AutoscaleDecision` (emitted only when N_Tar
    moves): the sample carries the signals the autoscaler *sees* every
    tick, so dashboards can plot request rate and SLO attainment
    between target moves.
    """

    kind: ClassVar[str] = "autoscale.sample"

    target: int
    candidate: int
    request_rate: float
    slo_violation_rate: float = 0.0


@_register
@dataclass(slots=True)
class LoadBalancerFallback(TelemetryEvent):
    """A locality-aware balancer found every local replica overloaded
    and fell back to the globally least-loaded one (§6)."""

    kind: ClassVar[str] = "lb.fallback"

    request_id: int
    replica_id: int
    balancer: str


@_register
@dataclass(slots=True)
class SloBurnAlert(TelemetryEvent):
    """A multi-window SLO burn-rate alert changed state.

    ``burn_fast``/``burn_slow`` are error-budget burn rates over the
    fast and slow trailing windows (1.0 = consuming the budget exactly
    at the sustainable rate); the alert fires when *both* exceed the
    monitor's threshold and resolves when either drops back below it.
    """

    kind: ClassVar[str] = "slo.burn_alert"

    budget: str  # budget name, e.g. "ttft" / "availability"
    state: str  # firing | resolved
    burn_fast: float
    burn_slow: float
    window_fast: float
    window_slow: float
    threshold: float


@_register
@dataclass(slots=True)
class ProfilePhase(TelemetryEvent):
    """Aggregated timings of one profiler phase (wall-clock seconds).

    ``time`` is wall-clock (``telemetry.clock``), not simulated time —
    the profiler measures the harness itself, like
    :class:`SweepProgress`.  ``sampled`` marks phases timed on a stride
    of hot-loop iterations rather than on every call.
    """

    kind: ClassVar[str] = "profile.phase"

    phase: str
    calls: int
    total_s: float
    max_s: float
    sampled: bool = False


@_register
@dataclass(slots=True)
class EventsDropped(TelemetryEvent):
    """A bounded sink dropped events (ring buffer overflow).

    Emitted by code that drains a :class:`~repro.telemetry.sinks.
    RingBufferSink` so the loss is visible in ``repro report`` output
    instead of silent; ``dropped_total`` is cumulative.
    """

    kind: ClassVar[str] = "telemetry.dropped"

    dropped_total: int
    capacity: int = 0


@_register
@dataclass(slots=True)
class TenantAdmission(TelemetryEvent):
    """The capacity broker decided one tenant spot launch request.

    ``decision`` is ``admitted`` (delegated with capacity held),
    ``rejected`` (quota denial — fails like InsufficientCapacity), or
    ``passthrough`` (the zone had no room anyway; the cloud's natural
    failure path answers).
    """

    kind: ClassVar[str] = "tenant.admission"

    tenant: str
    zone: str
    decision: str  # admitted | rejected | passthrough
    mode: str = "fair_share"


@_register
@dataclass(slots=True)
class TenantEviction(TelemetryEvent):
    """Strict-priority admission evicted a lower-priority tenant's spot
    instance to make room for a higher-priority launch."""

    kind: ClassVar[str] = "tenant.eviction"

    tenant: str  # the tenant gaining capacity
    victim: str  # the tenant losing an instance
    zone: str
    instance_id: int = -1


@_register
@dataclass(slots=True)
class TenantCostSnapshot(TelemetryEvent):
    """Accrued cost of one tenant at a point in time (fleet roll-up)."""

    kind: ClassVar[str] = "tenant.cost"

    tenant: str
    spot: float
    on_demand: float
    total: float


@dataclass(slots=True)
class GenericEvent(TelemetryEvent):
    """Fallback for unknown kinds read back from a JSONL log.

    Keeps forward compatibility: logs written by a newer schema still
    load, with unrecognised fields preserved in ``data``.
    """

    name: str = "generic"
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.name, "time": self.time, **self.data}


def event_from_dict(payload: dict[str, Any]) -> TelemetryEvent:
    """Reconstruct a typed event from its :meth:`TelemetryEvent.to_dict`
    form; unknown kinds come back as :class:`GenericEvent`."""
    data = dict(payload)
    kind = data.pop("kind", "generic")
    cls = _REGISTRY.get(kind)
    if cls is None:
        time = float(data.pop("time", math.nan))
        return GenericEvent(time=time, name=kind, data=data)
    known = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in known})


class EventBus:
    """Fans events out to attached sinks.

    ``enabled`` is a plain attribute (not a property) so the hot-path
    guard ``if bus.enabled`` costs one dict lookup.  A bus with no sinks
    is disabled; attaching the first sink enables it.
    """

    def __init__(self, sinks: Iterable[Any] = ()) -> None:
        self._sinks: list[Any] = list(sinks)
        self.enabled: bool = bool(self._sinks)

    def attach(self, sink: Any) -> None:
        """Add a sink (anything with ``accept(event)``)."""
        self._sinks.append(sink)
        self.enabled = True

    @property
    def sinks(self) -> list[Any]:
        return list(self._sinks)

    def emit(self, event: TelemetryEvent) -> None:
        """Deliver one event to every sink.  No-op when disabled."""
        if not self.enabled:
            return
        for sink in self._sinks:
            sink.accept(event)

    def close(self) -> None:
        """Close every sink that supports it (flushes file sinks)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class _NullBus(EventBus):
    """The shared always-disabled bus.  Attaching a sink is an error —
    it would silently enable telemetry for every component that ever
    defaulted to the null bus."""

    def attach(self, sink: Any) -> None:
        raise RuntimeError(
            "cannot attach a sink to the shared null bus; "
            "construct an EventBus and pass it explicitly"
        )


NULL_BUS = _NullBus()
