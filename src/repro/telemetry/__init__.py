"""Structured telemetry: event bus, metrics, spans, profiling, reports.

The observability layer of the reproduction (see
``docs/OBSERVABILITY.md``):

``repro.telemetry.events``
    Typed, timestamped events plus the :class:`EventBus` they flow over.
``repro.telemetry.sinks``
    Ring buffer and JSONL file sinks.
``repro.telemetry.metrics``
    Typed time-series registry: counters, gauges, and fixed-bucket
    histograms with deterministic percentile estimation, fed from the
    event bus by :class:`MetricsSink`.
``repro.telemetry.slo``
    SLO error budgets and multi-window burn-rate monitors emitting
    :class:`SloBurnAlert` events.
``repro.telemetry.profile``
    Zero-overhead-when-disabled phase profiler over the harness hot
    paths (replay loop, continuous-batching step).
``repro.telemetry.report``
    Canonical per-run JSON report artifacts and the ``repro report``
    terminal dashboard — the one reader that aggregates an event log.
``repro.telemetry.spans``
    Per-request latency legs (queue / prefill / decode / WAN) that sum
    exactly to the client-recorded end-to-end latency.
``repro.telemetry.audit``
    The policy decision audit log: every Alg. 1 step with its inputs.
``repro.telemetry.logsetup``
    Stdlib logging configuration under the single ``repro`` root logger.
``repro.telemetry.clock``
    The sanctioned wall-clock accessors — the only place outside the
    CLI where real time may be read (enforced by ``repro lint``).

Telemetry is opt-in and zero-overhead when disabled: components publish
onto :data:`NULL_BUS` unless a configured :class:`EventBus` is passed in
(``SkyService(..., telemetry=bus)``, ``TraceReplayer(..., telemetry=bus)``,
or ``repro serve --events out.jsonl`` from the CLI).
"""

from repro.telemetry.audit import AuditRecord, PolicyAuditLog
from repro.telemetry.clock import wall_monotonic, wall_time
from repro.telemetry.events import (
    NULL_BUS,
    AutoscaleDecision,
    AutoscalerSample,
    ChaosInjected,
    ChaosScenarioEnded,
    ChaosScenarioStarted,
    CostSnapshot,
    EventBus,
    EventsDropped,
    FleetSample,
    GenericEvent,
    LoadBalancerFallback,
    PolicyDecision,
    PreemptWarning,
    ProbeFailure,
    ProfilePhase,
    ReplicaLaunch,
    ReplicaLaunchFailed,
    ReplicaLoadSample,
    ReplicaPreempted,
    ReplicaReady,
    ReplicaTerminated,
    RequestShed,
    RequestSpanEvent,
    RouteDecision,
    SloBurnAlert,
    SweepProgress,
    TelemetryEvent,
    ZoneCapacity,
    event_from_dict,
    event_kinds,
)
from repro.telemetry.logsetup import configure_logging, root_logger
from repro.telemetry.metrics import (
    CounterFamily,
    CounterMetric,
    GaugeFamily,
    GaugeMetric,
    HistogramFamily,
    HistogramMetric,
    MetricRegistry,
    MetricsSink,
    registry_from_events,
)
from repro.telemetry.profile import NULL_PROFILER, PhaseProfiler, PhaseStats
from repro.telemetry.report import RunReport, build_report, render_dashboard
from repro.telemetry.sinks import (
    JsonlSink,
    RingBufferSink,
    iter_events,
    read_events,
)
from repro.telemetry.slo import (
    BurnRateMonitor,
    SloBudget,
    SloMonitorSink,
    burn_rate,
    default_budgets,
)
from repro.telemetry.spans import RequestSpan, SpanRecorder

__all__ = [
    "NULL_BUS",
    "NULL_PROFILER",
    "AuditRecord",
    "AutoscaleDecision",
    "AutoscalerSample",
    "BurnRateMonitor",
    "ChaosInjected",
    "ChaosScenarioEnded",
    "ChaosScenarioStarted",
    "CostSnapshot",
    "CounterFamily",
    "CounterMetric",
    "EventBus",
    "EventsDropped",
    "FleetSample",
    "GaugeFamily",
    "GaugeMetric",
    "GenericEvent",
    "HistogramFamily",
    "HistogramMetric",
    "JsonlSink",
    "LoadBalancerFallback",
    "MetricRegistry",
    "MetricsSink",
    "PhaseProfiler",
    "PhaseStats",
    "PolicyAuditLog",
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
    "RequestSpan",
    "RequestSpanEvent",
    "RingBufferSink",
    "RouteDecision",
    "RunReport",
    "SloBudget",
    "SloBurnAlert",
    "SloMonitorSink",
    "SpanRecorder",
    "SweepProgress",
    "TelemetryEvent",
    "ZoneCapacity",
    "build_report",
    "burn_rate",
    "configure_logging",
    "default_budgets",
    "event_from_dict",
    "event_kinds",
    "iter_events",
    "read_events",
    "registry_from_events",
    "render_dashboard",
    "root_logger",
    "wall_monotonic",
    "wall_time",
]
