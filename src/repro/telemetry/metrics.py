"""Typed time-series metrics registry over the telemetry event bus.

Three metric types, mirroring the Prometheus data model but tuned for
deterministic offline aggregation:

* :class:`CounterMetric` — monotonic totals (preemptions, routed
  requests), addressable by a fixed label set (zone/replica/policy);
* :class:`GaugeMetric` — last-value-wins state with an optional
  retained ``(time, value)`` step series (ready replicas, accrued
  cost), so fleet/cost timelines can be reconstructed from a registry;
* :class:`HistogramMetric` — fixed-bucket distributions (request
  latency legs, batch occupancy) with **deterministic** percentile
  estimation: linear interpolation of the estimated rank inside the
  containing bucket, with the open-ended buckets clamped to the
  observed min/max.  The same observations always yield the same
  estimate, bucket edges bound the error, and no sample list is
  retained — O(buckets) memory however long the run.

Families (:class:`CounterFamily` etc.) hold one child per label
combination; :class:`MetricRegistry` holds the families and renders a
canonical dict (sorted names, sorted label sets, JSON-native scalars)
so two registries fed the same events serialise byte-identically.

:class:`MetricsSink` is an event-bus sink that aggregates the standard
event kinds into a registry — attach it next to a
:class:`~repro.telemetry.sinks.JsonlSink` for live aggregation, or
feed it a recorded log via :func:`registry_from_events`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Optional, Sequence, Tuple

from repro.telemetry.events import TelemetryEvent

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_OCCUPANCY_BUCKETS",
    "CounterFamily",
    "CounterMetric",
    "GaugeFamily",
    "GaugeMetric",
    "HistogramFamily",
    "HistogramMetric",
    "MetricRegistry",
    "MetricsSink",
    "registry_from_events",
]

#: Upper bucket edges (seconds) for request-latency histograms: roughly
#: logarithmic over the 0.1 s .. 100 s band the serving latencies span.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

#: Upper bucket edges for small integer distributions (batch occupancy,
#: queue depth).
DEFAULT_OCCUPANCY_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
)

LabelValues = Tuple[str, ...]


def _check_label_values(keys: Tuple[str, ...], values: Sequence[object]) -> LabelValues:
    if len(values) != len(keys):
        raise ValueError(
            f"expected {len(keys)} label value(s) for {keys}, got {len(values)}"
        )
    return tuple(str(v) for v in values)


class CounterMetric:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter cannot decrease by {amount}")
        self.value += amount

    def to_value(self) -> float:
        return self.value


class GaugeMetric:
    """Last-value-wins state, optionally retaining the step series.

    Samples must arrive in non-decreasing time order (event logs are
    time-ordered by construction); a same-time sample overwrites the
    previous one, matching :class:`repro.sim.metrics.TimeSeries`.
    """

    __slots__ = ("last", "last_time", "_times", "_values")

    def __init__(self, *, series: bool = True) -> None:
        self.last = math.nan
        self.last_time = math.nan
        self._times: Optional[list[float]] = [] if series else None
        self._values: Optional[list[float]] = [] if series else None

    def set(self, time: float, value: float) -> None:
        self.last = value
        self.last_time = time
        if self._times is None or self._values is None:
            return
        if self._times and time == self._times[-1]:
            self._values[-1] = value
            return
        self._times.append(time)
        self._values.append(value)

    def series(self) -> list[tuple[float, float]]:
        if self._times is None or self._values is None:
            return []
        return list(zip(self._times, self._values))

    def to_value(self) -> float:
        return self.last


class HistogramMetric:
    """Fixed-bucket histogram with deterministic percentile estimates.

    ``edges`` are strictly increasing upper bucket bounds; observations
    above the last edge land in an implicit +inf bucket.  ``quantile``
    locates the bucket containing the requested rank and interpolates
    linearly inside it, clamping the unbounded ends to the observed
    min/max — so the estimate is exact for values on bucket edges and
    never leaves the observed range.
    """

    __slots__ = ("edges", "counts", "count", "total", "min", "max")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must strictly increase: {edges}")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)  # last = overflow (+inf)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100]); NaN when
        empty.  Deterministic: a pure function of the bucket counts and
        the observed min/max."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile q={q!r} outside [0, 100]")
        if self.count == 0:
            return math.nan
        # The extremes are tracked exactly; returning them directly also
        # keeps the open-ended overflow bucket from clamping q=100 to
        # its lower edge.
        if q == 0.0:
            return self.min
        if q == 100.0:
            return self.max
        # The rank convention matches numpy's default linear
        # interpolation: rank r in [0, count-1].
        rank = q / 100.0 * (self.count - 1)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            # Ranks [cumulative, cumulative + bucket_count - 1] live here.
            if rank < cumulative + bucket_count:
                lo = self.min if index == 0 else self.edges[index - 1]
                hi = self.max if index == len(self.edges) else self.edges[index]
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo or bucket_count == 1:
                    return min(max(lo, self.min), self.max)
                # Position of the rank inside this bucket's occupants.
                frac = (rank - cumulative) / (bucket_count - 1)
                frac = min(max(frac, 0.0), 1.0)
                # Clamp to the bucket interval: when lo and hi differ by
                # many orders of magnitude, ``lo + (hi - lo) * frac`` can
                # round past ``hi``, which would break monotonicity in q.
                return min(max(lo + (hi - lo) * frac, lo), hi)
            cumulative += bucket_count
        return self.max  # pragma: no cover - rank always found above

    def to_dict(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": None if self.count == 0 else self.quantile(50),
            "p90": None if self.count == 0 else self.quantile(90),
            "p99": None if self.count == 0 else self.quantile(99),
        }


class _Family:
    """Shared child bookkeeping for the three family types."""

    def __init__(self, name: str, help_text: str, labels: Sequence[str]) -> None:
        self.name = name
        self.help_text = help_text
        self.label_keys = tuple(labels)
        self._children: dict[LabelValues, Any] = {}

    def _make_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values: object) -> Any:
        """The child for one label combination, created on first use."""
        key = _check_label_values(self.label_keys, values)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def children(self) -> dict[LabelValues, Any]:
        return dict(self._children)

    def __len__(self) -> int:
        return len(self._children)


class CounterFamily(_Family):
    """Labeled counters, e.g. ``preemptions_total{zone}``."""

    def _make_child(self) -> CounterMetric:
        return CounterMetric()


class GaugeFamily(_Family):
    """Labeled gauges; ``series=False`` keeps only the last value."""

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        *,
        series: bool = True,
    ) -> None:
        super().__init__(name, help_text, labels)
        self._series = series

    def _make_child(self) -> GaugeMetric:
        return GaugeMetric(series=self._series)


class HistogramFamily(_Family):
    """Labeled fixed-bucket histograms (shared edges per family)."""

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labels)
        self.buckets = tuple(float(b) for b in buckets)

    def _make_child(self) -> HistogramMetric:
        return HistogramMetric(self.buckets)


class MetricRegistry:
    """Holds metric families and renders them canonically."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> Any:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family) or (
                existing.label_keys != family.label_keys
            ):
                raise ValueError(
                    f"metric {family.name!r} already registered with a "
                    "different type or label set"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> CounterFamily:
        return self._register(CounterFamily(name, help_text, labels))

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        *,
        series: bool = True,
    ) -> GaugeFamily:
        return self._register(GaugeFamily(name, help_text, labels, series=series))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> HistogramFamily:
        return self._register(
            HistogramFamily(name, help_text, labels, buckets=buckets)
        )

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def families(self) -> list[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-native form: families by sorted name, children
        by sorted label values; identical inputs serialise identically."""
        out: dict[str, Any] = {}
        for family in self.families():
            if isinstance(family, CounterFamily):
                kind = "counter"
            elif isinstance(family, GaugeFamily):
                kind = "gauge"
            else:
                kind = "histogram"
            children = []
            for values in sorted(family.children()):
                child = family.children()[values]
                entry: dict[str, Any] = {
                    "labels": dict(zip(family.label_keys, values)),
                }
                if isinstance(child, HistogramMetric):
                    entry.update(child.to_dict())
                elif isinstance(child, GaugeMetric):
                    entry["value"] = None if math.isnan(child.last) else child.last
                    series = child.series()
                    if series:
                        entry["series"] = [[t, v] for t, v in series]
                else:
                    entry["value"] = child.value
                children.append(entry)
            out[family.name] = {
                "type": kind,
                "help": family.help_text,
                "label_keys": list(family.label_keys),
                "metrics": children,
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the registry's current state.

        Histograms render as ``_bucket``/``_sum``/``_count`` per the
        exposition format; gauges render their last value.
        """
        lines: list[str] = []
        for family in self.families():
            name = family.name
            if family.help_text:
                lines.append(f"# HELP {name} {_escape_help(family.help_text)}")
            if isinstance(family, CounterFamily):
                lines.append(f"# TYPE {name} counter")
            elif isinstance(family, GaugeFamily):
                lines.append(f"# TYPE {name} gauge")
            else:
                lines.append(f"# TYPE {name} histogram")
            for values in sorted(family.children()):
                child = family.children()[values]
                pairs = [
                    f'{key}="{_escape_label(value)}"'
                    for key, value in zip(family.label_keys, values)
                ]
                base = ",".join(pairs)
                if isinstance(child, HistogramMetric):
                    cumulative = 0
                    for edge, count in zip(child.edges, child.counts):
                        cumulative += count
                        le = ",".join(pairs + [f'le="{edge}"'])
                        lines.append(f"{name}_bucket{{{le}}} {cumulative}")
                    le = ",".join(pairs + ['le="+Inf"'])
                    lines.append(f"{name}_bucket{{{le}}} {child.count}")
                    suffix = f"{{{base}}}" if base else ""
                    lines.append(f"{name}_sum{suffix} {child.total}")
                    lines.append(f"{name}_count{suffix} {child.count}")
                else:
                    value = child.to_value()
                    if isinstance(child, GaugeMetric) and math.isnan(value):
                        continue
                    suffix = f"{{{base}}}" if base else ""
                    lines.append(f"{name}{suffix} {float(value)}")
        return "\n".join(lines) + "\n"


def _escape_label(value: str) -> str:
    """Escape a label *value* per the Prometheus text exposition format:
    backslash, double-quote, and line-feed."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape HELP text per the exposition format (backslash and
    line-feed only — quotes are legal in HELP)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class MetricsSink:
    """Event-bus sink aggregating the standard event kinds.

    One dispatch dict lookup plus a few counter/gauge updates per event;
    unknown kinds only pay the events_total counter.  The registry is
    owned by the sink unless one is passed in (sharing a registry lets
    several buses aggregate into one dashboard).
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        reg = self.registry
        self._events_total = reg.counter(
            "events_total", "Telemetry events observed.", ("kind",)
        )
        self._preemptions = reg.counter(
            "replica_preemptions_total", "Spot replicas reclaimed.", ("zone",)
        )
        self._warned = reg.counter(
            "replica_preemptions_warned_total",
            "Preemptions preceded by a warning.",
            ("zone",),
        )
        self._launches = reg.counter(
            "replica_launches_total", "Replica launch requests.", ("zone",)
        )
        self._launch_failures = reg.counter(
            "replica_launch_failures_total",
            "Launches dead before READY.",
            ("zone",),
        )
        self._shed = reg.counter(
            "requests_shed_total", "Requests rejected by admission control.", ("zone",)
        )
        self._routed = reg.counter(
            "requests_routed_total", "Balancer routing decisions.", ("zone",)
        )
        self._lb_fallbacks = reg.counter(
            "lb_fallbacks_total",
            "Locality balancer global fallbacks (all local replicas overloaded).",
            (),
        )
        self._burn_alerts = reg.counter(
            "slo_burn_alerts_total", "SLO burn-rate alert transitions.",
            ("budget", "state"),
        )
        self._policy_decisions = reg.counter(
            "policy_decisions_total", "Serving-policy decisions.", ("decision",)
        )
        self._chaos_injections = reg.counter(
            "chaos_injections_total", "Chaos faults injected.", ("injection",)
        )
        self._ready = reg.gauge(
            "fleet_ready_replicas", "Ready replicas (step series).", ()
        )
        self._target = reg.gauge("fleet_target_replicas", "N_Tar.", ())
        self._autoscale_rate = reg.gauge(
            "autoscaler_request_rate", "Autoscaler trailing request rate.", ()
        )
        self._autoscale_violation = reg.gauge(
            "autoscaler_slo_violation_rate",
            "Fraction of recent samples violating their SLO.",
            (),
        )
        self._cost = reg.gauge(
            "cost_accrued_dollars", "Accrued cost by market.", ("market",)
        )
        self._latency = reg.histogram(
            "request_latency_seconds",
            "End-to-end client latency.",
            ("status",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._legs = reg.histogram(
            "request_leg_seconds",
            "Per-leg latency breakdown (queue/prefill/decode/wan).",
            ("leg",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._ttft = reg.histogram(
            "request_ttft_seconds",
            "Client time-to-first-token (queue + prefill + wan).",
            (),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._occupancy = reg.histogram(
            "replica_batch_occupancy",
            "Batching-slot occupancy at load samples.",
            (),
            buckets=DEFAULT_OCCUPANCY_BUCKETS,
        )
        self._queue_depth = reg.histogram(
            "replica_queue_depth",
            "Server FIFO depth at load samples.",
            (),
            buckets=DEFAULT_OCCUPANCY_BUCKETS,
        )
        self._dropped = reg.gauge(
            "telemetry_dropped_events", "Ring-buffer events dropped.", (),
            series=False,
        )
        self._tenant_admissions = reg.counter(
            "tenant_admissions_total",
            "Capacity-broker admission decisions per tenant.",
            ("tenant", "decision"),
        )
        self._tenant_evictions = reg.counter(
            "tenant_evictions_total",
            "Strict-priority evictions per tenant (won vs suffered).",
            ("tenant", "role"),
        )
        self._tenant_cost = reg.gauge(
            "tenant_cost_dollars", "Accrued cost by tenant and market.",
            ("tenant", "market"),
        )
        self._dispatch = {
            "replica.preempted": self._on_preempted,
            "replica.launch": self._on_launch,
            "replica.launch_failed": self._on_launch_failed,
            "request.span": self._on_span,
            "request.shed": self._on_shed,
            "lb.route": self._on_route,
            "lb.fallback": self._on_fallback,
            "fleet.ready": self._on_fleet,
            "autoscale.sample": self._on_autoscale_sample,
            "autoscale.target": self._on_autoscale_target,
            "cost.snapshot": self._on_cost,
            "replica.load": self._on_load,
            "slo.burn_alert": self._on_burn_alert,
            "policy.decision": self._on_policy_decision,
            "chaos.injected": self._on_chaos_injected,
            "telemetry.dropped": self._on_dropped,
            "tenant.admission": self._on_tenant_admission,
            "tenant.eviction": self._on_tenant_eviction,
            "tenant.cost": self._on_tenant_cost,
        }

    # -- sink protocol --------------------------------------------------
    def accept(self, event: TelemetryEvent) -> None:
        self._events_total.labels(event.kind).inc()
        handler = self._dispatch.get(event.kind)
        if handler is not None:
            handler(event)

    # -- per-kind handlers ----------------------------------------------
    def _on_preempted(self, event: Any) -> None:
        self._preemptions.labels(event.zone).inc()
        if event.warned:
            self._warned.labels(event.zone).inc()

    def _on_launch(self, event: Any) -> None:
        self._launches.labels(event.zone).inc()

    def _on_launch_failed(self, event: Any) -> None:
        self._launch_failures.labels(event.zone).inc()

    def _on_span(self, event: Any) -> None:
        self._latency.labels(event.status).observe(event.total)
        legs = self._legs
        legs.labels("queue").observe(event.queue)
        legs.labels("prefill").observe(event.prefill)
        legs.labels("decode").observe(event.decode)
        legs.labels("wan").observe(event.wan)
        if event.status == "ok":
            self._ttft.labels().observe(event.queue + event.prefill + event.wan)

    def _on_shed(self, event: Any) -> None:
        self._shed.labels(event.zone).inc()

    def _on_route(self, event: Any) -> None:
        self._routed.labels(event.zone).inc()

    def _on_fallback(self, event: Any) -> None:
        self._lb_fallbacks.labels().inc()

    def _on_fleet(self, event: Any) -> None:
        self._ready.labels().set(event.time, event.ready)
        self._target.labels().set(event.time, event.target)

    def _on_autoscale_sample(self, event: Any) -> None:
        self._target.labels().set(event.time, event.target)
        self._autoscale_rate.labels().set(event.time, event.request_rate)
        self._autoscale_violation.labels().set(event.time, event.slo_violation_rate)

    def _on_autoscale_target(self, event: Any) -> None:
        self._target.labels().set(event.time, event.new_target)

    def _on_cost(self, event: Any) -> None:
        self._cost.labels("spot").set(event.time, event.spot)
        self._cost.labels("on_demand").set(event.time, event.on_demand)
        self._cost.labels("total").set(event.time, event.total)

    def _on_load(self, event: Any) -> None:
        self._occupancy.labels().observe(float(event.executing))
        self._queue_depth.labels().observe(float(event.queued))

    def _on_burn_alert(self, event: Any) -> None:
        self._burn_alerts.labels(event.budget, event.state).inc()

    def _on_policy_decision(self, event: Any) -> None:
        self._policy_decisions.labels(event.decision).inc()

    def _on_chaos_injected(self, event: Any) -> None:
        self._chaos_injections.labels(event.injection).inc()

    def _on_dropped(self, event: Any) -> None:
        self._dropped.labels().set(event.time, float(event.dropped_total))

    def _on_tenant_admission(self, event: Any) -> None:
        self._tenant_admissions.labels(event.tenant, event.decision).inc()

    def _on_tenant_eviction(self, event: Any) -> None:
        self._tenant_evictions.labels(event.tenant, "won").inc()
        self._tenant_evictions.labels(event.victim, "suffered").inc()

    def _on_tenant_cost(self, event: Any) -> None:
        cost = self._tenant_cost
        cost.labels(event.tenant, "spot").set(event.time, event.spot)
        cost.labels(event.tenant, "on_demand").set(event.time, event.on_demand)
        cost.labels(event.tenant, "total").set(event.time, event.total)


def registry_from_events(
    events: Iterable[TelemetryEvent],
    registry: Optional[MetricRegistry] = None,
) -> MetricRegistry:
    """Aggregate a recorded event stream into a registry."""
    sink = MetricsSink(registry)
    for event in events:
        sink.accept(event)
    return sink.registry


def _labels_dict(keys: Sequence[str], values: Sequence[str]) -> Mapping[str, str]:
    return dict(zip(keys, values))
