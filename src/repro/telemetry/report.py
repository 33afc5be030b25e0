"""Run reports: canonical JSON artifacts plus a terminal dashboard.

A :class:`RunReport` is a pure function of a recorded telemetry event
stream: aggregate the events through the metrics registry
(:mod:`repro.telemetry.metrics`) and the SLO monitors
(:mod:`repro.telemetry.slo`), downsample the fleet/cost gauge series
into fixed-width timelines, and collect profiler phase output if the
run recorded any.  Two properties fall out of that design:

* **Byte stability** — ``to_json()`` renders with sorted keys, fixed
  indentation, and floats rounded through :func:`_round` before
  serialisation, so the same event log always produces the identical
  artifact, byte for byte.  Profiler phases measure wall-clock time and
  therefore live in a clearly-marked ``profile`` section that is stable
  *per log* but not across re-runs of the simulation.
* **No new instrumentation contract** — anything that already emits
  events gets reports for free; ``repro report run.jsonl`` works on any
  log the serving stack or the replayer wrote.

``render_dashboard`` draws the terminal view: fleet/cost/SLO timelines
as unicode sparklines, latency percentiles, counter tables, burn
alerts, the replica lifecycle table, and the top-k hot phases.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Optional, Sequence

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.metrics import MetricRegistry, MetricsSink
from repro.telemetry.slo import SloBudget, SloMonitorSink

__all__ = [
    "RunReport",
    "build_report",
    "downsample_series",
    "render_dashboard",
    "sparkline",
]

#: JSON schema identifier stamped into every artifact.
REPORT_SCHEMA = "repro.report/v1"

#: Timeline width (buckets) for downsampled series and sparklines.
TIMELINE_WIDTH = 64

#: Replica rows the dashboard shows; the JSON artifact keeps every row.
DASHBOARD_REPLICA_ROWS = 40

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def _round(value: float, digits: int = 6) -> float:
    """Stable float for canonical JSON: rounds and normalises -0.0."""
    rounded = round(value, digits)
    return 0.0 if rounded == 0.0 else rounded


def downsample_series(
    series: Sequence[tuple[float, float]], width: int = TIMELINE_WIDTH
) -> list[float]:
    """Compress a step series to ``width`` bucket means.

    Buckets partition the observed time range evenly; each bucket takes
    the time-weighted mean of the step function over it, so a short
    availability dip still shows up proportionally rather than being
    lost to point sampling.  Series shorter than ``width`` return their
    values unchanged (no padding — the caller knows the true length).
    """
    if not series:
        return []
    if len(series) <= width:
        return [v for _, v in series]
    t0 = series[0][0]
    t1 = series[-1][0]
    if t1 <= t0:
        return [series[-1][1]]
    span = (t1 - t0) / width
    out: list[float] = []
    index = 0
    n = len(series)
    for b in range(width):
        lo = t0 + b * span
        hi = t1 if b == width - 1 else lo + span
        # Advance to the step active at the bucket start.
        while index + 1 < n and series[index + 1][0] <= lo:
            index += 1
        j = index
        weighted = 0.0
        cursor = lo
        while j < n and cursor < hi:
            step_end = series[j + 1][0] if j + 1 < n else hi
            upper = min(step_end, hi)
            if upper > cursor:
                weighted += series[j][1] * (upper - cursor)
                cursor = upper
            j += 1
        out.append(weighted / (hi - lo) if hi > lo else series[j - 1][1])
    return out


def sparkline(values: Sequence[float], width: int = TIMELINE_WIDTH) -> str:
    """Unicode sparkline of ``values`` (flat series render mid-level)."""
    if not values:
        return ""
    values = list(values)[:width]
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return " " * len(values)
    lo = min(finite)
    hi = max(finite)
    if hi <= lo:
        return _SPARK_LEVELS[3] * len(values)
    chars = []
    scale = (len(_SPARK_LEVELS) - 1) / (hi - lo)
    for v in values:
        if not math.isfinite(v):
            chars.append(" ")
            continue
        chars.append(_SPARK_LEVELS[int((v - lo) * scale + 0.5)])
    return "".join(chars)


class _ReplicaRow:
    """One replica's lifecycle (launch -> ready -> end) and peak load."""

    __slots__ = (
        "replica_id", "spot", "zone", "launched", "ready", "ended", "outcome",
        "peak_batch", "peak_queue", "shed",
    )

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self.spot: Optional[bool] = None
        self.zone = ""
        self.launched: Optional[float] = None
        self.ready: Optional[float] = None
        self.ended: Optional[float] = None
        self.outcome = "running"
        self.peak_batch = 0
        self.peak_queue = 0
        self.shed = 0

    def accept(self, event: Any) -> None:
        self.zone = event.zone or self.zone
        kind = event.kind
        if kind == "replica.load":
            # Periodic snapshots; ``shed`` is cumulative, so the max is
            # the last sample's count.
            self.peak_batch = max(self.peak_batch, event.executing)
            self.peak_queue = max(self.peak_queue, event.queued)
            self.shed = max(self.shed, event.shed)
            return
        if hasattr(event, "spot"):
            self.spot = event.spot
        if kind == "replica.launch":
            self.launched = event.time
        elif kind == "replica.ready":
            self.ready = event.time
        elif kind == "replica.preempted":
            self.ended = event.time
            self.outcome = "preempted (warned)" if event.warned else "preempted"
        elif kind == "replica.terminated":
            self.ended = event.time
            self.outcome = event.reason
        elif kind == "replica.launch_failed":
            self.ended = event.time
            self.outcome = "launch failed"

    def to_dict(self) -> dict[str, Any]:
        def time(value: Optional[float]) -> Optional[float]:
            return None if value is None else _round(value)

        return {
            "id": self.replica_id,
            "market": None if self.spot is None else ("spot" if self.spot else "on_demand"),
            "zone": self.zone,
            "launched": time(self.launched),
            "ready": time(self.ready),
            "ended": time(self.ended),
            "outcome": self.outcome,
            "peak_batch": self.peak_batch,
            "peak_queue": self.peak_queue,
            "shed": self.shed,
        }


class RunReport:
    """Aggregated view of one run's event log."""

    def __init__(
        self,
        *,
        registry: MetricRegistry,
        slo: SloMonitorSink,
        event_count: int,
        time_range: tuple[float, float],
        dropped_total: int = 0,
        label: str = "",
        replicas: Iterable[_ReplicaRow] = (),
    ) -> None:
        self.registry = registry
        self.slo = slo
        self.event_count = event_count
        self.time_range = time_range
        self.dropped_total = dropped_total
        self.label = label
        #: Per-replica lifecycle rows in id (launch) order.
        self.replicas = sorted(replicas, key=lambda row: row.replica_id)
        #: phase -> (calls, total_s, max_s, sampled); see profile_section.
        self._profile_phases: dict[str, tuple[int, float, float, bool]] = {}

    # -- section builders ----------------------------------------------
    def _gauge_series(self, name: str, *labels: str) -> list[tuple[float, float]]:
        family = self.registry.get(name)
        if family is None:
            return []
        child = family.children().get(tuple(labels))
        if child is None:
            return []
        return child.series()

    def _counter_totals(self, name: str) -> dict[str, float]:
        family = self.registry.get(name)
        if family is None:
            return {}
        return {
            ",".join(values) if values else "": child.value
            for values, child in sorted(family.children().items())
        }

    def fleet_timeline(self) -> list[float]:
        return downsample_series(self._gauge_series("fleet_ready_replicas"))

    def target_timeline(self) -> list[float]:
        return downsample_series(self._gauge_series("fleet_target_replicas"))

    def cost_timeline(self) -> list[float]:
        return downsample_series(self._gauge_series("cost_accrued_dollars", "total"))

    def latency_summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for metric_name, key in (
            ("request_latency_seconds", "latency"),
            ("request_ttft_seconds", "ttft"),
            ("request_leg_seconds", "leg"),
        ):
            family = self.registry.get(metric_name)
            if family is None:
                continue
            for values, child in sorted(family.children().items()):
                status = values[0] if values else "all"
                if child.count == 0:
                    continue
                out[f"{key}.{status}" if values else key] = {
                    "count": child.count,
                    "mean": _round(child.mean),
                    "p50": _round(child.quantile(50)),
                    "p90": _round(child.quantile(90)),
                    "p99": _round(child.quantile(99)),
                    "max": _round(child.max),
                }
        return out

    def cost_section(self) -> dict[str, float]:
        """Final accrued cost by market (empty if no cost snapshot)."""
        family = self.registry.get("cost_accrued_dollars")
        if family is None:
            return {}
        return {
            values[0]: _round(child.last)
            for values, child in sorted(family.children().items())
        }

    def tenants_section(self) -> dict[str, Any]:
        """Per-tenant roll-up of the control-plane event kinds.

        Empty for single-service logs — only multi-tenant runs
        (``repro serve up``) emit ``tenant.*`` events.
        """
        out: dict[str, dict[str, Any]] = {}
        admissions = self.registry.get("tenant_admissions_total")
        if admissions is not None:
            for values, child in sorted(admissions.children().items()):
                tenant, decision = values
                entry = out.setdefault(tenant, {})
                entry.setdefault("admissions", {})[decision] = int(child.value)
        evictions = self.registry.get("tenant_evictions_total")
        if evictions is not None:
            for values, child in sorted(evictions.children().items()):
                tenant, role = values
                entry = out.setdefault(tenant, {})
                entry.setdefault("evictions", {})[role] = int(child.value)
        cost = self.registry.get("tenant_cost_dollars")
        if cost is not None:
            for values, child in sorted(cost.children().items()):
                tenant, market = values
                if math.isnan(child.last):
                    continue
                entry = out.setdefault(tenant, {})
                entry.setdefault("cost", {})[market] = _round(child.last)
        return out

    def profile_section(self) -> list[dict[str, Any]]:
        """Profiler phases recorded into the log (wall-clock — stable
        per log file, not across simulation re-runs)."""
        phases = self._profile_phases
        return [
            {
                "phase": name,
                "calls": calls,
                "total_s": _round(total, 9),
                "max_s": _round(mx, 9),
                "sampled": sampled,
            }
            for name, (calls, total, mx, sampled) in sorted(phases.items())
        ]

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-native artifact (see module docstring)."""
        t0, t1 = self.time_range
        counters = {}
        for name in (
            "chaos_injections_total",
            "events_total",
            "lb_fallbacks_total",
            "policy_decisions_total",
            "replica_launch_failures_total",
            "replica_launches_total",
            "replica_preemptions_total",
            "replica_preemptions_warned_total",
            "requests_routed_total",
            "requests_shed_total",
            "slo_burn_alerts_total",
            "tenant_admissions_total",
            "tenant_evictions_total",
        ):
            totals = self._counter_totals(name)
            if totals:
                counters[name] = {k: _round(v) for k, v in totals.items()}
        return {
            "schema": REPORT_SCHEMA,
            "label": self.label,
            "events": {
                "count": self.event_count,
                "dropped_total": self.dropped_total,
                "time_start": _round(t0) if math.isfinite(t0) else None,
                "time_end": _round(t1) if math.isfinite(t1) else None,
            },
            "counters": counters,
            "timelines": {
                "width": TIMELINE_WIDTH,
                "fleet_ready": [_round(v, 4) for v in self.fleet_timeline()],
                "fleet_target": [_round(v, 4) for v in self.target_timeline()],
                "cost_total": [_round(v, 4) for v in self.cost_timeline()],
            },
            "latency": self.latency_summary(),
            "cost": self.cost_section(),
            "replicas": [row.to_dict() for row in self.replicas],
            "tenants": self.tenants_section(),
            "slo": self.slo.snapshot(),
            "alerts": [
                {
                    "time": _round(alert.time),
                    "budget": alert.budget,
                    "state": alert.state,
                    "burn_fast": _round(alert.burn_fast, 4),
                    "burn_slow": _round(alert.burn_slow, 4),
                }
                for alert in self.slo.alerts
            ],
            "profile": self.profile_section(),
        }

    def to_json(self) -> str:
        """The byte-stable artifact: sorted keys, indent 2, ``\\n``-
        terminated."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def build_report(
    events: Iterable[TelemetryEvent],
    *,
    label: str = "",
    budgets: Optional[dict[str, SloBudget]] = None,
    window_fast: float = 300.0,
    window_slow: float = 3600.0,
    threshold: float = 10.0,
) -> RunReport:
    """Aggregate an event stream into a :class:`RunReport`."""
    metrics = MetricsSink()
    slo = SloMonitorSink(
        budgets,
        window_fast=window_fast,
        window_slow=window_slow,
        threshold=threshold,
    )
    count = 0
    t0 = math.inf
    t1 = -math.inf
    dropped = 0
    profile: dict[str, tuple[int, float, float, bool]] = {}
    replicas: dict[int, _ReplicaRow] = {}
    for event in events:
        count += 1
        metrics.accept(event)
        slo.accept(event)
        kind = event.kind
        if kind.startswith("replica.") and event.replica_id >= 0:
            row = replicas.get(event.replica_id)
            if row is None:
                row = replicas[event.replica_id] = _ReplicaRow(event.replica_id)
            row.accept(event)
        elif kind == "telemetry.dropped":
            dropped = max(dropped, event.dropped_total)
        elif kind == "profile.phase":
            prev = profile.get(event.phase)
            if prev is None:
                profile[event.phase] = (
                    event.calls, event.total_s, event.max_s, event.sampled
                )
            else:
                profile[event.phase] = (
                    prev[0] + event.calls,
                    prev[1] + event.total_s,
                    max(prev[2], event.max_s),
                    prev[3] or event.sampled,
                )
            continue  # wall-clock timestamps stay out of the sim range
        elif kind == "sweep.point":
            continue
        if math.isfinite(event.time):
            if event.time < t0:
                t0 = event.time
            if event.time > t1:
                t1 = event.time
    report = RunReport(
        registry=metrics.registry,
        slo=slo,
        event_count=count,
        time_range=(t0, t1),
        dropped_total=dropped,
        label=label,
        replicas=replicas.values(),
    )
    report._profile_phases = profile
    return report


# -- terminal rendering -----------------------------------------------


def _fmt_time(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.0f}s"


def _fmt_duration(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def render_dashboard(report: RunReport, *, top_k: int = 8) -> str:
    """Human-readable terminal dashboard for one run report."""
    data = report.to_dict()
    lines: list[str] = []
    label = data["label"] or "run"
    ev = data["events"]
    t0 = ev["time_start"]
    t1 = ev["time_end"]
    span = (
        _fmt_duration(t1 - t0)
        if t0 is not None and t1 is not None and t1 > t0
        else "n/a"
    )
    lines.append(f"run report · {label}")
    lines.append(
        f"  events: {ev['count']}  dropped: {ev['dropped_total']}  span: {span}"
    )
    lines.append("")

    timelines = data["timelines"]
    for title, key in (
        ("fleet ready", "fleet_ready"),
        ("fleet target", "fleet_target"),
        ("cost ($)", "cost_total"),
    ):
        series = timelines[key]
        if not series:
            continue
        lo = min(series)
        hi = max(series)
        lines.append(
            f"  {title:<13}{sparkline(series)}  [{lo:.6g} .. {hi:.6g}]"
        )
    cost = data["cost"]
    if cost:
        lines.append(
            f"  cost: ${cost['total']:.2f} (spot ${cost['spot']:.2f} / "
            f"on-demand ${cost['on_demand']:.2f})"
        )
    if len(lines) > 3:
        lines.append("")

    latency = data["latency"]
    if latency:
        lines.append("  latency (s)        count      p50      p90      p99      max")
        for name in sorted(latency):
            stats = latency[name]
            lines.append(
                f"    {name:<15}{stats['count']:>8}"
                f"{stats['p50']:>9.3f}{stats['p90']:>9.3f}"
                f"{stats['p99']:>9.3f}{stats['max']:>9.3f}"
            )
        lines.append("")

    tenants = data["tenants"]
    if tenants:
        lines.append(
            "  tenant           admitted  rejected  evict(won/lost)   cost ($)"
        )
        for name in sorted(tenants):
            entry = tenants[name]
            admissions = entry.get("admissions", {})
            evictions = entry.get("evictions", {})
            cost = entry.get("cost", {})
            lines.append(
                f"    {name:<15}{admissions.get('admitted', 0):>8}"
                f"{admissions.get('rejected', 0):>10}"
                f"{evictions.get('won', 0):>8}/{evictions.get('suffered', 0):<8}"
                f"{cost.get('total', 0.0):>9.2f}"
            )
        lines.append("")

    slo = data["slo"]
    if slo:
        lines.append("  slo budget      target   burn(fast)  burn(slow)  state")
        for name in sorted(slo):
            stats = slo[name]
            fast = stats["burn_fast"]
            slow = stats["burn_slow"]
            state = "FIRING" if stats["firing"] else "ok"
            lines.append(
                f"    {name:<13}{stats['target']:>7.3%}"
                f"{'inf' if fast is None else format(fast, '>10.2f'):>12}"
                f"{'inf' if slow is None else format(slow, '>10.2f'):>12}"
                f"  {state}"
            )
        lines.append("")

    if data["alerts"]:
        lines.append(f"  burn alerts ({len(data['alerts'])} transition(s)):")
        for alert in data["alerts"][:12]:
            lines.append(
                f"    t={alert['time']:<10g}{alert['budget']:<14}"
                f"{alert['state']:<9}fast={alert['burn_fast']:g} "
                f"slow={alert['burn_slow']:g}"
            )
        if len(data["alerts"]) > 12:
            lines.append(f"    ... {len(data['alerts']) - 12} more")
        lines.append("")

    counters = data["counters"]
    counter_lines = []
    for name in sorted(counters):
        if name == "events_total":
            continue
        total = sum(counters[name].values())
        if total == 0:
            continue
        counter_lines.append(f"    {name:<34}{total:>12g}")
    if counter_lines:
        lines.append("  counters:")
        lines.extend(counter_lines)
        lines.append("")

    replicas = data["replicas"]
    if replicas:
        shown = replicas[:DASHBOARD_REPLICA_ROWS]
        zone_width = max(4, *(len(row["zone"]) for row in shown)) + 2
        lines.append(f"  replicas ({len(replicas)}):")
        lines.append(
            f"    {'id':>6}  {'market':<10}{'zone':<{zone_width}}"
            f"{'launched':>9}{'ready':>9}{'ended':>9}  {'outcome':<20}"
            f"{'batch':>6}{'queue':>6}{'shed':>6}"
        )
        for row in shown:
            lines.append(
                f"    {row['id']:>6}  {row['market'] or '-':<10}"
                f"{row['zone'] or '-':<{zone_width}}"
                f"{_fmt_time(row['launched']):>9}{_fmt_time(row['ready']):>9}"
                f"{_fmt_time(row['ended']):>9}  {row['outcome']:<20}"
                f"{row['peak_batch']:>6}{row['peak_queue']:>6}{row['shed']:>6}"
            )
        if len(replicas) > len(shown):
            lines.append(f"    … {len(replicas) - len(shown)} more")
        lines.append("")

    profile = data["profile"]
    if profile:
        ranked = sorted(profile, key=lambda p: (-p["total_s"], p["phase"]))
        lines.append(f"  hot phases (top {min(top_k, len(ranked))}, wall-clock):")
        for entry in ranked[:top_k]:
            mean_us = (
                entry["total_s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0
            )
            note = " (sampled)" if entry["sampled"] else ""
            lines.append(
                f"    {entry['phase']:<26}{entry['total_s']:>10.4f}s"
                f"{entry['calls']:>10} calls{mean_us:>10.1f}us/call{note}"
            )
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
