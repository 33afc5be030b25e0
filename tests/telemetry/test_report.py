"""Unit tests for the canonical run report and terminal dashboard."""

import json
from pathlib import Path

import numpy as np

import pytest

from repro.telemetry import (
    AutoscaleDecision,
    ChaosInjected,
    ChaosScenarioEnded,
    ChaosScenarioStarted,
    CostSnapshot,
    EventBus,
    EventsDropped,
    FleetSample,
    JsonlSink,
    LoadBalancerFallback,
    PolicyDecision,
    ProfilePhase,
    ReplicaLaunch,
    ReplicaLoadSample,
    ReplicaPreempted,
    ReplicaReady,
    ReplicaTerminated,
    RingBufferSink,
    SloBurnAlert,
    build_report,
    read_events,
    render_dashboard,
)
from repro.telemetry.events import RequestSpanEvent
from repro.telemetry.report import (
    DASHBOARD_REPLICA_ROWS,
    REPORT_SCHEMA,
    downsample_series,
    sparkline,
)


def _span(time, status="ok"):
    return RequestSpanEvent(
        time=time, request_id=int(time), status=status, queue=0.1,
        prefill=0.2, decode=0.6, wan=0.1, total=1.0, retries=0,
        replica_id=1, zone="aws:z:a", batch_size=1, queue_depth=0,
    )


def _events():
    events = []
    for i in range(20):
        t = float(i * 10)
        events.append(FleetSample(t, 3 if i % 4 else 1, 4))
        events.append(_span(t, status="ok" if i % 5 else "failed"))
    events.append(CostSnapshot(200.0, 1.25, 2.75, 4.0))
    return events


class TestDownsample:
    def test_short_series_pass_through(self):
        series = [(0.0, 1.0), (10.0, 2.0)]
        assert downsample_series(series, width=64) == [1.0, 2.0]

    def test_time_weighted_bucket_means(self):
        # Step function: value 0 for [0, 50), value 10 for [50, 100).
        series = [(0.0, 0.0), (50.0, 10.0), (100.0, 10.0)]
        out = downsample_series(series, width=2)
        assert out == [0.0, 10.0]

    def test_deterministic(self):
        series = [(float(i), float(i % 7)) for i in range(500)]
        assert downsample_series(series, 32) == downsample_series(series, 32)
        assert len(downsample_series(series, 32)) == 32

    def test_sparkline_levels(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"


class TestBuildReport:
    def test_sections_present(self):
        report = build_report(_events(), label="unit")
        data = report.to_dict()
        assert data["schema"] == REPORT_SCHEMA
        assert data["label"] == "unit"
        assert data["events"]["count"] == 41
        assert data["events"]["time_start"] == 0.0
        assert data["events"]["time_end"] == 200.0
        assert data["timelines"]["fleet_ready"]
        assert data["latency"]["latency.ok"]["count"] == 16
        assert data["latency"]["ttft"]["count"] == 16
        assert "availability" in data["slo"]

    def test_json_byte_identical_across_invocations(self):
        events = _events()
        r1 = build_report(events, label="x").to_json()
        r2 = build_report(events, label="x").to_json()
        assert r1 == r2
        assert r1.endswith("\n")
        json.loads(r1)  # valid JSON

    def test_profile_phases_excluded_from_time_range(self):
        events = _events()
        # A profile event stamped with wall-clock time must not stretch
        # the simulated time range.
        events.append(ProfilePhase(99999.0, "replay.policy", 10, 0.5, 0.1, True))
        report = build_report(events, label="x")
        data = report.to_dict()
        assert data["events"]["time_end"] == 200.0
        assert data["profile"][0]["phase"] == "replay.policy"

    def test_dropped_total_from_marker_events(self):
        from repro.telemetry import EventsDropped

        events = _events()
        events.append(EventsDropped(150.0, 42, 1000))
        report = build_report(events, label="x")
        assert report.to_dict()["events"]["dropped_total"] == 42

    def test_burn_alerts_listed(self):
        events = [_span(float(i), status="failed") for i in range(6)]
        report = build_report(
            events, label="x", window_fast=60.0, window_slow=600.0
        )
        data = report.to_dict()
        assert data["alerts"]
        assert data["alerts"][0]["state"] == "firing"
        assert data["slo"]["ttft"]["firing"]

    def test_from_replay_events(self):
        from repro.cloud import SpotTrace
        from repro.core import spothedge
        from repro.experiments import ReplayConfig, TraceReplayer

        zones = ["aws:r1:a", "aws:r1:b"]
        rng = np.random.default_rng(0)
        trace = SpotTrace("t", zones, 60.0, rng.integers(0, 4, size=(2, 128)))
        sink = RingBufferSink()
        replayer = TraceReplayer(
            trace, ReplayConfig(n_tar=2), telemetry=EventBus([sink])
        )
        replayer.run(spothedge(zones))
        report = build_report(sink.events, label="replay")
        data = report.to_dict()
        assert data["timelines"]["cost_total"][-1] > 0
        assert sum(data["counters"]["replica_launches_total"].values()) >= 1


class TestRenderDashboard:
    def test_renders_all_sections(self):
        events = _events()
        events.append(ProfilePhase(0.0, "replay.policy", 8, 0.4, 0.1, True))
        report = build_report(events, label="demo")
        text = render_dashboard(report)
        assert "demo" in text
        assert "fleet" in text
        assert "hot phases" in text
        assert "replay.policy" in text
        assert "(sampled)" in text

    def test_dashboard_is_pure_function_of_report(self):
        events = _events()
        a = render_dashboard(build_report(events, label="x"))
        b = render_dashboard(build_report(events, label="x"))
        assert a == b


# -- event-log views: one small hand-written log of each shape ----------


def _leg_span(request_id, total, status="ok"):
    return RequestSpanEvent(
        time=float(total),
        request_id=request_id,
        status=status,
        queue=1.0,
        prefill=0.5,
        decode=total - 1.5,
        wan=0.0,
        total=float(total),
        retries=0,
        replica_id=1,
        zone="aws:z:a",
    )


def sample_events():
    return [
        ReplicaLaunch(time=0.0, replica_id=1, zone="aws:z:a", spot=True),
        ReplicaLaunch(time=0.0, replica_id=2, zone="aws:z:b", spot=False),
        ReplicaReady(time=120.0, replica_id=1, zone="aws:z:a", spot=True),
        ReplicaReady(time=90.0, replica_id=2, zone="aws:z:b", spot=False),
        PolicyDecision(
            time=150.0, policy="SpotHedge", decision="rebalance",
            data={"restored": ["aws:z:c"]},
        ),
        AutoscaleDecision(time=200.0, old_target=2, new_target=3, request_rate=0.4),
        _leg_span(1, 10.0),
        _leg_span(2, 12.0),
        _leg_span(3, 100.0, status="failed"),
        ReplicaPreempted(time=300.0, replica_id=1, zone="aws:z:a", spot=True,
                         warned=True),
        ReplicaTerminated(time=400.0, replica_id=2, zone="aws:z:b", spot=False,
                          reason="scale_down"),
        CostSnapshot(time=500.0, spot=1.25, on_demand=0.75, total=2.0),
    ]


def chaos_events():
    return [
        ChaosScenarioStarted(time=0.0, scenario="storm-demo", injections=2),
        ChaosInjected(time=3600.0, scenario="storm-demo",
                      injection="preemption_storm",
                      zones=["aws:z:a", "aws:z:b"],
                      detail="pulse systemic severity=1"),
        ChaosInjected(time=3900.0, scenario="storm-demo",
                      injection="preemption_storm", zones=["aws:z:a"],
                      detail="pulse independent severity=1"),
        ChaosInjected(time=5000.0, scenario="storm-demo",
                      injection="warning_disruption", zones=["aws:z:b"],
                      detail="warning suppressed"),
        ChaosScenarioEnded(time=10800.0, scenario="storm-demo", injected=3),
    ]


class TestEventLogAggregates:
    def test_aggregates(self):
        data = build_report(sample_events()).to_dict()
        assert data["events"]["count"] == 12
        assert data["events"]["time_start"] == 0.0
        assert data["events"]["time_end"] == 500.0
        counters = data["counters"]
        assert counters["events_total"]["request.span"] == 3
        assert data["latency"]["latency.ok"]["count"] == 2
        assert data["latency"]["latency.failed"]["count"] == 1
        assert counters["replica_preemptions_total"] == {"aws:z:a": 1}
        assert counters["replica_preemptions_warned_total"] == {"aws:z:a": 1}
        assert counters["policy_decisions_total"] == {"rebalance": 1}
        assert data["timelines"]["fleet_target"] == [3.0]
        assert data["cost"] == {"on_demand": 0.75, "spot": 1.25, "total": 2.0}

    def test_span_legs(self):
        legs = build_report(sample_events()).to_dict()["latency"]
        assert sorted(k for k in legs if k.startswith("leg.")) == [
            "leg.decode", "leg.prefill", "leg.queue", "leg.wan",
        ]
        assert legs["leg.queue"]["count"] == 3
        assert legs["leg.queue"]["max"] == 1.0
        assert legs["leg.decode"]["max"] == 98.5

    def test_replica_lifecycle_rows(self):
        rows = build_report(sample_events()).to_dict()["replicas"]
        one, two = rows
        assert one == {
            "id": 1, "market": "spot", "zone": "aws:z:a",
            "launched": 0.0, "ready": 120.0, "ended": 300.0,
            "outcome": "preempted (warned)",
            "peak_batch": 0, "peak_queue": 0, "shed": 0,
        }
        assert (two["id"], two["market"], two["outcome"]) == (2, "on_demand", "scale_down")

    def test_load_samples_fold_into_rows(self):
        events = sample_events() + [
            ReplicaLoadSample(10.0, 1, "aws:z:a", executing=3, queued=1, shed=0),
            ReplicaLoadSample(20.0, 1, "aws:z:a", executing=2, queued=4, shed=2),
        ]
        one = build_report(events).to_dict()["replicas"][0]
        assert (one["peak_batch"], one["peak_queue"], one["shed"]) == (3, 4, 2)

    def test_empty_log(self):
        data = build_report([]).to_dict()
        assert data["events"]["count"] == 0
        assert data["replicas"] == []
        assert data["cost"] == {}


class TestEventLogDashboard:
    def test_sections_present(self):
        text = render_dashboard(build_report(sample_events()))
        assert "replicas (2):" in text
        assert "preempted (warned)" in text
        assert "replica_preemptions_warned_total" in text
        assert "leg.queue" in text
        assert "policy_decisions_total" in text
        assert "cost: $2.00 (spot $1.25 / on-demand $0.75)" in text

    def test_replica_rows_truncate(self):
        extra = 6
        events = [
            ReplicaLaunch(time=float(i), replica_id=i, zone="z", spot=True)
            for i in range(DASHBOARD_REPLICA_ROWS + extra)
        ]
        report = build_report(events)
        assert len(report.to_dict()["replicas"]) == DASHBOARD_REPLICA_ROWS + extra
        assert f"… {extra} more" in render_dashboard(report)

    def test_empty_log_renders(self):
        assert "events: 0" in render_dashboard(build_report([]))


class TestChaosCounters:
    def test_injections_counted_by_kind(self):
        counters = build_report(chaos_events()).to_dict()["counters"]
        assert counters["chaos_injections_total"] == {
            "preemption_storm": 2,
            "warning_disruption": 1,
        }

    def test_injected_alone_still_counted(self):
        counters = build_report(chaos_events()[1:2]).to_dict()["counters"]
        assert counters["chaos_injections_total"] == {"preemption_storm": 1}

    def test_every_injection_counted(self):
        events = [ChaosScenarioStarted(time=0.0, scenario="many", injections=1)]
        events += [
            ChaosInjected(time=float(i), scenario="many",
                          injection="preemption_storm", zones=["z"])
            for i in range(14)
        ]
        counters = build_report(events).to_dict()["counters"]
        assert counters["chaos_injections_total"] == {"preemption_storm": 14}

    def test_dashboard_lists_injections(self):
        text = render_dashboard(build_report(chaos_events()))
        assert "chaos_injections_total" in text

    def test_no_chaos_no_counter(self):
        report = build_report(sample_events())
        assert "chaos_injections_total" not in report.to_dict()["counters"]
        assert "chaos" not in render_dashboard(report)


class TestLoggedObservability:
    def test_dropped_events_shown(self):
        events = sample_events() + [EventsDropped(450.0, 7, 1000)]
        report = build_report(events)
        assert report.to_dict()["events"]["dropped_total"] == 7
        assert "dropped: 7" in render_dashboard(report)

    def test_last_dropped_marker_wins(self):
        events = [EventsDropped(1.0, 3, 10), EventsDropped(2.0, 9, 10)]
        assert build_report(events).to_dict()["events"]["dropped_total"] == 9

    def test_no_drops_shown_as_zero(self):
        assert "dropped: 0" in render_dashboard(build_report(sample_events()))

    def test_lb_fallbacks_counted(self):
        events = sample_events() + [
            LoadBalancerFallback(10.0, 5, 1, "locality"),
            LoadBalancerFallback(11.0, 6, 2, "locality"),
        ]
        report = build_report(events)
        assert report.to_dict()["counters"]["lb_fallbacks_total"] == {"": 2}
        assert "lb_fallbacks_total" in render_dashboard(report)

    def test_logged_burn_alerts_counted(self):
        events = sample_events() + [
            SloBurnAlert(50.0, "ttft", "firing", 20.0, 12.0, 300.0, 3600.0, 10.0),
            SloBurnAlert(90.0, "ttft", "resolved", 1.0, 2.0, 300.0, 3600.0, 10.0),
        ]
        report = build_report(events)
        assert report.to_dict()["counters"]["slo_burn_alerts_total"] == {
            "ttft,firing": 1, "ttft,resolved": 1,
        }
        assert "slo_burn_alerts_total" in render_dashboard(report)

    def test_logged_burn_alerts_all_counted(self):
        events = [
            SloBurnAlert(float(i), "ttft", "firing" if i % 2 == 0 else "resolved",
                         20.0, 12.0, 300.0, 3600.0, 10.0)
            for i in range(15)
        ]
        counters = build_report(events).to_dict()["counters"]
        assert counters["slo_burn_alerts_total"] == {
            "ttft,firing": 8, "ttft,resolved": 7,
        }


# -- conservation: the replicas section against the metric counters ---


def _kitchen_sink_events(path):
    from repro.chaos import load_scenario
    from repro.cloud import HOUR
    from repro.core import spothedge
    from repro.experiments.endtoend import SKYSERVE_REGIONS, e2e_trace
    from repro.serving import (
        DomainFilter,
        ReplicaPolicyConfig,
        ResourceSpec,
        RetryPolicy,
        ServiceSpec,
        SkyService,
    )
    from repro.workloads import poisson_workload

    duration = 5 * HOUR
    trace = e2e_trace("volatile", duration=duration, seed=3)
    spec = ServiceSpec(
        name="kitchen-sink",
        replica_policy=ReplicaPolicyConfig(fixed_target=3, num_overprovision=2),
        resources=ResourceSpec(
            accelerator="A10G",
            any_of=tuple(
                DomainFilter(cloud=r.split(":")[0], region=r.split(":")[1])
                for r in SKYSERVE_REGIONS
            ),
        ),
        request_timeout=100.0,
    )
    bus = EventBus([JsonlSink(path)])
    service = SkyService(
        spec, spothedge(trace.zone_ids), trace, seed=3,
        scenario=load_scenario("kitchen-sink"), retry_policy=RetryPolicy(),
        telemetry=bus,
    )
    service.run(poisson_workload(duration, rate=0.1, seed=3), duration)
    bus.close()
    return read_events(path)


def _three_tenant_events(path):
    from repro.cloud import aws1
    from repro.control import ControlPlane, load_deployment

    deployment = load_deployment(
        Path(__file__).resolve().parents[2] / "configs" / "deployments" / "three-tenants.json"
    )
    bus = EventBus([JsonlSink(path)])
    ControlPlane(deployment, aws1(), seed=0, telemetry=bus).run()
    bus.close()
    return read_events(path)


@pytest.fixture(scope="module", params=["kitchen-sink", "three-tenants"])
def logged_run(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("logs") / f"{request.param}.jsonl"
    if request.param == "kitchen-sink":
        return _kitchen_sink_events(path)
    return _three_tenant_events(path)


class TestReplicaConservation:
    """Every replica row is one launch, and its outcome is the counted
    ending: the table and the counters read the same events."""

    def test_rows_match_counters(self, logged_run):
        data = build_report(logged_run).to_dict()
        rows = data["replicas"]
        counters = data["counters"]

        def total(name):
            return sum(counters.get(name, {}).values())

        outcomes = [row["outcome"] for row in rows]
        assert len(rows) == total("replica_launches_total")
        assert sum(o.startswith("preempted") for o in outcomes) == total(
            "replica_preemptions_total"
        )
        assert outcomes.count("preempted (warned)") == total(
            "replica_preemptions_warned_total"
        )
        assert outcomes.count("launch failed") == total("replica_launch_failures_total")

    def test_rows_are_ordered_in_time(self, logged_run):
        for row in build_report(logged_run).to_dict()["replicas"]:
            times = [row[k] for k in ("launched", "ready", "ended") if row[k] is not None]
            assert row["launched"] is not None, row
            assert times == sorted(times), row

    def test_replay_log_counts_failed_attempts_not_replicas(self, tmp_path, capsys):
        # A replay log records a failed launch *attempt* with replica id
        # -1: it counts in replica_launch_failures_total but is no
        # replica, so it gets no row.
        from repro.cli import main

        log = tmp_path / "replay.jsonl"
        raw = tmp_path / "replay.json"
        assert main([
            "replay", "--trace", "aws1", "--policies", "SpotHedge", "--target", "2",
            "--events", str(log), "--json", str(raw),
        ]) == 0
        capsys.readouterr()
        result = json.loads(raw.read_text())["experiments"]["replay"]["SpotHedge"]
        data = build_report(read_events(log)).to_dict()
        rows = data["replicas"]
        counters = data["counters"]

        def total(name):
            return sum(counters.get(name, {}).values())

        assert len(rows) == total("replica_launches_total") > 0
        assert not [row for row in rows if row["outcome"] == "launch failed"]
        assert total("replica_launch_failures_total") == result["launch_failures"] > 0
