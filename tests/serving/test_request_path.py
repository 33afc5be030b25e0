"""The request path's scheduling: the client's lazy arrival feed and its
single deadline timer, the least-loaded pick, and the memoised RTT."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.chaos import load_scenario
from repro.cloud import CloudConfig, SimCloud, SpotTrace, aws1
from repro.cloud.network import NetworkModel, default_network
from repro.control import ControlPlane, DeploymentSpec, TenantSpec
from repro.core import spothedge
from repro.experiments.endtoend import SKYSERVE_REGIONS, e2e_trace
from repro.serving import (
    DomainFilter,
    LeastLoadBalancer,
    ModelProfile,
    ReplicaPolicyConfig,
    ResourceSpec,
    RetryPolicy,
    ServiceClient,
    ServiceController,
    ServiceSpec,
    SkyService,
)
from repro.serving.replica import Replica, ReplicaState
from repro.sim import SimulationEngine, SimulationError
from repro.workloads import Request, Workload, poisson_workload

ZONES = ["aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b"]


def build(capacity, times, *, timeout=50.0, service_seconds=2.0, engine=None):
    engine = engine or SimulationEngine()
    trace = SpotTrace("cli", ZONES, 60.0, np.asarray([[capacity] * 60] * 2))
    cloud = SimCloud(
        engine,
        trace,
        config=CloudConfig(provision_delay_mean=30.0, setup_delay_mean=30.0, delay_jitter=0.0),
    )
    spec = ServiceSpec(
        replica_policy=ReplicaPolicyConfig(fixed_target=1, num_overprovision=0),
        resources=ResourceSpec(
            accelerator="V100", any_of=(DomainFilter(cloud="aws", region="us-west-2"),)
        ),
        request_timeout=timeout,
    )
    profile = ModelProfile(
        "m", overhead=service_seconds, prefill_per_token=0.0, decode_per_token=0.0,
        max_concurrency=4,
    )
    controller = ServiceController(
        engine, cloud, spec, spothedge(ZONES, num_overprovision=0), profile
    )
    workload = Workload("w", [Request(i, t, 10, 10) for i, t in enumerate(times)])
    return engine, controller, ServiceClient(controller, workload)


def count_pending_expiries(engine, client):
    """Wrap ``engine.call_at`` so the returned set holds one token per
    scheduled-but-not-yet-fired deadline timer of ``client``."""
    pending: set[object] = set()
    real_call_at = engine.call_at

    def call_at(time, callback):
        if callback != client._expire:
            return real_call_at(time, callback)
        token = object()
        pending.add(token)

        def fire():
            pending.discard(token)
            callback()

        return real_call_at(time, fire)

    engine.call_at = call_at
    return pending


class TestArrivalFeed:
    def test_start_schedules_one_arrival(self):
        engine, controller, client = build(2, [10.0 + i for i in range(50)])
        client.start()
        assert engine.pending_events == 1

    def test_each_arrival_schedules_the_next(self):
        engine, controller, client = build(0, [10.0, 10.0, 12.0])
        client.start()
        engine.run_until(10.0)
        # Both t=10 arrivals fired.  Pending: the t=12 arrival, the
        # deadline timer and one retry per open request.
        assert client.spans.open_count == 2
        assert engine.pending_events == 4

    def test_past_arrival_rejected_at_start(self):
        engine = SimulationEngine(start_time=100.0)
        engine, controller, client = build(2, [50.0, 150.0], engine=engine)
        with pytest.raises(SimulationError):
            client.start()
        assert engine.pending_events == 0

    def test_arrival_at_now_accepted(self):
        engine = SimulationEngine(start_time=100.0)
        engine, controller, client = build(2, [100.0], engine=engine)
        client.start()
        assert engine.pending_events == 1

    def test_empty_workload_schedules_nothing(self):
        engine, controller, client = build(2, [])
        client.start()
        assert engine.pending_events == 0


class TestDeadlineTimer:
    def test_failures_land_exactly_at_the_deadline(self):
        # No controller: nothing is ever ready, every request times out.
        times = [3.0 * i + 0.25 for i in range(30)]
        engine, controller, client = build(0, times, timeout=20.0)
        client.start()
        engine.run_until(500.0)
        assert client.stats().failed == 30
        assert [span.total for span in client.spans.failed] == [20.0] * 30
        assert [span.finish for span in client.spans.failed] == [t + 20.0 for t in times]

    def test_one_pending_deadline_event_per_client(self):
        times = sorted(np.random.default_rng(3).uniform(0.0, 900.0, 150))
        engine, controller, client = build(1, times, timeout=30.0, service_seconds=10.0)
        pending = count_pending_expiries(engine, client)
        controller.start()
        client.start()
        most = 0
        while engine.step():
            assert len(pending) <= 1
            most = max(most, len(pending))
            if engine.now > 1500.0:
                break
        stats = client.stats()
        assert most == 1
        assert stats.failed > 0 and stats.completed > 0
        assert stats.completed + stats.failed == len(times)

    def test_timer_rearms_after_idle_period(self):
        engine, controller, client = build(0, [0.0, 1000.0], timeout=10.0)
        client.start()
        engine.run_until(500.0)
        assert client.stats().failed == 1
        assert engine.pending_events == 1  # only the second arrival
        engine.run_until(1100.0)
        assert client.stats().failed == 2
        assert engine.pending_events == 0

    def test_late_completion_fails_once(self):
        # Served in 19.999 s plus a 2 ms same-region round trip: the
        # response lands 1 ms past the 20 s timeout, before the deadline
        # timer fires at t=120.
        engine, controller, client = build(
            2, [100.0], timeout=20.0, service_seconds=19.999
        )
        controller.start()
        client.start()
        engine.run_until(300.0)
        stats = client.stats()
        assert (stats.completed, stats.failed) == (0, 1)
        assert client.failures.value == 1
        assert client.spans.failed[0].finish == pytest.approx(119.999)

    def test_completed_requests_never_fail(self):
        times = [100.0 + i for i in range(20)]
        engine, controller, client = build(2, times, timeout=50.0)
        controller.start()
        client.start()
        engine.run_until(400.0)
        stats = client.stats()
        assert stats.completed == 20
        assert stats.failed == 0
        assert engine.pending_events > 0  # controller timers only
        assert client.failures.value == 0


def _ends_once(client):
    stats = client.stats()
    assert stats.completed + stats.failed + client.spans.open_count == len(client.workload)
    # The failure counter counts each failed request once.
    assert client.failures.value == stats.failed


class TestEveryRequestEndsOnce:
    def test_kitchen_sink_service(self):
        duration = 3 * 3600.0
        trace = e2e_trace("volatile", duration=duration, seed=2)
        spec = ServiceSpec(
            replica_policy=ReplicaPolicyConfig(fixed_target=2, num_overprovision=1),
            resources=ResourceSpec(
                accelerator="A10G",
                any_of=tuple(
                    DomainFilter(cloud=r.split(":")[0], region=r.split(":")[1])
                    for r in SKYSERVE_REGIONS
                ),
            ),
            request_timeout=100.0,
            max_queue_per_replica=2,
        )
        service = SkyService(
            spec, spothedge(trace.zone_ids), trace, seed=2,
            scenario=load_scenario("kitchen-sink"), retry_policy=RetryPolicy(),
        )
        report = service.run(poisson_workload(duration, rate=0.3, seed=2), duration)
        assert report.failed > 0 and report.completed > 0
        _ends_once(service.client)

    def test_control_plane_tenants(self):
        def tenant(name, **kwargs):
            return TenantSpec(
                service=ServiceSpec(
                    name=name, replica_policy=ReplicaPolicyConfig(fixed_target=2)
                ),
                workload="poisson",
                rate=0.5,
                **kwargs,
            )

        deployment = DeploymentSpec(
            name="pair",
            tenants=(tenant("a", qps_share=2.0), tenant("b", policy="EvenSpread")),
            hours=0.5,
        )
        plane = ControlPlane(deployment, aws1(), seed=5)
        plane.run()
        assert len(plane.clients) == 2
        for client in plane.clients.values():
            _ends_once(client)


def _old_least_loaded(replicas):
    """The key-lambda definition the one-loop pick replaced."""
    return min(replicas, key=lambda r: (r.ongoing_requests / r.capacity_weight, r.id))


class TestLeastLoadedPick:
    def test_matches_min_over_load_then_id(self):
        rng = np.random.default_rng(7)
        engine = SimulationEngine()
        ids = itertools.count(1)
        for _ in range(200):
            replicas = []
            for _ in range(int(rng.integers(1, 7))):
                replica = Replica(
                    engine,
                    ModelProfile("m", 1.0, 0.0, 0.0, 64),
                    zone_id="z1",
                    spot=True,
                    replica_id=next(ids),
                    capacity_weight=float(rng.choice([0.5, 1.0, 2.0])),
                )
                replica.state = ReplicaState.READY
                for i in range(int(rng.integers(0, 4))):
                    replica.handle(Request(i, 0.0, 1, 1), lambda r: None, lambda r: None)
                replicas.append(replica)
            rng.shuffle(replicas)
            assert LeastLoadBalancer().pick(replicas, Request(0, 0.0, 1, 1)) is (
                _old_least_loaded(replicas)
            )

    def test_empty(self):
        assert LeastLoadBalancer().pick((), Request(0, 0.0, 1, 1)) is None


class TestRtt:
    def test_memo_returns_the_computed_value(self):
        network = default_network()
        fresh = default_network()
        pairs = [
            ("aws:us-west-2", "aws:us-east-1"),
            ("us-east-1", "us-west-2"),
            ("aws:us-west-2", "aws:us-west-2"),
            ("gcp:asia-east1", "aws:us-east-2"),
            ("z1", "aws:us-west-2"),
        ]
        for a, b in pairs * 2:
            assert network.rtt(a, b) == fresh._lookup(a, b)
            assert network.rtt(a, b) == network.rtt(b, a)

    def test_overrides_validated(self):
        with pytest.raises(ValueError):
            NetworkModel({("a", "b"): -1.0})


class TestReplicaRegion:
    @pytest.mark.parametrize(
        "zone, region",
        [("aws:us-west-2:us-west-2a", "aws:us-west-2"), ("z1", "z1"), ("a:b", "a")],
    )
    def test_region_id(self, zone, region):
        replica = Replica(SimulationEngine(), ModelProfile("m", 1.0, 0.0, 0.0, 1),
                          zone_id=zone, spot=True)
        assert replica.region_id == region
