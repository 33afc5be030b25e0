"""Integration tests for the SkyService facade."""

import numpy as np
import pytest

from repro.cloud import (
    HOUR,
    PriceBook,
    SpotTrace,
    aws1,
    hetero_catalog,
    pool_capacity_weights,
    pool_id,
    pool_spot_costs,
    split_pool,
)
from repro.core import OnDemandOnlyPolicy, hetero_spothedge, spothedge
from repro.serving import (
    DomainFilter,
    ReplicaPolicyConfig,
    ResourceSpec,
    ServiceSpec,
    SkyService,
)
from repro.telemetry import EventBus, RingBufferSink, build_report
from repro.workloads import poisson_workload


def make_spec(**policy_kwargs):
    return ServiceSpec(
        name="svc",
        replica_policy=ReplicaPolicyConfig(fixed_target=2, **policy_kwargs),
        resources=ResourceSpec(
            accelerator="V100",
            any_of=(DomainFilter(cloud="aws", region="us-west-2"),),
        ),
        request_timeout=60.0,
    )


class TestSkyService:
    def test_run_produces_report(self):
        trace = aws1()
        service = SkyService(make_spec(), spothedge(trace.zone_ids), trace, seed=1)
        workload = poisson_workload(HOUR, rate=0.1, seed=1)
        report = service.run(workload, HOUR)
        assert report.system == "SpotHedge"
        assert report.total_requests == len(workload)
        assert report.completed + report.failed <= report.total_requests
        assert report.total_cost > 0
        assert 0.0 <= report.availability <= 1.0

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            trace = aws1()
            service = SkyService(make_spec(), spothedge(trace.zone_ids), trace, seed=7)
            workload = poisson_workload(HOUR, rate=0.1, seed=3)
            results.append(service.run(workload, HOUR))
        a, b = results
        assert a.completed == b.completed
        assert a.failed == b.failed
        assert a.total_cost == pytest.approx(b.total_cost)

    def test_on_demand_only_costs_more_than_spothedge(self):
        trace = aws1()
        workload = poisson_workload(2 * HOUR, rate=0.1, seed=2)
        od_service = SkyService(
            make_spec(), OnDemandOnlyPolicy(trace.zone_ids), trace, seed=2
        )
        od_report = od_service.run(workload, 2 * HOUR)
        sh_service = SkyService(
            make_spec(), spothedge(trace.zone_ids), trace, seed=2
        )
        sh_report = sh_service.run(workload, 2 * HOUR)
        assert od_report.od_cost > 0
        assert od_report.spot_cost == 0
        assert sh_report.total_cost < od_report.total_cost

    def test_cost_relative_normalisation(self):
        trace = aws1()
        service = SkyService(make_spec(), spothedge(trace.zone_ids), trace, seed=4)
        report = service.run(poisson_workload(HOUR, rate=0.05, seed=4), HOUR)
        relative = report.cost_relative_to_on_demand(od_hourly=3.06, n_tar=2)
        assert 0.0 < relative < 2.0

    def test_report_before_run_rejected(self):
        trace = aws1()
        service = SkyService(make_spec(), spothedge(trace.zone_ids), trace)
        with pytest.raises(RuntimeError):
            service.report(100.0)


class TestTeardown:
    def test_down_terminates_all_instances(self):

        trace = aws1()
        service = SkyService(make_spec(), spothedge(trace.zone_ids), trace, seed=5)
        workload = poisson_workload(HOUR, rate=0.05, seed=5)
        service.run(workload, HOUR)
        assert service.controller.replicas  # something was running
        service.down()
        assert service.controller.replicas == []
        for instance in service.cloud.billing.instances:
            assert instance.state.is_terminal

    def test_billing_stops_after_down(self):
        trace = aws1()
        service = SkyService(make_spec(), spothedge(trace.zone_ids), trace, seed=6)
        service.run(poisson_workload(HOUR, rate=0.05, seed=6), HOUR)
        service.down()
        cost_at_down = service.cloud.billing.total(service.engine.now)
        service.engine.run_until(2 * HOUR)
        assert service.cloud.billing.total(service.engine.now) == pytest.approx(
            cost_at_down
        )

    def test_down_records_teardown(self):
        # Fixed target 2 on a short aws1 window: four replicas are still
        # up when the service goes down.
        sink = RingBufferSink()
        trace = aws1().window(0, 3 * HOUR)
        service = SkyService(
            make_spec(), spothedge(trace.zone_ids), trace, seed=1,
            telemetry=EventBus([sink]),
        )
        service.run(poisson_workload(HOUR, rate=0.1, seed=1), HOUR)
        live = [r.id for r in service.controller.replicas]
        assert live
        service.down()
        rows = {row["id"]: row for row in build_report(sink.events).to_dict()["replicas"]}
        assert not [r for r in rows.values() if r["outcome"] == "running"]
        assert {rows[rid]["outcome"] for rid in live} == {"teardown"}
        assert service.controller._instance_replica == {}


# §6 tier fallback on the request-level stack: an A100 service whose
# A100 pools black out from hour 3 to hour 8 while the V100 pools stay up.
A100_POOLS = [
    pool_id(zone, "a2-ultragpu-4g")
    for zone in ("gcp:us-central1:us-central1-a", "gcp:us-east1:us-east1-b")
]
V100_POOLS = [
    pool_id(zone, "p3.8xlarge")
    for zone in ("aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b")
]


def tier_trace():
    steps = 12 * 60
    a100 = np.full((2, steps), 4)
    a100[:, 180:480] = 0
    rows = np.vstack([a100, np.full((2, steps), 4)])
    return SpotTrace("hetero-demo", A100_POOLS + V100_POOLS, 60.0, rows)


class TestHeterogeneousPools:
    def test_tier_fallback_with_default_od_zones(self):
        trace = tier_trace()
        catalog = hetero_catalog()
        pools = trace.zone_ids
        policy = hetero_spothedge(
            pools,
            pool_costs=pool_spot_costs(pools, PriceBook(catalog), reference="A100"),
            pool_weights=pool_capacity_weights(pools, catalog, reference="A100"),
            num_overprovision=1,
        )
        spec = ServiceSpec(
            name="svc",
            replica_policy=ReplicaPolicyConfig(fixed_target=4),
            resources=ResourceSpec(accelerator="A100"),
            request_timeout=60.0,
        )
        service = SkyService(spec, policy, trace, catalog=catalog, seed=3)
        service.run(poisson_workload(12 * HOUR, rate=0.02, seed=3), 12 * HOUR)

        instances = service.cloud.billing.instances
        spot = [i for i in instances if i.spot]
        on_demand = [i for i in instances if not i.spot]
        assert {split_pool(i.zone_id)[1] for i in spot} == {
            "a2-ultragpu-4g", "p3.8xlarge"
        }
        for instance in spot:
            assert instance.instance_type.name == split_pool(instance.zone_id)[1]
        assert on_demand
        assert all(split_pool(i.zone_id)[1] is None for i in on_demand)
        v100 = [r for r in service.controller.replicas if r.zone_id in V100_POOLS]
        assert v100
        assert {r.capacity_weight for r in v100} == {0.25}


class TestBoxPlot:
    def test_report_latency_boxplot(self):
        trace = aws1()
        service = SkyService(make_spec(), spothedge(trace.zone_ids), trace, seed=8)
        report = service.run(poisson_workload(HOUR, rate=0.1, seed=8), HOUR)
        box = report.latency_boxplot()
        assert box is not None
        assert box.p10 <= box.p50 <= box.p90
        assert box.count == report.completed
