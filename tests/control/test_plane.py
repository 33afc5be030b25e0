"""ControlPlane fleet runs and the canonical FleetReport artifact."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cloud import HOUR, SpotTrace, aws1
from repro.control import (
    ControlPlane,
    DeploymentSpec,
    FleetReport,
    TenantSpec,
    load_deployment,
)
from repro.serving import (
    DomainFilter,
    ReplicaPolicyConfig,
    ResourceSpec,
    ServiceSpec,
)
from repro.telemetry import EventBus, RingBufferSink

REPO_ROOT = Path(__file__).resolve().parents[2]


def tenant(name, target=2, **kwargs):
    kwargs.setdefault("workload", "poisson")
    kwargs.setdefault("rate", 0.2)
    return TenantSpec(
        service=ServiceSpec(
            name=name,
            replica_policy=ReplicaPolicyConfig(fixed_target=target),
        ),
        **kwargs,
    )


def two_tenant_deployment(**kwargs):
    kwargs.setdefault("hours", 0.5)
    return DeploymentSpec(
        name="pair",
        tenants=(
            tenant("a", priority=1, qps_share=2.0),
            tenant("b", policy="EvenSpread", profile="opt-6.7b"),
        ),
        **kwargs,
    )


class TestControlPlane:
    def test_fleet_run_produces_complete_report(self):
        plane = ControlPlane(two_tenant_deployment(), aws1(), seed=5)
        fleet = plane.run()
        assert fleet.deployment == "pair"
        assert fleet.admission == "fair_share"
        assert fleet.seed == 5
        assert fleet.duration == pytest.approx(0.5 * HOUR)
        assert {r.tenant for r in fleet.tenants} == {"a", "b"}
        for report in fleet.tenants:
            assert report.total_requests > 0
            assert report.completed + report.failed <= report.total_requests
            assert 0.0 <= report.availability <= 1.0
            assert report.total_cost > 0
        assert fleet.tenant("b").policy == "EvenSpread"
        with pytest.raises(KeyError):
            fleet.tenant("z")

    def test_tenant_costs_sum_to_fleet_cost(self):
        plane = ControlPlane(two_tenant_deployment(), aws1(), seed=5)
        fleet = plane.run()
        assert fleet.fleet_spot_cost == pytest.approx(
            sum(r.spot_cost for r in fleet.tenants)
        )
        assert fleet.fleet_od_cost == pytest.approx(
            sum(r.od_cost for r in fleet.tenants)
        )
        assert fleet.fleet_total_cost > 0

    def test_report_json_is_canonical(self):
        plane = ControlPlane(two_tenant_deployment(), aws1(), seed=5)
        text = plane.run().to_json()
        data = json.loads(text)
        assert data["schema"] == "repro.control/v1"
        assert set(data["tenants"]) == {"a", "b"}
        # Canonical form: sorted keys, 2-space indent, trailing newline.
        assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"

    def test_status_covers_every_tenant(self):
        plane = ControlPlane(two_tenant_deployment(), aws1(), seed=5)
        plane.run(600.0)
        status = plane.status()
        assert set(status) == {"a", "b"}

    def test_report_before_run_raises(self):
        plane = ControlPlane(two_tenant_deployment(), aws1(), seed=5)
        with pytest.raises(RuntimeError, match="run\\(\\)"):
            plane.report()

    def test_scenario_arms_against_shared_cloud(self):
        dep = two_tenant_deployment(scenario="capacity-blackout", hours=0.5)
        plane = ControlPlane(dep, aws1(), seed=5)
        fleet = plane.run()
        assert fleet.scenario == "capacity-blackout"
        assert plane.injector is not None

    def test_heterogeneous_pools_rejected_at_construction(self):
        """A zone@itype trace fails loudly when the plane is built, not
        inside the first reconcile of run()."""
        from repro.cloud.catalog import hetero_catalog
        from repro.cloud.gpus import make_hetero_trace

        catalog = hetero_catalog()
        trace = make_hetero_trace(
            aws1().window(0, 3 * HOUR), ["g5.48xlarge", "p4d.24xlarge"], catalog
        )
        deployment = DeploymentSpec(
            name="hetero",
            tenants=(
                TenantSpec(
                    service=ServiceSpec(
                        name="mixed", resources=ResourceSpec(accelerator="A10G")
                    ),
                    workload="poisson",
                ),
            ),
        )
        with pytest.raises(ValueError, match=r"tenant 'mixed'.*@g5\.48xlarge"):
            ControlPlane(deployment, trace, catalog=catalog)

    def test_unknown_profile_or_policy_guarded_by_spec(self):
        with pytest.raises(ValueError):
            tenant("a", policy="Mystery")
        with pytest.raises(ValueError):
            tenant("a", profile="mystery-model")


class TestFleetReportShape:
    def test_fleet_section_aggregates(self):
        plane = ControlPlane(two_tenant_deployment(), aws1(), seed=5)
        fleet = plane.run()
        data = fleet.to_dict()
        assert data["fleet"]["preemptions"] == sum(
            r.preemptions for r in fleet.tenants
        )
        assert data["fleet"]["cost"]["total"] == pytest.approx(
            data["fleet"]["cost"]["spot"] + data["fleet"]["cost"]["on_demand"],
            abs=1e-5,
        )

    def test_round_trip_fields(self):
        report = FleetReport(
            deployment="d",
            admission="fair_share",
            trace="t",
            scenario=None,
            seed=0,
            duration=60.0,
            tenants=(),
            fleet_spot_cost=1.0,
            fleet_od_cost=2.0,
        )
        assert report.fleet_total_cost == 3.0
        assert json.loads(report.to_json())["duration"] == 60.0


class TestRecordedFleetReport:
    """The bundled three-tenant deployment (fair share, capacity
    blackout) on aws1 for an hour, pinned byte for byte; telemetry on
    must not change a byte either (the policy audit only observes)."""

    @pytest.mark.parametrize("telemetry", [False, True], ids=["quiet", "telemetry"])
    def test_report_matches_recorded_fixture(self, telemetry):
        deployment = load_deployment(
            REPO_ROOT / "configs" / "deployments" / "three-tenants.json"
        )
        sink = RingBufferSink()
        plane = ControlPlane(
            deployment,
            aws1(),
            seed=0,
            telemetry=EventBus([sink]) if telemetry else None,
        )
        text = plane.run(HOUR).to_json()
        recorded = (
            REPO_ROOT / "tests" / "data" / "three_tenants_fleet_report.json"
        ).read_text()
        assert text == recorded
        if telemetry:
            assert any(e.kind == "policy.decision" for e in sink.events)


# ----------------------------------------------------------------------
# Two services on one flat two-zone market: independence and contention
# ----------------------------------------------------------------------

ZONES = ["aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b"]


def flat_trace(cap, hours=2):
    return SpotTrace("fleet", ZONES, 60.0, np.full((2, int(hours * 60)), cap))


def us_west_tenant(name, target=2):
    return TenantSpec(
        service=ServiceSpec(
            name=name,
            replica_policy=ReplicaPolicyConfig(
                fixed_target=target, num_overprovision=0
            ),
            resources=ResourceSpec(
                accelerator="V100",
                any_of=(DomainFilter(cloud="aws", region="us-west-2"),),
            ),
            request_timeout=60.0,
        ),
        workload="poisson",
        rate=0.1,
        profile="vicuna-13b",
    )


def pair(*names, target=2):
    return DeploymentSpec(
        name="pair", tenants=tuple(us_west_tenant(n, target) for n in names)
    )


class TestSharedCloudContention:
    def test_two_services_serve_independently(self):
        fleet = ControlPlane(pair("chat", "rag"), flat_trace(cap=8), seed=1).run(
            2 * HOUR
        )
        assert {r.tenant for r in fleet.tenants} == {"chat", "rag"}
        for report in fleet.tenants:
            assert report.failure_rate < 0.05
            assert report.availability > 0.9

    def test_shared_bill_covers_both_services(self):
        plane = ControlPlane(pair("a", "b"), flat_trace(cap=8), seed=2)
        fleet = plane.run(HOUR)
        assert fleet.fleet_total_cost > 0
        # Two spot replicas per service for about an hour.
        instances = plane.cloud.billing.instances
        assert len([i for i in instances if i.spot]) >= 4

    def test_status_lists_every_service(self):
        plane = ControlPlane(pair("solo"), flat_trace(cap=8), seed=3)
        plane.run(HOUR)
        status = plane.status()
        assert "solo" in status
        assert status["solo"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant names"):
            ControlPlane(pair("x", "x"), flat_trace(cap=8))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="no tenants"):
            ControlPlane(pair(), flat_trace(cap=8))

    def test_services_compete_for_scarce_capacity(self):
        """3 spot slots per zone; two services each wanting 4 replicas
        cannot both be satisfied: the shared market is the constraint."""
        plane = ControlPlane(pair("first", "second", target=4), flat_trace(cap=3), seed=4)
        plane.run(2 * HOUR)
        observed = [c.observe() for c in plane.controllers.values()]
        # 6 spot slots in total, 8 wanted: the sum is capacity-bound.
        assert sum(o.spot_ready for o in observed) <= 6
        # On-demand fallback covers the shortfall for both services.
        assert sum(o.spot_ready + o.od_ready for o in observed) >= 7

    def test_contention_harms_no_one_with_fallback(self):
        fleet = ControlPlane(
            pair("a", "b", target=3), flat_trace(cap=2), seed=5
        ).run(2 * HOUR)
        for report in fleet.tenants:
            assert report.failure_rate < 0.1, report.tenant
