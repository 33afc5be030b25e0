"""N=1 equivalence: a single-tenant fleet IS the single-service sim.

The control plane's determinism contract (plane.py docstring): a
deployment with one tenant in ``fair_share`` mode uses the exact RNG
stream names of a :class:`SkyService` run, and the broker's fair-share
admission with no peers degenerates to "admit whenever there is room" —
so every number in the report reproduces the broker-less single-service
result bit for bit.  This is what makes all single-service results in
the repo trustworthy baselines for multi-tenant experiments.
"""

import pytest

from repro.cloud import HOUR, aws1
from repro.control import ControlPlane, DeploymentSpec, TenantSpec
from repro.control.plane import make_tenant_workload
from repro.serving import POLICIES, ReplicaPolicyConfig, ServiceSpec, SkyService

SEED = 7
DURATION = HOUR


def single_tenant():
    return TenantSpec(
        service=ServiceSpec(
            name="solo",
            replica_policy=ReplicaPolicyConfig(
                fixed_target=4, num_overprovision=2
            ),
        ),
        workload="poisson",
        rate=0.3,
    )


@pytest.fixture(scope="module")
def reports():
    trace = aws1()
    tenant = single_tenant()

    deployment = DeploymentSpec(
        name="solo-fleet", tenants=(tenant,), admission="fair_share"
    )
    fleet = ControlPlane(deployment, trace, seed=SEED).run(DURATION)

    service = SkyService(
        tenant.service,
        POLICIES.get(tenant.policy)(
            list(trace.zone_ids), tenant.service.replica_policy
        ),
        trace,
        seed=SEED,
    )
    workload = make_tenant_workload(tenant, DURATION, SEED)
    solo = service.run(workload, DURATION)
    return fleet.tenant("solo"), solo


class TestSingleTenantEquivalence:
    def test_request_counts_identical(self, reports):
        fleet, solo = reports
        assert fleet.total_requests == solo.total_requests
        assert fleet.completed == solo.completed
        assert fleet.failed == solo.failed

    def test_latency_identical(self, reports):
        fleet, solo = reports
        assert solo.latency is not None
        assert fleet.latency_p50 == solo.latency.p50
        assert fleet.latency_p90 == solo.latency.p90
        assert fleet.latency_p99 == solo.latency.p99

    def test_availability_and_disruptions_identical(self, reports):
        fleet, solo = reports
        assert fleet.availability == solo.availability
        assert fleet.preemptions == solo.preemptions
        assert fleet.launch_failures == solo.launch_failures

    def test_costs_identical(self, reports):
        fleet, solo = reports
        assert fleet.spot_cost == solo.spot_cost
        assert fleet.od_cost == solo.od_cost

    def test_broker_stayed_out_of_the_way(self, reports):
        fleet, _ = reports
        # Fair share with one tenant must never quota-reject or evict.
        assert fleet.rejected == 0
        assert fleet.evictions_won == 0
        assert fleet.evictions_suffered == 0
