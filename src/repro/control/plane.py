"""The multi-tenant control plane: N services, one shared cloud.

:class:`ControlPlane` is the fleet-scale counterpart of
:class:`~repro.serving.service.SkyService`: it takes a declarative
:class:`~repro.control.spec.DeploymentSpec`, wires every tenant's
controller and client onto one engine and one shared
:class:`~repro.cloud.provider.SimCloud` behind a
:class:`~repro.control.broker.CapacityBroker`, runs the clock, and
rolls everything up into a :class:`FleetReport` — per-tenant SLO and
cost plus the fleet-wide bill — as a canonical, byte-stable JSON
artifact.

Determinism contract: the fleet is a function of ``(deployment, trace,
seed)``.  All randomness flows through the run's
:class:`~repro.sim.rng.RngRegistry` streams — ``cloud``, one inference
stream per tenant, ``control-arbitration`` for the broker — and
workload generation is seeded per tenant via ``derive_seed(seed,
"workload:<name>")``.  A single-tenant deployment in ``fair_share``
mode uses the exact stream names of a :class:`SkyService` run and the
broker's admission degenerates to "admit when there is room", so it
reproduces the single-service results bit for bit (the equivalence is
pinned by ``tests/control/test_equivalence.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.cloud.catalog import Catalog
from repro.cloud.gpus import is_pool, pool_zone
from repro.cloud.network import NetworkModel
from repro.cloud.provider import CloudConfig
from repro.cloud.topology import Topology
from repro.cloud.traces import SpotTrace
from repro.control.broker import CapacityBroker
from repro.control.spec import DeploymentSpec, TenantSpec
from repro.serving.client import ServiceClient
from repro.serving.controller import ServiceController
from repro.serving.inference import MODEL_PROFILES
from repro.serving.registry import POLICIES
from repro.serving.service import _ServiceStack
from repro.sim.rng import derive_seed
from repro.telemetry.events import EventBus, TenantCostSnapshot
from repro.workloads.generators import make_workload
from repro.workloads.request import Workload

__all__ = ["ControlPlane", "FleetReport", "TenantReport", "REPORT_SCHEMA"]

REPORT_SCHEMA = "repro.control/v1"


def _round(value: float, digits: int = 6) -> float:
    """Float normalisation for byte-stable artifacts (0.0 absorbs -0.0)."""
    return round(float(value), digits) + 0.0


def make_tenant_workload(
    tenant: TenantSpec, duration: float, root_seed: int
) -> Workload:
    """Generate a tenant's workload, seeded per tenant from the root."""
    seed = derive_seed(root_seed, f"workload:{tenant.name}")
    return make_workload(tenant.workload, duration, tenant.rate, seed)


@dataclass(frozen=True)
class TenantReport:
    """One tenant's slice of a fleet run."""

    tenant: str
    policy: str
    priority: int
    qps_share: float
    total_requests: int
    completed: int
    failed: int
    failure_rate: float
    latency_p50: float
    latency_p90: float
    latency_p99: float
    availability: float
    preemptions: int
    launch_failures: int
    spot_cost: float
    od_cost: float
    admitted: int
    rejected: int
    evictions_won: int
    evictions_suffered: int

    @property
    def total_cost(self) -> float:
        return self.spot_cost + self.od_cost

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "priority": self.priority,
            "qps_share": _round(self.qps_share),
            "requests": {
                "total": self.total_requests,
                "completed": self.completed,
                "failed": self.failed,
                "failure_rate": _round(self.failure_rate),
            },
            "latency": {
                "p50": _round(self.latency_p50),
                "p90": _round(self.latency_p90),
                "p99": _round(self.latency_p99),
            },
            "availability": _round(self.availability),
            "preemptions": self.preemptions,
            "launch_failures": self.launch_failures,
            "cost": {
                "spot": _round(self.spot_cost),
                "on_demand": _round(self.od_cost),
                "total": _round(self.total_cost),
            },
            "admission": {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "evictions_won": self.evictions_won,
                "evictions_suffered": self.evictions_suffered,
            },
        }


@dataclass(frozen=True)
class FleetReport:
    """The canonical roll-up of one multi-tenant run."""

    deployment: str
    admission: str
    trace: str
    scenario: Optional[str]
    seed: int
    duration: float
    tenants: tuple[TenantReport, ...]
    fleet_spot_cost: float
    fleet_od_cost: float

    @property
    def fleet_total_cost(self) -> float:
        return self.fleet_spot_cost + self.fleet_od_cost

    def tenant(self, name: str) -> TenantReport:
        for report in self.tenants:
            if report.tenant == name:
                return report
        raise KeyError(f"no tenant {name!r} in fleet report")

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "deployment": self.deployment,
            "admission": self.admission,
            "trace": self.trace,
            "scenario": self.scenario,
            "seed": self.seed,
            "duration": _round(self.duration),
            "tenants": {r.tenant: r.to_dict() for r in self.tenants},
            "fleet": {
                "cost": {
                    "spot": _round(self.fleet_spot_cost),
                    "on_demand": _round(self.fleet_od_cost),
                    "total": _round(self.fleet_total_cost),
                },
                "preemptions": sum(r.preemptions for r in self.tenants),
                "rejected": sum(r.rejected for r in self.tenants),
                "evictions": sum(r.evictions_won for r in self.tenants),
            },
        }

    def to_json(self) -> str:
        """Canonical byte-stable JSON (sorted keys, rounded floats)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


class ControlPlane(_ServiceStack):
    """Run a deployment's tenants against one shared simulated cloud."""

    def __init__(
        self,
        deployment: DeploymentSpec,
        trace: SpotTrace,
        *,
        topology: Optional[Topology] = None,
        catalog: Optional[Catalog] = None,
        cloud_config: Optional[CloudConfig] = None,
        network: Optional[NetworkModel] = None,
        client_region: str = "aws:us-west-2",
        seed: int = 0,
        telemetry: Optional[EventBus] = None,
    ) -> None:
        scenario = None
        if deployment.scenario is not None:
            # Chaos arms against the shared cloud: every tenant feels it.
            from repro.chaos import load_scenario

            scenario = load_scenario(deployment.scenario)
        super().__init__(
            trace, seed=seed, telemetry=telemetry, scenario=scenario, network=network,
            topology=topology, catalog=catalog, cloud_config=cloud_config,
        )
        self.deployment = deployment
        self.client_region = client_region
        self.broker = CapacityBroker(
            self.cloud, deployment.tenants, mode=deployment.admission, rng=self.rng,
            bus=self.telemetry,
        )
        self.controllers: dict[str, ServiceController] = {}
        self.clients: dict[str, ServiceClient] = {}
        single = len(deployment.tenants) == 1
        for tenant in deployment.tenants:
            policy = POLICIES.get(tenant.policy)(
                self._policy_zones(tenant), tenant.service.replica_policy
            )
            self.controllers[tenant.name] = self._controller(
                self.broker.view(tenant.name), tenant.service, policy,
                MODEL_PROFILES[tenant.profile](),
                # Single-tenant deployments use the SkyService stream
                # name, which makes N=1 reproduce SkyService bit for bit.
                stream="inference" if single else f"inference:{tenant.name}",
                client_region=client_region,
            )
        self._arm()
        self._ran_for: Optional[float] = None

    def _policy_zones(self, tenant: TenantSpec) -> list[str]:
        """The zones a tenant's policy places over: its allowed zones
        the trace covers, or every allowed zone (on-demand only) when the
        trace covers none."""
        allowed = tenant.service.resources.allowed_zones(self.cloud.topology)
        allowed_ids = {z.id for z in allowed}
        pools = [
            z for z in self.trace.zone_ids if is_pool(z) and pool_zone(z) in allowed_ids
        ]
        if pools:
            # The controller would launch spot only into these pools, but
            # on-demand only into bare zones; a policy can address one of
            # the two id spaces, not both.
            raise ValueError(
                f"tenant {tenant.name!r}: heterogeneous (zone@itype) pools "
                f"{pools} are not supported by the control plane"
            )
        spot_zones = [z.id for z in allowed if z.id in self.trace.zone_ids]
        zones = spot_zones or [z.id for z in allowed]
        if not zones:
            raise ValueError(f"tenant {tenant.name!r} allows no zones in this topology")
        return zones

    def run(self, duration: Optional[float] = None) -> FleetReport:
        """Serve every tenant's workload for ``duration`` seconds
        (default: the deployment's ``hours``) and report."""
        if duration is None:
            duration = self.deployment.hours * 3600.0
        for tenant in self.deployment.tenants:
            self.clients[tenant.name] = self._client(
                self.controllers[tenant.name],
                make_tenant_workload(tenant, duration, self.seed),
                client_region=self.client_region,
            )
        names = self.deployment.tenant_names
        self._serve([(self.controllers[n], self.clients[n]) for n in names], duration)
        self._ran_for = duration
        return self.report(duration)

    def status(self) -> dict[str, list[dict[str, object]]]:
        """``sky serve status`` across every tenant."""
        return {name: c.status() for name, c in self.controllers.items()}

    def report(self, duration: Optional[float] = None) -> FleetReport:
        if duration is None:
            duration = self._ran_for
        if duration is None:
            raise RuntimeError("run() must be called before report()")
        now = self.engine.now
        tenant_reports = []
        for tenant in self.deployment.tenants:
            client = self.clients.get(tenant.name)
            if client is None:
                raise RuntimeError(f"tenant {tenant.name!r} never ran")
            stats = client.stats()
            controller = self.controllers[tenant.name]
            cost = self.broker.billing.tenant_breakdown(tenant.name, now)
            if self.telemetry.enabled:
                self.telemetry.emit(
                    TenantCostSnapshot(
                        time=now,
                        tenant=tenant.name,
                        spot=cost.spot,
                        on_demand=cost.on_demand,
                        total=cost.total,
                    )
                )
            latency = stats.latency
            tenant_reports.append(
                TenantReport(
                    tenant=tenant.name,
                    policy=tenant.policy,
                    priority=tenant.priority,
                    qps_share=tenant.qps_share,
                    total_requests=stats.total_requests,
                    completed=stats.completed,
                    failed=stats.failed,
                    failure_rate=stats.failure_rate,
                    latency_p50=latency.p50 if latency else 0.0,
                    latency_p90=latency.p90 if latency else 0.0,
                    latency_p99=latency.p99 if latency else 0.0,
                    availability=controller.availability(0.0, duration),
                    preemptions=int(controller.preemption_count.value),
                    launch_failures=int(controller.launch_failure_count.value),
                    spot_cost=cost.spot,
                    od_cost=cost.on_demand,
                    admitted=self.broker.admitted[tenant.name],
                    rejected=self.broker.rejected[tenant.name],
                    evictions_won=self.broker.evictions_won[tenant.name],
                    evictions_suffered=self.broker.evictions_suffered[tenant.name],
                )
            )
        fleet_cost = self.broker.billing.breakdown(now)
        return FleetReport(
            deployment=self.deployment.name,
            admission=self.deployment.admission,
            trace=self.trace.name,
            scenario=self.deployment.scenario,
            seed=self.seed,
            duration=duration,
            tenants=tuple(tenant_reports),
            fleet_spot_cost=fleet_cost.spot,
            fleet_od_cost=fleet_cost.on_demand,
        )
