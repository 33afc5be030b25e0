"""End-to-end system comparison harness (§5.1).

Reproduces the paper's cloud experiments in simulation: every compared
system serves the *same* workload replay against the *same* spot
capacity trace (the paper runs all systems concurrently on the cloud for
fairness; we achieve the same by sharing the trace and workload seeds).

Systems, as in §5.1:

* **SkyServe** — SpotHedge over three regions (us-east-2, us-west-2,
  eu-central-1);
* **ASG** — AWS Auto-scaling Group: static 10% on-demand pool, even
  spread, single region (us-west-2);
* **AWSSpot** — pure-spot node pool, even spread, single region;
* **MArk** — predictive autoscaling, spot-only, single region.

Two scenarios mirror the paper's grouping: *Spot Available* (us-west-2
obtainability 91–100%) and *Spot Volatile* (45–46%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.baselines import ASGPolicy, AWSSpotPolicy, MArkPolicy
from repro.cloud.catalog import Catalog, default_catalog
from repro.cloud.topology import Topology, default_topology
from repro.cloud.traces import HOUR, SpotTrace, TraceZoneSpec, make_correlated_trace
from repro.core.spothedge import spothedge
from repro.serving.inference import ModelProfile, llama2_70b_profile
from repro.serving.policy import ServingPolicy
from repro.serving.service import ServiceReport, SkyService
from repro.serving.spec import ReplicaPolicyConfig, ResourceSpec, ServiceSpec
from repro.sim.metrics import TimeSeries
from repro.telemetry.events import EventBus
from repro.workloads.request import Workload

__all__ = [
    "EndToEndResult",
    "SKYSERVE_REGIONS",
    "SINGLE_REGION",
    "e2e_trace",
    "run_comparison",
    "run_system",
    "spot_zone_costs",
    "standard_policies",
]

#: Regions SkyServe spans in §5.1.
SKYSERVE_REGIONS = ("aws:us-east-2", "aws:us-west-2", "aws:eu-central-1")
#: Region all single-region baselines use (most quota, lowest cost).
SINGLE_REGION = "aws:us-west-2"


def e2e_trace(
    scenario: str,
    *,
    topology: Optional[Topology] = None,
    duration: float = 6 * HOUR,
    capacity: int = 8,
    seed: int = 0,
) -> SpotTrace:
    """Spot capacity trace for the end-to-end comparison.

    ``scenario`` is ``"available"`` (us-west-2 obtainability ≥ 90%, other
    regions good) or ``"volatile"`` (us-west-2 obtainability ~45%, other
    regions intermittently better) — the two §5.1 groups.
    """
    topology = topology or default_topology()
    zones = []
    for region in SKYSERVE_REGIONS:
        zones.extend(topology.zones_in_region(region))
    if scenario == "available":
        durations = {
            "aws:us-east-2": (14 * HOUR, 0.6 * HOUR),
            "aws:us-west-2": (20 * HOUR, 0.5 * HOUR),
            "aws:eu-central-1": (14 * HOUR, 0.6 * HOUR),
        }
        shock_rate = 1.0 / (24 * HOUR)
    elif scenario == "volatile":
        # us-west-2 obtainability ~45% with region-wide blackouts (§2.2
        # observed the whole region out of spot capacity ~21% of time).
        durations = {
            "aws:us-east-2": (4 * HOUR, 2 * HOUR),
            "aws:us-west-2": (1.2 * HOUR, 1.2 * HOUR),
            "aws:eu-central-1": (5 * HOUR, 2 * HOUR),
        }
        shock_rate = 1.0 / (3 * HOUR)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    specs = [
        TraceZoneSpec(
            zone.id,
            mean_up=durations[zone.region_id][0],
            mean_down=durations[zone.region_id][1],
            capacity_up=capacity,
        )
        for zone in zones
    ]
    return make_correlated_trace(
        f"e2e-{scenario}",
        specs,
        duration=duration,
        region_shock_rate=shock_rate,
        region_shock_mean_duration=1.0 * HOUR,
        region_shock_affect_prob=0.97,
        seed=seed,
    )


def spot_zone_costs(
    zones: Sequence[str],
    accelerator: str,
    *,
    catalog: Optional[Catalog] = None,
) -> dict[str, float]:
    """Per-zone hourly spot price for the cheapest matching type — the
    cost signal Alg. 1's MIN-COST uses (polled via cloud APIs in §4)."""
    catalog = catalog or default_catalog()
    by_cloud: dict[str, float] = {}
    for itype in catalog.with_accelerator(accelerator):
        price = by_cloud.get(itype.cloud)
        if price is None or itype.spot_hourly < price:
            by_cloud[itype.cloud] = itype.spot_hourly
    costs = {}
    for zone in zones:
        cloud = zone.split(":")[0]
        if cloud in by_cloud:
            costs[zone] = by_cloud[cloud]
    return costs


def standard_policies(
    trace: SpotTrace,
    *,
    accelerator: str = "A10G",
    catalog: Optional[Catalog] = None,
    num_overprovision: int = 2,
) -> dict[str, ServingPolicy]:
    """Fresh policy instances for the four compared systems."""
    single_region_zones = [
        z for z in trace.zone_ids if z.rsplit(":", 1)[0] == SINGLE_REGION
    ]
    if not single_region_zones:
        raise ValueError(f"trace lacks zones in {SINGLE_REGION}")
    all_zones = list(trace.zone_ids)
    costs_all = spot_zone_costs(all_zones, accelerator, catalog=catalog)
    costs_single = {z: costs_all[z] for z in single_region_zones}
    return {
        "SkyServe": spothedge(
            all_zones, zone_costs=costs_all, num_overprovision=num_overprovision
        ),
        "ASG": ASGPolicy(single_region_zones, zone_costs=costs_single),
        "AWSSpot": AWSSpotPolicy(single_region_zones, zone_costs=costs_single),
        "MArk": MArkPolicy(single_region_zones, zone_costs=costs_single),
    }


@dataclass(frozen=True)
class EndToEndResult:
    """One system's end-to-end run plus its replica timelines."""

    report: ServiceReport
    ready_spot: TimeSeries
    ready_od: TimeSeries
    provisioning_spot: TimeSeries


def run_system(
    policy: ServingPolicy,
    trace: SpotTrace,
    workload: Workload,
    duration: float,
    *,
    spec: Optional[ServiceSpec] = None,
    profile: Optional[ModelProfile] = None,
    topology: Optional[Topology] = None,
    catalog: Optional[Catalog] = None,
    seed: int = 0,
    single_region: Optional[str] = None,
    telemetry: Optional[EventBus] = None,
) -> EndToEndResult:
    """Deploy one system on the simulated cloud and serve the workload.

    ``single_region`` restricts the service spec's failure domains (the
    baselines launch only in us-west-2).  ``telemetry`` (an
    :class:`~repro.telemetry.events.EventBus` with sinks attached)
    captures the full event stream of the run.
    """
    if spec is None:
        any_of = ()
        if single_region is not None:
            from repro.serving.spec import DomainFilter

            cloud, region = single_region.split(":")
            any_of = (DomainFilter(cloud=cloud, region=region),)
        spec = ServiceSpec(
            name=f"e2e-{policy.name}",
            replica_policy=ReplicaPolicyConfig(fixed_target=4),
            resources=ResourceSpec(accelerator="A10G", any_of=any_of),
            request_timeout=100.0,
        )
    service = SkyService(
        spec,
        policy,
        trace,
        profile=profile or llama2_70b_profile(),
        topology=topology,
        catalog=catalog,
        seed=seed,
        telemetry=telemetry,
    )
    report = service.run(workload, duration)
    return EndToEndResult(
        report=report,
        ready_spot=service.controller.ready_spot_series,
        ready_od=service.controller.ready_od_series,
        provisioning_spot=service.controller.provisioning_spot_series,
    )


def run_comparison(
    scenario: str,
    workload: Workload,
    duration: float,
    *,
    accelerator: str = "A10G",
    profile: Optional[ModelProfile] = None,
    seed: int = 0,
    fixed_target: int = 4,
    request_timeout: float = 100.0,
) -> dict[str, EndToEndResult]:
    """Run all four systems on the same trace and workload (Fig. 9/13),
    each seeded identically, in the fixed system order."""
    trace = e2e_trace(scenario, seed=seed, duration=duration)
    policies = standard_policies(trace, accelerator=accelerator)
    from repro.serving.spec import DomainFilter

    results: dict[str, EndToEndResult] = {}
    for name, policy in policies.items():
        if name == "SkyServe":
            any_of = tuple(
                DomainFilter(cloud=r.split(":")[0], region=r.split(":")[1])
                for r in SKYSERVE_REGIONS
            )
        else:
            cloud, region = SINGLE_REGION.split(":")
            any_of = (DomainFilter(cloud=cloud, region=region),)
        spec = ServiceSpec(
            name=f"e2e-{name}",
            replica_policy=ReplicaPolicyConfig(fixed_target=fixed_target),
            resources=ResourceSpec(accelerator=accelerator, any_of=any_of),
            request_timeout=request_timeout,
        )
        results[name] = run_system(
            policy, trace, workload, duration, spec=spec, profile=profile, seed=seed
        )
    return results
