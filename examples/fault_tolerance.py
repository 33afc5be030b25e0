"""Fault tolerance beyond preemptions: crashes, silent failures, and
preemption warnings.

The paper's controller manages "preemptions of spot replicas or any
arising errors" (§4).  This example throws all three failure classes at
one SpotHedge deployment:

* **spot reclaims** from a volatile capacity trace, with 120 s
  best-effort warnings (the controller launches replacements during the
  grace window);
* **instance crashes** (hardware faults, MTBF-injected) that hit spot
  and on-demand replicas alike and must not poison the placer's zone
  statistics;
* a **silent failure** — an endpoint that freezes and keeps accepting
  requests without answering — detectable only by the §4 readiness
  probe.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.cloud import (
    HOUR,
    CloudConfig,
    InstanceState,
    SimCloud,
    SpotTrace,
    TraceZoneSpec,
    make_correlated_trace,
)
from repro.core import spothedge
from repro.serving import (
    DomainFilter,
    ModelProfile,
    ReplicaPolicyConfig,
    ResourceSpec,
    ServiceClient,
    ServiceController,
    ServiceSpec,
)
from repro.sim import SimulationEngine
from repro.workloads import poisson_workload

ZONES = [
    "aws:us-west-2:us-west-2a",
    "aws:us-west-2:us-west-2b",
    "aws:us-west-2:us-west-2c",
]
DURATION = 8 * HOUR


def main() -> None:
    specs = [
        TraceZoneSpec(z, mean_up=3 * HOUR, mean_down=1 * HOUR, capacity_up=4)
        for z in ZONES
    ]
    trace = make_correlated_trace(
        "faulty", specs, duration=DURATION,
        region_shock_rate=1 / (6 * HOUR), seed=13,
    )

    engine = SimulationEngine()
    cloud = SimCloud(
        engine,
        trace,
        config=CloudConfig(
            preempt_warning=120.0,       # best-effort termination notices
            instance_mtbf=6 * HOUR,      # occasional hardware faults
        ),
    )
    spec = ServiceSpec(
        name="fault-demo",
        replica_policy=ReplicaPolicyConfig(fixed_target=3, num_overprovision=1),
        resources=ResourceSpec(
            accelerator="V100",
            any_of=(DomainFilter(cloud="aws", region="us-west-2"),),
        ),
        request_timeout=60.0,
    )
    profile = ModelProfile("demo", overhead=2.0, prefill_per_token=0.001,
                           decode_per_token=0.02, max_concurrency=8)
    controller = ServiceController(
        engine, cloud, spec, policy := spothedge(ZONES, num_overprovision=1),
        profile,
        probe_interval=30.0,   # §4 readiness probe
        probe_timeout=20.0,
    )
    workload = poisson_workload(DURATION, rate=0.8, seed=13)
    client = ServiceClient(controller, workload)
    controller.start()
    client.start()

    # Inject a silent failure at the two-hour mark: a replica freezes.
    def freeze_one() -> None:
        ready = controller.ready_replicas()
        if ready:
            print(f"[t={engine.now / 3600:.1f}h] injected silent failure "
                  f"on replica {ready[0].id} in {ready[0].zone_id}")
            ready[0].server.freeze()

    engine.call_at(2 * HOUR, freeze_one)
    engine.run_until(DURATION)

    stats = client.stats()
    print(f"\nserved {stats.completed}/{stats.total_requests} requests "
          f"({stats.failure_rate:.2%} failed) over {DURATION / 3600:.0f}h")
    print(f"latency p50 {stats.latency.p50:.1f}s p99 {stats.latency.p99:.1f}s")
    print(f"availability {controller.availability(600, DURATION, n_tar=3):.1%}")
    print("\nwhat the controller survived:")
    instances = cloud.billing.instances
    reclaimed = [i for i in instances if i.state is InstanceState.PREEMPTED and not i.crashed]
    print(f"  spot preemptions:   {len(reclaimed)} "
          f"(with {sum(1 for i in instances if i.preempt_warned)} warned)")
    print(f"  instance crashes:   {sum(1 for i in instances if i.crashed)}")
    print(f"  probe failures:     {int(controller.probe_failure_count.value)} "
          f"(the frozen endpoint)")
    print(f"  launch failures:    {int(cloud.launch_failures.value)}")
    print(f"\nplacer state: Z_A={len(policy.placer.active_zones)} zones, "
          f"Z_P={len(policy.placer.preempting_zones)} zones "
          f"(crashes did not poison zone stats)")


if __name__ == "__main__":
    main()
