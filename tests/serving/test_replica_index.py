"""The controller's replica index against its full-scan definitions.

A kitchen-sink :class:`SkyService` with two-worker replicas, adaptive
parallelism, readiness probes, preemption warnings and instance faults
is checked after every single engine event: the index (views and
counts, however it was last built or extended) must equal the list
comprehensions and sums it replaced.  The run must go through each path
that changes a replica's standing — migration, doom, drain and probe
failure teardown — or the test proves nothing.
"""

from __future__ import annotations

from repro.chaos import load_scenario
from repro.cloud import CloudConfig
from repro.core.spothedge import spothedge
from repro.experiments.endtoend import SKYSERVE_REGIONS, e2e_trace
from repro.serving import (
    DomainFilter,
    ReplicaPolicyConfig,
    ResourceSpec,
    RetryPolicy,
    ServiceSpec,
    SkyService,
)
from repro.serving.replica import ReplicaState
from repro.workloads import poisson_workload

DURATION = 2 * 3600.0


def full_scan(controller):
    replicas = controller.replicas
    ready = [r for r in replicas if r.is_ready and not r.draining]
    alive = {
        spot: [
            r
            for r in replicas
            if r.spot == spot
            and r.state is not ReplicaState.DEAD
            and not r.draining
            and not r.doomed
        ]
        for spot in (True, False)
    }
    routable = {
        spot: [r for r in replicas if r.spot == spot and r.is_ready and not r.draining]
        for spot in (True, False)
    }
    return ready, alive, routable


def full_counts(controller, alive):
    """The index's counts by full scan, ``spot_by_zone`` as ordered items."""
    by_zone: dict[str, int] = {}
    for r in alive[True]:
        by_zone[r.zone_id] = by_zone.get(r.zone_id, 0) + 1
    return (
        sum(r.is_ready for r in alive[True]),
        sum(r.is_ready for r in alive[False]),
        sum(not r.is_ready for r in alive[True]),
        list(by_zone.items()),
        sum(r.draining for r in controller.replicas),
    )


def test_index_matches_full_scan_after_every_event():
    trace = e2e_trace("volatile", duration=DURATION, seed=0)
    spec = ServiceSpec(
        name="index",
        replica_policy=ReplicaPolicyConfig(fixed_target=3, num_overprovision=1),
        resources=ResourceSpec(
            accelerator="A10G",
            workers_per_replica=2,
            any_of=tuple(
                DomainFilter(cloud=r.split(":")[0], region=r.split(":")[1])
                for r in SKYSERVE_REGIONS
            ),
        ),
        request_timeout=100.0,
    )
    service = SkyService(
        spec,
        spothedge(trace.zone_ids),
        trace,
        seed=0,
        scenario=load_scenario("kitchen-sink"),
        cloud_config=CloudConfig(preempt_warning=60.0, instance_mtbf=3600.0),
        adaptive_parallelism=True,
        retry_policy=RetryPolicy(),
    )
    controller = service.controller
    controller.probe_interval = 120.0  # read by start()
    engine = service.engine
    seen = {"events": 0, "migrating": 0, "doomed": 0, "draining": 0}

    def check():
        seen["events"] += 1
        ready, alive, routable = full_scan(controller)
        assert controller.ready_replicas() == ready
        index = controller._replica_index()
        for spot in (True, False):
            assert list(controller._alive_replicas(spot)) == alive[spot]
            assert list(index.routable[spot]) == routable[spot]
        assert (
            index.spot_ready,
            index.od_ready,
            index.provisioning_spot,
            list(index.spot_by_zone.items()),
            index.draining,
        ) == full_counts(controller, alive)
        for replica in controller.replicas:
            seen["migrating"] += replica.state is ReplicaState.MIGRATING
            seen["doomed"] += replica.doomed
            seen["draining"] += replica.draining

    real_call_at = engine.call_at

    def call_at(time, callback):
        def checked():
            callback()
            check()

        return real_call_at(time, checked)

    engine.call_at = call_at

    def freeze_newest_ready():
        ready = controller.ready_replicas()
        if ready:
            ready[-1].server.freeze()

    for time in (1500.0, 5000.0):
        engine.call_at(time, freeze_newest_ready)
    service.run(poisson_workload(DURATION, rate=0.3, seed=0), DURATION)

    assert seen["events"] > 5000
    assert seen["migrating"] > 0
    assert seen["doomed"] > 0
    assert seen["draining"] > 0
    assert controller.probe_failure_count.value >= 1
    assert controller.preemption_count.value >= 1
