"""Tests for injected instance faults (crashes) and recovery.

The service controller must manage "preemptions of spot replicas or any
arising errors" (§4).  Crashes differ from reclaims in two ways: they
hit on-demand instances too, and they carry no information about the
zone's spot market (the placer is not penalised).
"""

import numpy as np
import pytest

from repro.cloud import CloudConfig, SimCloud, SpotTrace
from repro.core import spothedge
from repro.serving import (
    DomainFilter,
    ModelProfile,
    ReplicaPolicyConfig,
    ResourceSpec,
    ServiceController,
    ServiceSpec,
)
from repro.sim import SimulationEngine

ZONES = ["aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b"]
HOUR = 3600.0


def build_cloud(mtbf, hours=4):
    engine = SimulationEngine()
    steps = int(hours * 60)
    trace = SpotTrace("crash", ZONES, 60.0, np.full((2, steps), 4))
    cloud = SimCloud(
        engine,
        trace,
        config=CloudConfig(
            provision_delay_mean=30.0,
            setup_delay_mean=30.0,
            delay_jitter=0.0,
            instance_mtbf=mtbf,
        ),
    )
    return engine, cloud


def crashes(cloud):
    """Instances the cloud killed with an injected fault."""
    return sum(1 for instance in cloud.billing.instances if instance.crashed)


class TestProviderCrashes:
    def test_instances_crash_at_roughly_mtbf(self):
        engine, cloud = build_cloud(mtbf=HOUR, hours=12)
        killed = []
        # Keep one instance alive: relaunch on every crash.
        def relaunch(instance=None):
            from repro.cloud import InstanceCallbacks

            if instance is not None:
                killed.append(instance)
            cloud.request_instance(
                ZONES[0], "p3.2xlarge", spot=True,
                callbacks=InstanceCallbacks(on_preempted=relaunch),
            )

        relaunch()
        engine.run_until(12 * HOUR)
        # Expected roughly one crash per hour of uptime.
        assert 3 <= len(killed) <= 30
        assert all(instance.crashed for instance in killed)

    def test_crashes_not_counted_as_preemptions(self):
        from repro.cloud import InstanceCallbacks

        engine, cloud = build_cloud(mtbf=0.5 * HOUR, hours=6)
        killed = []
        cloud.request_instance(
            ZONES[0], "p3.2xlarge", spot=True,
            callbacks=InstanceCallbacks(on_preempted=killed.append),
        )
        engine.run_until(6 * HOUR)
        assert len(killed) == 1
        # The only kill is the injected fault: capacity never dropped,
        # so no market reclaim happened.
        assert killed[0].crashed

    def test_on_demand_instances_crash_too(self):
        engine, cloud = build_cloud(mtbf=0.5 * HOUR, hours=8)
        instance = cloud.request_instance(ZONES[0], "p3.2xlarge", spot=False)
        engine.run_until(8 * HOUR)
        assert instance.crashed
        assert instance.state.value == "preempted"

    def test_zero_mtbf_rejected(self):
        with pytest.raises(ValueError):
            CloudConfig(instance_mtbf=0.0)

    def test_no_mtbf_no_crashes(self):
        engine, cloud = build_cloud(mtbf=None, hours=6)
        cloud.request_instance(ZONES[0], "p3.2xlarge", spot=True)
        engine.run_until(6 * HOUR)
        assert crashes(cloud) == 0


class TestServiceRecovery:
    def build_service(self, mtbf, hours=6):
        engine, cloud = build_cloud(mtbf, hours=hours)
        spec = ServiceSpec(
            replica_policy=ReplicaPolicyConfig(fixed_target=2, num_overprovision=1),
            resources=ResourceSpec(
                accelerator="V100",
                any_of=(DomainFilter(cloud="aws", region="us-west-2"),),
            ),
        )
        policy = spothedge(ZONES, num_overprovision=1)
        profile = ModelProfile("m", 1.0, 0.0, 0.0, 8)
        controller = ServiceController(engine, cloud, spec, policy, profile)
        return engine, cloud, controller, policy

    def test_controller_replaces_crashed_replicas(self):
        engine, cloud, controller, _ = self.build_service(mtbf=HOUR)
        controller.start()
        engine.run_until(6 * HOUR)
        assert crashes(cloud) >= 2
        # Despite the crashes the fleet self-heals back to target.
        assert controller.availability(HOUR, 6 * HOUR, n_tar=2) > 0.9

    def test_crashes_do_not_poison_the_placer(self):
        engine, cloud, controller, policy = self.build_service(mtbf=0.5 * HOUR)
        controller.start()
        engine.run_until(4 * HOUR)
        assert crashes(cloud) >= 2
        # Capacity never dropped, so no zone should be in Z_P for
        # market reasons; crashes must not have moved zones there.
        assert policy.placer.preempting_zones == []
