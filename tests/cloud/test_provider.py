"""Unit tests for the simulated cloud provider."""

import numpy as np
import pytest

from repro.cloud import (
    CloudConfig,
    InstanceCallbacks,
    InstanceState,
    SimCloud,
    SpotTrace,
)
from repro.sim import SimulationEngine

ZONE_A = "aws:us-west-2:us-west-2a"
ZONE_B = "aws:us-west-2:us-west-2b"


def build_cloud(capacity_rows, step=60.0, config=None):
    """Cloud over a two-zone trace with the given capacity rows."""
    engine = SimulationEngine()
    trace = SpotTrace("test", [ZONE_A, ZONE_B], step, np.asarray(capacity_rows))
    cloud = SimCloud(
        engine,
        trace,
        config=config
        or CloudConfig(provision_delay_mean=60.0, setup_delay_mean=120.0, delay_jitter=0.0),
    )
    return engine, cloud


class Recorder:
    """Collects lifecycle callbacks for assertions."""

    def __init__(self):
        self.ready = []
        self.preempted = []
        self.failed = []
        self.warned = []

    def callbacks(self):
        return InstanceCallbacks(
            on_ready=self.ready.append,
            on_preempted=self.preempted.append,
            on_failed=self.failed.append,
            on_preempt_warning=self.warned.append,
        )


class TestLaunch:
    def test_successful_launch_reaches_ready(self):
        engine, cloud = build_cloud([[4] * 10, [4] * 10])
        rec = Recorder()
        instance = cloud.request_instance(
            ZONE_A, "p3.2xlarge", spot=True, callbacks=rec.callbacks()
        )
        engine.run_until(200.0)
        assert instance.state is InstanceState.READY
        assert rec.ready == [instance]
        # Cold start = provision (60) + setup (120) = 180 s (§2.3: 183 s).
        assert instance.ready_at == pytest.approx(180.0)

    def test_launch_fails_in_zero_capacity_zone(self):
        engine, cloud = build_cloud([[0] * 10, [4] * 10])
        rec = Recorder()
        instance = cloud.request_instance(
            ZONE_A, "p3.2xlarge", spot=True, callbacks=rec.callbacks()
        )
        engine.run_until(100.0)
        assert instance.state is InstanceState.FAILED
        assert rec.failed == [instance]
        # Failure detected quickly (InsufficientCapacity-style error).
        assert instance.ended_at == pytest.approx(30.0)
        assert cloud.launch_failures.value == 1

    def test_capacity_limits_concurrent_spot(self):
        engine, cloud = build_cloud([[2] * 10, [4] * 10])
        rec = Recorder()
        instances = [
            cloud.request_instance(ZONE_A, "p3.2xlarge", spot=True, callbacks=rec.callbacks())
            for _ in range(3)
        ]
        engine.run_until(300.0)
        states = sorted(i.state.value for i in instances)
        assert states.count("ready") == 2
        assert states.count("failed") == 1

    def test_on_demand_unlimited_by_default(self):
        engine, cloud = build_cloud([[0] * 10, [0] * 10])
        rec = Recorder()
        instances = [
            cloud.request_instance(ZONE_A, "p3.2xlarge", spot=False, callbacks=rec.callbacks())
            for _ in range(10)
        ]
        engine.run_until(300.0)
        assert all(i.state is InstanceState.READY for i in instances)

    def test_on_demand_capacity_limit(self):
        engine, cloud = build_cloud(
            [[0] * 10, [0] * 10],
            config=CloudConfig(delay_jitter=0.0, on_demand_capacity=1),
        )
        a = cloud.request_instance(ZONE_A, "p3.2xlarge", spot=False)
        b = cloud.request_instance(ZONE_A, "p3.2xlarge", spot=False)
        engine.run_until(300.0)
        assert a.state is InstanceState.READY
        assert b.state is InstanceState.FAILED

    def test_unknown_zone_rejected(self):
        engine, cloud = build_cloud([[1] * 10, [1] * 10])
        with pytest.raises(KeyError):
            cloud.request_instance("aws:eu-west-1:eu-west-1a", "p3.2xlarge", spot=True)

    def test_unknown_instance_type_rejected(self):
        engine, cloud = build_cloud([[1] * 10, [1] * 10])
        with pytest.raises(KeyError):
            cloud.request_instance(ZONE_A, "h100-mega", spot=True)


class TestPreemption:
    def test_capacity_drop_preempts_ready_instance(self):
        rows = [[2] * 10, [2] * 10]
        rows[0] = [2] * 5 + [0] * 5  # zone A loses capacity at t=300
        engine, cloud = build_cloud(rows)
        rec = Recorder()
        a = cloud.request_instance(ZONE_A, "p3.2xlarge", spot=True, callbacks=rec.callbacks())
        b = cloud.request_instance(ZONE_B, "p3.2xlarge", spot=True, callbacks=rec.callbacks())
        engine.run_until(400.0)
        assert a.state is InstanceState.PREEMPTED
        assert b.state is InstanceState.READY
        assert rec.preempted == [a]
        assert [i.zone_id for i in rec.preempted if not i.crashed] == [ZONE_A]

    def test_partial_drop_preempts_excess_only(self):
        rows = [[3] * 5 + [1] * 5, [0] * 10]
        engine, cloud = build_cloud(rows)
        rec = Recorder()
        instances = [
            cloud.request_instance(ZONE_A, "p3.2xlarge", spot=True, callbacks=rec.callbacks())
            for _ in range(3)
        ]
        engine.run_until(400.0)
        preempted = [i for i in instances if i.state is InstanceState.PREEMPTED]
        ready = [i for i in instances if i.state is InstanceState.READY]
        assert len(preempted) == 2
        assert len(ready) == 1

    def test_capacity_drop_during_provisioning_is_failure(self):
        # Capacity vanishes at t=60, before the VM (t=60+jitter... here
        # exactly 60) — use a drop at step 1 (t=60) with provisioning 60.
        rows = [[1] * 1 + [0] * 9, [0] * 10]
        engine, cloud = build_cloud(rows)
        rec = Recorder()
        instance = cloud.request_instance(
            ZONE_A, "p3.2xlarge", spot=True, callbacks=rec.callbacks()
        )
        engine.run_until(100.0)
        assert instance.state is InstanceState.FAILED
        assert rec.failed == [instance]
        assert rec.preempted == []

    def test_preemption_warning_precedes_reclaim(self):
        # Capacity drops at t=300; with a 120 s warning the termination
        # notice arrives at t=180 and the kill happens exactly at the
        # drop.
        rows = [[1] * 5 + [0] * 5, [0] * 10]
        engine, cloud = build_cloud(
            rows,
            config=CloudConfig(delay_jitter=0.0, preempt_warning=120.0),
        )
        rec = Recorder()
        instance = cloud.request_instance(
            ZONE_A, "p3.2xlarge", spot=True, callbacks=rec.callbacks()
        )
        engine.run_until(200.0)
        assert rec.warned == [instance]
        assert instance.preempt_warned
        assert not instance.state.is_terminal
        engine.run_until(250.0)
        assert instance.state is InstanceState.READY  # serving through grace
        engine.run_until(350.0)
        assert instance.state is InstanceState.PREEMPTED
        assert instance.ended_at == pytest.approx(300.0)

    def test_late_launch_reclaimed_without_warning(self):
        # An instance launched after the notice window gets no warning
        # (best-effort semantics) but is still reclaimed at the drop.
        rows = [[2] * 5 + [0] * 5, [0] * 10]
        engine, cloud = build_cloud(
            rows,
            config=CloudConfig(delay_jitter=0.0, preempt_warning=120.0),
        )
        rec = Recorder()
        engine.run_until(250.0)  # past the t=180 warning point
        late = cloud.request_instance(
            ZONE_A, "p3.2xlarge", spot=True, callbacks=rec.callbacks()
        )
        engine.run_until(400.0)
        assert rec.warned == []
        assert late.state in (InstanceState.PREEMPTED, InstanceState.FAILED)

    def test_capacity_recovery_allows_relaunch(self):
        rows = [[1] * 2 + [0] * 2 + [1] * 6, [0] * 10]
        engine, cloud = build_cloud(rows)
        first = cloud.request_instance(ZONE_A, "p3.2xlarge", spot=True)
        engine.run_until(130.0)
        assert first.state is InstanceState.PREEMPTED
        # Wait for the zone's capacity to come back (t >= 240).
        engine.run_until(250.0)
        second = cloud.request_instance(ZONE_A, "p3.2xlarge", spot=True)
        assert second.state is InstanceState.PROVISIONING
        engine.run_until(500.0)
        assert second.state is InstanceState.READY


class TestTerminate:
    def test_terminate_ready_instance(self):
        engine, cloud = build_cloud([[2] * 10, [2] * 10])
        instance = cloud.request_instance(ZONE_A, "p3.2xlarge", spot=True)
        engine.run_until(200.0)
        cloud.terminate(instance)
        assert instance.state is InstanceState.TERMINATED

    def test_terminate_frees_capacity(self):
        engine, cloud = build_cloud([[1] * 10, [0] * 10])
        first = cloud.request_instance(ZONE_A, "p3.2xlarge", spot=True)
        engine.run_until(200.0)
        cloud.terminate(first)
        assert cloud.spot_room(ZONE_A) == 1

    def test_terminate_idempotent_on_dead(self):
        engine, cloud = build_cloud([[1] * 10, [0] * 10])
        instance = cloud.request_instance(ZONE_A, "p3.2xlarge", spot=True)
        engine.run_until(200.0)
        cloud.terminate(instance)
        cloud.terminate(instance)  # no error
        assert instance.state is InstanceState.TERMINATED

    def test_terminate_during_provisioning_cancels_ready(self):
        engine, cloud = build_cloud([[1] * 10, [0] * 10])
        rec = Recorder()
        instance = cloud.request_instance(
            ZONE_A, "p3.2xlarge", spot=True, callbacks=rec.callbacks()
        )
        cloud.terminate(instance)
        engine.run_until(500.0)
        assert instance.state is InstanceState.TERMINATED
        assert rec.ready == []


class TestBillingIntegration:
    def test_billing_covers_cold_start_but_not_provisioning(self):
        engine, cloud = build_cloud([[1] * 100, [0] * 100])
        instance = cloud.request_instance(ZONE_A, "p3.2xlarge", spot=True)
        engine.run_until(3600.0 + 60.0)  # 60s provisioning + 1h billed
        expected = instance.instance_type.spot_hourly
        assert cloud.billing.total(engine.now) == pytest.approx(expected, rel=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CloudConfig(delay_jitter=1.5)
        with pytest.raises(ValueError):
            CloudConfig(provision_delay_mean=-1)
        assert CloudConfig().cold_start_mean == pytest.approx(180.0)
