"""Settled reconcile ticks change no output.

A tick that finds the fleet unchanged since a tick that left it on
target, with a stationary policy and no audit log, records its samples
without re-deciding (``ServiceController._tick``).  Each run here is
paired with a twin whose policy is the same object re-classed into a
subclass declaring ``stationary_decisions = False``, so the twin decides
every tick in full.  Both must agree byte for byte on the report, the
controller's five time series and its failure counters — and the
original must have taken the settled path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional

import pytest

from repro.baselines import AWSSpotPolicy
from repro.chaos import load_scenario
from repro.cloud import HOUR
from repro.cloud.traces import aws1
from repro.control.plane import ControlPlane
from repro.control.spec import load_deployment
from repro.core import even_spread_policy, round_robin_policy, spothedge
from repro.experiments.endtoend import SKYSERVE_REGIONS, e2e_trace
from repro.serving import (
    DomainFilter,
    ReplicaPolicyConfig,
    ResourceSpec,
    ServiceController,
    ServiceSpec,
    ServingPolicy,
    SkyService,
)
from repro.telemetry.audit import PolicyAuditLog
from repro.workloads import make_workload, poisson_workload

REPO_ROOT = Path(__file__).resolve().parents[2]
DURATION = 24 * HOUR
RATE = 0.05

_TWINS: dict[type, type] = {}
_COUNTING: dict[type, type] = {}


def _counting(cls: type) -> type:
    """``cls`` with a ``target_mix`` call counter (``calls``)."""
    if cls not in _COUNTING:

        def target_mix(self, obs):
            self.calls = getattr(self, "calls", 0) + 1
            return super(counting, self).target_mix(obs)

        counting = type(f"Counting{cls.__name__}", (cls,), {"target_mix": target_mix})
        _COUNTING[cls] = counting
    return _COUNTING[cls]


def _twin(cls: type) -> type:
    """A counting subclass of ``cls`` that never settles."""
    if cls not in _TWINS:
        _TWINS[cls] = type(
            f"Unsettled{cls.__name__}", (_counting(cls),), {"stationary_decisions": False}
        )
    return _TWINS[cls]


def reclass(policy: ServingPolicy, *, settle: bool) -> None:
    """Give ``policy`` a call counter; with ``settle=False`` also make
    it declare non-stationary decisions (its twin)."""
    base = type(policy)
    policy.__class__ = _counting(base) if settle else _twin(base)
    policy.calls = 0


def count_ticks(controller: ServiceController) -> list[int]:
    """Count ``controller``'s reconcile ticks (one-element list)."""
    ticks = [0]
    tick = controller._tick

    def counted() -> None:
        ticks[0] += 1
        tick()

    controller._tick = counted  # start() and _after_event read it here
    return ticks


def outputs(report: object, controllers: list[ServiceController]) -> list[object]:
    """What must not change: the report's repr, every controller series
    and counter."""
    out: list[object] = [repr(report)]
    for c in controllers:
        for series in (
            c.ready_spot_series,
            c.ready_od_series,
            c.ready_total_series,
            c.provisioning_spot_series,
            c.n_tar_series,
        ):
            out.append((series.name, series.times, series.values))
        out.append((c.preemption_count.value, c.launch_failure_count.value))
    return out


def _spec(replica_policy: ReplicaPolicyConfig, regions: tuple[str, ...]) -> ServiceSpec:
    return ServiceSpec(
        name="settled",
        replica_policy=replica_policy,
        resources=ResourceSpec(
            accelerator="A10G",
            any_of=tuple(
                DomainFilter(cloud=r.split(":")[0], region=r.split(":")[1]) for r in regions
            ),
        ),
        request_timeout=100.0,
    )


ONE_REGION = "aws:us-east-2"
POLICIES: dict[str, Callable[[list[str]], ServingPolicy]] = {
    "SpotHedge": spothedge,
    "EvenSpread": even_spread_policy,
    "RoundRobin": round_robin_policy,
    # Does not count provisioning spot replicas (MixTarget
    # count_provisioning_spot=False); single-region by design.
    "AWSSpot": lambda zones: AWSSpotPolicy(
        [z for z in zones if z.startswith(ONE_REGION + ":")]
    ),
}
AUTOSCALING = {
    "fixed": ReplicaPolicyConfig(fixed_target=3, num_overprovision=1),
    "qps": ReplicaPolicyConfig(
        target_qps_per_replica=0.02,
        min_replicas=1,
        max_replicas=4,
        num_overprovision=1,
        upscale_delay=120.0,
        downscale_delay=300.0,
    ),
}


def serve(policy_name: str, chaos: Optional[str], autoscaling: str, *, settle: bool):
    trace = e2e_trace("volatile", duration=DURATION, seed=1)
    zones = list(trace.zone_ids)
    regions = (ONE_REGION,) if policy_name == "AWSSpot" else tuple(SKYSERVE_REGIONS)
    policy = POLICIES[policy_name](zones)
    reclass(policy, settle=settle)
    service = SkyService(
        _spec(AUTOSCALING[autoscaling], regions),
        policy,
        trace,
        seed=1,
        scenario=load_scenario(chaos) if chaos else None,
    )
    ticks = count_ticks(service.controller)
    report = service.run(poisson_workload(DURATION, rate=RATE, seed=1), DURATION)
    return outputs(report, [service.controller]), policy.calls, ticks[0]


@pytest.mark.parametrize("autoscaling", sorted(AUTOSCALING))
@pytest.mark.parametrize("chaos", [None, "kitchen-sink"], ids=["no-chaos", "kitchen-sink"])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_settled_service_matches_its_twin(policy_name, chaos, autoscaling):
    settled, settled_calls, settled_ticks = serve(policy_name, chaos, autoscaling, settle=True)
    full, full_calls, full_ticks = serve(policy_name, chaos, autoscaling, settle=False)
    assert settled == full
    assert settled_ticks == full_ticks
    assert full_calls == full_ticks  # the twin decides every tick
    assert settled_calls < full_calls  # some ticks were settled


def test_settled_control_plane_matches_its_twin():
    deployment = load_deployment(REPO_ROOT / "configs" / "deployments" / "three-tenants.json")

    def run(settle: bool):
        plane = ControlPlane(deployment, aws1(), seed=0)
        controllers = [plane.controllers[n] for n in deployment.tenant_names]
        for controller in controllers:
            reclass(controller.policy, settle=settle)
        report = plane.run()  # the deployment's 2 h
        return outputs(report.to_json(), controllers), [c.policy.calls for c in controllers]

    settled, settled_calls = run(True)
    full, full_calls = run(False)
    assert settled == full
    assert all(s < f for s, f in zip(settled_calls, full_calls))


class TestWorkCountGuard:
    """``target_mix`` calls on a 24 h aws1 serve (SpotHedge, N_Tar 4,
    0.05 req/s Arena).  Without the settled path every tick calls the
    policy once (12,105 calls); with it the plain policy is called
    2,900 times.  ``SETTLED_CALLS`` is that measurement: a change that
    needs more calls re-decides ticks the controller can prove
    unchanged."""

    SETTLED_CALLS = 2900

    @staticmethod
    def serve(*, settle: bool, audit: bool) -> tuple[int, int]:
        trace = aws1()
        spec = ServiceSpec(
            name="guard",
            replica_policy=ReplicaPolicyConfig(fixed_target=4, num_overprovision=2),
            resources=ResourceSpec(accelerator="V100"),
            request_timeout=100.0,
        )
        policy = spothedge(trace.zone_ids)
        reclass(policy, settle=settle)
        if audit:
            policy.attach_audit(PolicyAuditLog(policy=policy.name))
        service = SkyService(spec, policy, trace, seed=0)
        ticks = count_ticks(service.controller)
        service.run(make_workload("arena", 24 * HOUR, 0.05, 0), 24 * HOUR)
        return policy.calls, ticks[0]

    def test_audited_policy_decides_every_tick(self):
        calls, ticks = self.serve(settle=True, audit=True)
        assert calls == ticks

    def test_non_stationary_policy_decides_every_tick(self):
        calls, ticks = self.serve(settle=False, audit=False)
        assert calls == ticks

    def test_stationary_policy_calls_stay_bounded(self):
        calls, ticks = self.serve(settle=True, audit=False)
        assert calls <= self.SETTLED_CALLS < ticks
