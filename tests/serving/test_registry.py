"""Policy registries: lookup, plugin registration, spec validation."""

import re

import numpy as np
import pytest

from repro.chaos import builtin_scenario, run_matrix
from repro.cli import main
from repro.cloud import SpotTrace, aws1
from repro.control import ControlPlane, DeploymentSpec, TenantSpec
from repro.core import OnDemandOnlyPolicy, spothedge
from repro.core.placement import SpotPlacer, make_placer
from repro.serving import ReplicaPolicyConfig, ServiceSpec
from repro.serving.registry import (
    AUTOSCALE_MODES,
    BALANCERS,
    PLACERS,
    POLICIES,
    PolicyRegistry,
    load_entry_point_plugins,
)

UNKNOWN_POLICY = re.escape("unknown serving policy 'Nope': expected one of (")


class TestPolicyRegistry:
    def test_builtin_placers_registered(self):
        assert PLACERS.names() == ("dynamic", "even_spread", "round_robin")
        assert "dynamic" in PLACERS
        assert len(PLACERS) == 3
        assert list(PLACERS) == sorted(PLACERS.names())

    def test_builtin_balancers_registered(self):
        assert BALANCERS.names() == ("least_load", "locality", "round_robin")

    def test_builtin_autoscale_modes_registered(self):
        assert AUTOSCALE_MODES.names() == ("qps", "slo")

    def test_builtin_serving_policies_registered(self):
        assert POLICIES.names() == ("EvenSpread", "OnDemand", "RoundRobin", "SpotHedge")
        for name in POLICIES:
            assert POLICIES.get(name)(["z1", "z2"]).name == name

    def test_spothedge_defaults_match_the_replay_factory(self):
        registered = POLICIES.get("SpotHedge")(["z1", "z2"])
        direct = spothedge(["z1", "z2"])
        assert registered.num_overprovision == direct.num_overprovision == 2
        assert registered.base_ondemand_replicas == direct.base_ondemand_replicas == 0

    def test_spothedge_reads_the_replica_policy(self):
        rp = ReplicaPolicyConfig(num_overprovision=1, base_ondemand_fallback_replicas=3)
        policy = POLICIES.get("SpotHedge")(["z1"], rp)
        assert policy.num_overprovision == 1
        assert policy.base_ondemand_replicas == 3

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="unknown spot placer 'bogus'"):
            PLACERS.get("bogus")
        with pytest.raises(ValueError, match="dynamic"):
            PLACERS.get("bogus")

    def test_register_decorator_and_unregister(self):
        reg = PolicyRegistry("widget")

        @reg.register("w1")
        def make_w1():
            return "w1"

        assert reg.get("w1") is make_w1
        assert reg.validate("w1") == "w1"
        reg.unregister("w1")
        assert "w1" not in reg

    def test_register_plain_call(self):
        reg = PolicyRegistry("widget")
        reg.register("w2", object)
        assert reg.get("w2") is object

    def test_duplicate_registration_rejected(self):
        reg = PolicyRegistry("widget")
        reg.register("dup", object)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("dup", int)

    def test_invalid_name_rejected(self):
        reg = PolicyRegistry("widget")
        with pytest.raises(ValueError):
            reg.register("", object)

    def test_entry_point_loading_is_explicit_and_empty_here(self):
        # No repro.policies plugins are installed in the test env; the
        # explicit loader must still run cleanly and return no names.
        assert load_entry_point_plugins() == []


class TestThirdPartyPlacer:
    def test_registered_placer_reaches_spec_and_factory(self):
        @PLACERS.register("test_fixed")
        class FixedPlacer(SpotPlacer):
            def select_zone(self, current_placements, excluded=frozenset()):
                return self.zones[0]

        try:
            # The spec now validates against the registry, so the new
            # name is accepted with no edits to spec.py ...
            spec = ServiceSpec(
                name="svc",
                replica_policy=ReplicaPolicyConfig(spot_placer="test_fixed"),
            )
            assert spec.replica_policy.spot_placer == "test_fixed"
            # ... and the factory instantiates it by lookup.
            placer = make_placer("test_fixed", ["z1", "z2"])
            assert isinstance(placer, FixedPlacer)
        finally:
            PLACERS.unregister("test_fixed")
        with pytest.raises(ValueError, match="test_fixed"):
            make_placer("test_fixed", ["z1"])


class TestSpecRegistryValidation:
    def test_unknown_spot_placer_names_choices(self):
        with pytest.raises(ValueError, match="even_spread"):
            ServiceSpec(
                name="svc",
                replica_policy=ReplicaPolicyConfig(spot_placer="nope"),
            )

    def test_unknown_balancer_names_choices(self):
        with pytest.raises(ValueError, match="least_load"):
            ServiceSpec(name="svc", load_balancing_policy="nope")

    def test_unknown_autoscale_mode_names_choices(self):
        with pytest.raises(ValueError, match="qps"):
            ServiceSpec(
                name="svc",
                replica_policy=ReplicaPolicyConfig(autoscale_mode="nope"),
            )


def _tiny_trace():
    zones = ["aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b"]
    return SpotTrace("tiny", zones, 300.0, np.full((2, 12), 2, dtype=np.int64))


@pytest.mark.parametrize(
    "entry,error",
    [
        (lambda: main(["replay", "--trace", "aws1", "--policies", "SpotHedge,Nope"]),
         SystemExit),
        (lambda: main(["sweep", "--trace", "aws1", "--policies", "Nope", "--no-cache"]),
         SystemExit),
        (lambda: main(["report", "--replay", "--policy", "Nope"]), SystemExit),
        (lambda: main(["chaos", "run", "--trace", "aws1", "--policies", "Nope",
                       "--no-cache"]),
         SystemExit),
        (lambda: run_matrix(_tiny_trace(), [builtin_scenario("preemption-storm")],
                            ["Nope"], use_cache=False),
         ValueError),
        (lambda: TenantSpec(service=ServiceSpec(name="t"), policy="Nope"), ValueError),
    ],
    ids=["replay", "sweep", "report", "chaos-run", "run_matrix", "tenant-spec"],
)
def test_one_unknown_policy_error_everywhere(entry, error):
    with pytest.raises(error, match=UNKNOWN_POLICY):
        entry()


class MyPolicy(OnDemandOnlyPolicy):
    name = "MyPolicy"


class TestThirdPartyServingPolicy:
    def test_registered_policy_reaches_deployments_and_replay(self, capsys):
        POLICIES.register("MyPolicy", lambda zones, replica_policy=None: MyPolicy(zones))
        try:
            deployment = DeploymentSpec(
                name="plugin",
                tenants=(
                    TenantSpec(
                        service=ServiceSpec(
                            name="solo",
                            replica_policy=ReplicaPolicyConfig(fixed_target=1),
                        ),
                        workload="poisson",
                        rate=0.05,
                        policy="MyPolicy",
                    ),
                ),
            )
            plane = ControlPlane(deployment, aws1(), seed=1)
            fleet = plane.run(600.0)
            assert isinstance(plane.controllers["solo"].policy, MyPolicy)
            assert fleet.tenant("solo").policy == "MyPolicy"
            assert fleet.tenant("solo").spot_cost == 0.0

            assert main(["replay", "--trace", "aws1", "--target", "2",
                         "--policies", "MyPolicy"]) == 0
            assert "MyPolicy" in capsys.readouterr().out
        finally:
            POLICIES.unregister("MyPolicy")
        assert "MyPolicy" not in POLICIES
        with pytest.raises(SystemExit, match="unknown serving policy 'MyPolicy'"):
            main(["replay", "--trace", "aws1", "--policies", "MyPolicy"])
