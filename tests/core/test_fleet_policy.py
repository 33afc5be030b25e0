"""Tests for the capacity-weighted fleet policy (zone × type pools)."""

import pytest

from repro.core import DynamicSpotPlacer, FleetMixturePolicy, hetero_spothedge
from repro.core.placement import RoundRobinPlacer
from repro.core.spothedge import MixturePolicy
from repro.serving.policy import Observation

POOLS = ["z1@small", "z2@big"]
COSTS = {"z1@small": 4.9, "z2@big": 1.2}  # per effective unit: big wins
WEIGHTS = {"z1@small": 1.0, "z2@big": 2.5}


def obs(*, n_tar=4, launched=0, ready=0, od_launched=0, od_ready=0, by_zone=None, now=0.0):
    return Observation(
        now=now,
        n_tar=n_tar,
        spot_launched=launched,
        spot_ready=ready,
        od_launched=od_launched,
        od_ready=od_ready,
        spot_by_zone=by_zone or {},
    )


def fleet_policy(**kwargs):
    kwargs.setdefault("pool_weights", WEIGHTS)
    kwargs.setdefault("dynamic_ondemand_fallback", True)
    return FleetMixturePolicy(DynamicSpotPlacer(POOLS, COSTS), **kwargs)


class TestUniformDelegation:
    """All-1.0 weights must reproduce the parent's integer arithmetic."""

    def test_matches_mixture_policy_decisions(self):
        weighted = FleetMixturePolicy(
            DynamicSpotPlacer(POOLS, COSTS),
            pool_weights={},  # every pool defaults to weight 1.0
            num_overprovision=2,
            dynamic_ondemand_fallback=True,
        )
        plain = MixturePolicy(
            DynamicSpotPlacer(POOLS, COSTS),
            num_overprovision=2,
            dynamic_ondemand_fallback=True,
        )
        for o in (
            obs(),
            obs(launched=3, ready=1, by_zone={"z2@big": 2, "z1@small": 1}),
            obs(launched=6, ready=6, by_zone={"z2@big": 3, "z1@small": 3}),
        ):
            assert weighted.target_mix(o) == plain.target_mix(o)

    def test_uniform_flag_only_for_all_ones(self):
        assert fleet_policy(pool_weights={})._uniform
        assert not fleet_policy()._uniform


class TestWeightedGrowth:
    def test_grows_until_capacity_goal_covered(self):
        policy = fleet_policy()
        # Goal 4 units from empty: plan walks the placer's MIN-COST
        # order — big pool (2.5), then the unused small pool (3.5),
        # then big again (6.0 >= 4): three launches.
        mix = policy.target_mix(obs(n_tar=4))
        assert mix.spot_target == 3

    def test_no_growth_when_capacity_covers_goal(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(n_tar=4, launched=2, ready=1, by_zone={"z2@big": 2})
        # 5.0 units launched >= 4: no new spot while settling.
        assert policy.target_mix(o).spot_target == 2


class TestConservativeScaleDown:
    def test_releases_only_when_any_victim_keeps_goal(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(n_tar=4, launched=4, ready=4, by_zone={"z2@big": 4})
        # 10 units for a 4-unit goal: the replay kills *its* choice of
        # victim, so release while surplus covers the heaviest (2.5):
        # 10 -> 7.5 -> 5.0, then surplus 1.0 < 2.5 stops.
        assert policy.target_mix(o).spot_target == 2

    def test_never_releases_inflight_capacity(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(n_tar=4, launched=4, ready=3, by_zone={"z2@big": 4})
        # Same surplus, but one launch still cold: releasing now would
        # kill the newest (cold) instance, so hold the target.
        assert policy.target_mix(o).spot_target == 4


class TestWeightedFallback:
    def test_cold_replicas_charged_at_heaviest_weight(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(
            n_tar=4,
            launched=2,
            ready=1,
            by_zone={"z1@small": 1, "z2@big": 1},
        )
        # Capacity 3.5 launched, one cold: assume the big one (2.5) is
        # the cold one, so ready >= 1.0 and fallback = ceil(4 - 1) = 3.
        assert policy.target_mix(o).od_target == 3

    def test_settled_fleet_fallback_is_exact(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(n_tar=4, launched=2, ready=2, by_zone={"z2@big": 2})
        # 5.0 units ready >= goal 4: no on-demand needed.
        assert policy.target_mix(o).od_target == 0


class TestValidation:
    def test_empty_pools_rejected(self):
        with pytest.raises(ValueError):
            tier_policy(pools=[])

    def test_duplicate_pools_rejected(self):
        with pytest.raises(ValueError):
            tier_policy(pools=A100_POOLS + A100_POOLS[:1])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            fleet_policy(pool_weights={"z1@small": 0.0})

    def test_pool_weight_defaults_to_one(self):
        assert fleet_policy().pool_weight("unknown") == 1.0


# §6 tier fallback as pools: A100 first because it is cheapest per unit
# (the per-unit costs pool_spot_costs gives with reference="A100").
A100_POOLS = ["aws:us-east-1:us-east-1a@a100", "aws:us-east-1:us-east-1b@a100"]
V100_POOLS = ["aws:us-west-2:us-west-2a@v100", "aws:us-west-2:us-west-2b@v100"]
TIER_COSTS = {**{p: 6.8 for p in A100_POOLS}, **{p: 12.5 for p in V100_POOLS}}
TIER_WEIGHTS = {**{p: 1.0 for p in A100_POOLS}, **{p: 0.25 for p in V100_POOLS}}


def tier_policy(pools=A100_POOLS + V100_POOLS, **kwargs):
    kwargs.setdefault("pool_costs", TIER_COSTS)
    return hetero_spothedge(pools, pool_weights=TIER_WEIGHTS, **kwargs)


class TestTierFallback:
    """The tier walk is Alg. 1 over pools: failed pools leave Z_A, so
    launches move to the next-cheapest type per unit, and a pool that
    serves again rejoins Z_A."""

    def test_prefers_best_tier(self):
        assert tier_policy().select_spot_zone(obs()) in A100_POOLS

    def test_partial_tier_failure_keeps_best_tier(self):
        policy = tier_policy()
        policy.on_spot_launch_failed(A100_POOLS[0])
        assert policy.select_spot_zone(obs()) == A100_POOLS[1]

    def test_falls_to_lower_tier_when_best_is_down(self):
        policy = tier_policy()
        for pool in A100_POOLS:
            policy.on_spot_launch_failed(pool)
        assert policy.select_spot_zone(obs()) in V100_POOLS

    def test_success_rehabilitates_tier_immediately(self):
        policy = tier_policy()
        for pool in A100_POOLS:
            policy.on_spot_launch_failed(pool)
        policy.on_spot_ready(A100_POOLS[0])
        assert policy.select_spot_zone(obs()) == A100_POOLS[0]

    def test_all_tiers_cooling_still_launches(self):
        policy = tier_policy()
        for pool in A100_POOLS + V100_POOLS:
            policy.on_spot_launch_failed(pool)
        # Alg. 1 rebalances instead of cornering itself: every pool is
        # active again and the cheapest per unit leads.
        assert policy.select_spot_zone(obs()) in A100_POOLS

    def test_dynamic_fallback_still_applies(self):
        mix = tier_policy(num_overprovision=2).target_mix(obs(n_tar=4))
        assert mix.od_target == 4


class TestTierOnDemandZones:
    """On-demand fallback lands on the pools' base zones."""

    def test_od_zone_comes_from_best_tier(self):
        policy = tier_policy()
        assert policy.od_zones == [
            "aws:us-east-1:us-east-1a",
            "aws:us-east-1:us-east-1b",
            "aws:us-west-2:us-west-2a",
            "aws:us-west-2:us-west-2b",
        ]
        assert policy.select_od_zone(obs()) == "aws:us-east-1:us-east-1a"

    def test_od_declaration_order_without_costs(self):
        # Two types in one zone give one on-demand zone, first-seen order.
        pools = V100_POOLS + ["aws:us-west-2:us-west-2a@a100"]
        policy = tier_policy(pools=pools, pool_costs={p: 1.0 for p in pools})
        assert policy.od_zones == ["aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b"]
        assert policy.select_od_zone(obs()) == "aws:us-west-2:us-west-2a"

    def test_od_prefers_cheapest_od_zone(self):
        policy = tier_policy(
            od_zone_costs={
                "aws:us-east-1:us-east-1a": 3.0,
                "aws:us-east-1:us-east-1b": 1.0,
                "aws:us-west-2:us-west-2a": 2.0,
                "aws:us-west-2:us-west-2b": 2.0,
            }
        )
        assert policy.select_od_zone(obs()) == "aws:us-east-1:us-east-1b"

    def test_od_respects_exclusions(self):
        policy = tier_policy()
        excluded = {"aws:us-east-1:us-east-1a", "aws:us-east-1:us-east-1b"}
        assert policy.select_od_zone(obs(), excluded) == "aws:us-west-2:us-west-2a"

    def test_explicit_od_zones_kept(self):
        policy = tier_policy(od_zones=["aws:us-west-2:us-west-2b"])
        assert policy.od_zones == ["aws:us-west-2:us-west-2b"]


class TestFactory:
    def test_hetero_spothedge_wiring(self):
        policy = hetero_spothedge(
            POOLS, pool_costs=COSTS, pool_weights=WEIGHTS, name="fleet-test"
        )
        assert isinstance(policy, FleetMixturePolicy)
        assert isinstance(policy.placer, DynamicSpotPlacer)
        assert policy.dynamic_ondemand_fallback
        assert policy.name == "fleet-test"
        assert policy.num_overprovision == 2

    def test_stationary_and_dynamic_placer_only(self):
        # The weighted planning loop probes select_zone, which is pure
        # on Alg. 1's placer, so the fastpath may fast-forward the
        # policy; a placer whose probe has side effects is refused.
        assert FleetMixturePolicy.stationary_decisions is True
        with pytest.raises(TypeError, match="DynamicSpotPlacer"):
            FleetMixturePolicy(RoundRobinPlacer(POOLS, COSTS), pool_weights=WEIGHTS)
