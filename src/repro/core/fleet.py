"""Capacity-weighted SpotHedge over heterogeneous (zone × type) pools.

:class:`FleetMixturePolicy` generalises :class:`MixturePolicy` from
counting replicas to accounting *serving capacity*: each spot pool
(``"zone@itype"``, see :mod:`repro.cloud.gpus`) carries a capacity
weight in reference-replica units, the target N_Tar + N_Extra becomes a
capacity goal in those units, and Dynamic Fallback covers the weighted
shortfall.  Placement itself is unchanged Alg. 1 — the placer's
MIN-COST signal is fed cost-per-effective-throughput, which is what
makes zone and instance type co-optimised rather than walked in fixed
tiers.

Exactness contract: when every pool weight is exactly 1.0 the policy
delegates to the parent's integer arithmetic, so a homogeneous
(single-type) fleet reproduces the unweighted SpotHedge decisions
bit-for-bit (the equivalence test pins this).
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from repro.cloud.gpus import pool_zone
from repro.core.placement import DynamicSpotPlacer
from repro.core.spothedge import MixturePolicy
from repro.serving.policy import MixTarget, Observation

__all__ = ["FleetMixturePolicy", "hetero_spothedge"]


class FleetMixturePolicy(MixturePolicy):
    """SpotHedge whose targets are capacity goals, not replica counts.

    ``pool_weights`` maps each of the placer's zones (pools) to its
    serving capacity in reference-replica units; missing pools default
    to 1.0.  ``target_mix`` plans spot launches greedily through the
    placer's own ``select_zone`` until the planned weighted capacity
    covers ``n_tar + num_overprovision`` reference units, and sizes
    Dynamic Fallback as::

        O(t) = min(N_Tar, ceil(N_Tar + N_Extra − W_r(t)))

    where ``W_r`` is a conservative lower bound on ready weighted
    capacity: the policy sees per-pool *alive* counts but not per-pool
    readiness (mirroring what real clients observe), so it assumes the
    cold replicas are the heaviest ones placed.  Scale-down is equally
    conservative: the replay layer picks its own victim (newest
    launch first), so the policy only releases replicas while *any*
    victim choice keeps the goal covered, and never while a launch is
    still in flight — releasing earlier would kill the cold
    replacement it just requested.
    """

    #: The weighted planning loop probes ``placer.select_zone`` once
    #: per hypothetical launch.  That probe is pure on Alg. 1's
    #: :class:`DynamicSpotPlacer` (it only reads Z_A and the costs), so
    #: the policy is stationary — and it accepts no other placer, since
    #: e.g. ``RoundRobinPlacer`` advances a cursor on every probe.
    stationary_decisions = True

    placer: DynamicSpotPlacer

    def __init__(
        self,
        placer: DynamicSpotPlacer,
        *,
        pool_weights: Mapping[str, float],
        num_overprovision: int = 0,
        dynamic_ondemand_fallback: bool = False,
        base_ondemand_replicas: int = 0,
        od_zones: Optional[Sequence[str]] = None,
        od_zone_costs: Optional[Mapping[str, float]] = None,
        name: Optional[str] = None,
    ) -> None:
        if not isinstance(placer, DynamicSpotPlacer):
            raise TypeError(
                f"FleetMixturePolicy plans through a side-effect-free "
                f"select_zone and needs a DynamicSpotPlacer, got "
                f"{type(placer).__name__}"
            )
        super().__init__(
            placer,
            num_overprovision=num_overprovision,
            dynamic_ondemand_fallback=dynamic_ondemand_fallback,
            base_ondemand_replicas=base_ondemand_replicas,
            od_zones=od_zones,
            od_zone_costs=od_zone_costs,
            name=name or f"fleet({placer.name})",
        )
        self._pool_order: list[str] = list(placer.zones)
        self._weights: dict[str, float] = {
            pool: float(pool_weights.get(pool, 1.0)) for pool in self._pool_order
        }
        for pool, weight in self._weights.items():
            if weight <= 0:
                raise ValueError(f"pool {pool}: non-positive capacity weight")
        self._uniform = all(w == 1.0 for w in self._weights.values())
        self._min_weight = min(self._weights.values())

    def pool_weight(self, pool: str) -> float:
        return self._weights.get(pool, 1.0)

    def _heaviest_placed(self, placements: Mapping[str, int]) -> tuple[Optional[str], float]:
        """Heaviest pool holding at least one replica (declaration
        order breaks weight ties), or ``(None, 0.0)``."""
        best: Optional[str] = None
        best_weight = 0.0
        for pool in self._pool_order:
            if placements.get(pool, 0) > 0:
                weight = self._weights[pool]
                if best is None or weight > best_weight:
                    best, best_weight = pool, weight
        return best, best_weight

    def weighted_capacity(self, placements: Mapping[str, int]) -> float:
        """Summed capacity of ``placements`` in reference units, always
        accumulated in pool declaration order (never dict order)."""
        total = 0.0
        for pool in self._pool_order:
            count = placements.get(pool, 0)
            if count:
                total += self._weights[pool] * count
        return total

    def target_mix(self, obs: Observation) -> MixTarget:
        if self._uniform:
            # All-reference fleet: exact integer arithmetic, identical
            # decisions (and audit records) to plain MixturePolicy.
            return super().target_mix(obs)
        goal = float(obs.n_tar + self.num_overprovision)
        placements = dict(obs.spot_by_zone)
        launched_capacity = self.weighted_capacity(placements)
        spot_target = obs.spot_launched
        planned = launched_capacity
        # Greedy launch plan through the placer's MIN-COST choice; the
        # cap bounds the plan when every pool weight is tiny.
        max_new = int(math.ceil(goal / self._min_weight)) + len(self._pool_order)
        while planned < goal and spot_target - obs.spot_launched < max_new:
            pool = self.placer.select_zone(placements, frozenset())
            if pool is None:
                break
            placements[pool] = placements.get(pool, 0) + 1
            planned += self._weights[pool]
            spot_target += 1
        if (
            spot_target == obs.spot_launched
            and obs.spot_ready == obs.spot_launched
        ):
            # Settled fleet with surplus: the replay layer picks its
            # own scale-down victim (newest launch first), so release
            # only while *any* victim leaves the goal covered —
            # repeatedly assume the heaviest placed replica dies.
            surplus = launched_capacity - goal
            while True:
                pool, weight = self._heaviest_placed(placements)
                if pool is None or surplus < weight:
                    break
                placements[pool] -= 1
                surplus -= weight
                spot_target -= 1
        self.placer.set_target(spot_target)
        od_target = self.base_ondemand_replicas
        fallback = 0
        if self.dynamic_ondemand_fallback:
            # Lower-bound the ready weighted capacity: per-pool
            # readiness is unobservable, so charge the cold replicas
            # at the heaviest placed weights.
            ready_capacity = launched_capacity
            pending = obs.spot_launched - obs.spot_ready
            if pending > 0:
                cold = sorted(
                    (
                        self._weights[pool]
                        for pool in self._pool_order
                        for _ in range(obs.spot_by_zone.get(pool, 0))
                    ),
                    reverse=True,
                )
                ready_capacity = max(
                    launched_capacity - sum(cold[:pending]), 0.0
                )
            shortfall = min(float(obs.n_tar), goal - ready_capacity)
            fallback = int(math.ceil(max(shortfall, 0.0)))
            od_target = max(od_target, fallback)
        return self._mix(obs, spot_target, od_target, fallback)


def hetero_spothedge(
    pools: Sequence[str],
    *,
    pool_costs: Mapping[str, float],
    pool_weights: Mapping[str, float],
    num_overprovision: int = 2,
    od_zones: Optional[Sequence[str]] = None,
    od_zone_costs: Optional[Mapping[str, float]] = None,
    name: str = "SpotHedge-fleet",
) -> FleetMixturePolicy:
    """SpotHedge co-optimising zone × instance type.

    ``pools`` are ``"zone@itype"`` ids; ``pool_costs`` is the
    cost-per-effective-throughput signal
    (:func:`repro.cloud.gpus.pool_spot_costs`) the Dynamic placer's
    MIN-COST ranks by, and ``pool_weights`` the capacity weights
    (:func:`repro.cloud.gpus.pool_capacity_weights`).  On-demand
    fallback runs on plain zones (on-demand capacity is generally
    obtainable, §5.1) priced by the cheapest-on-demand signal; by
    default those are the pools' base zones, in first-seen order.

    This is also the paper's §6 tier fallback: rank the preferred GPU
    cheapest per unit and Alg. 1 moves spot launches to the next type
    when its pools fail, and back once one of them serves again.
    """
    if od_zones is None:
        od_zones = list(dict.fromkeys(pool_zone(pool) for pool in pools))
    placer = DynamicSpotPlacer(pools, dict(pool_costs))
    return FleetMixturePolicy(
        placer,
        pool_weights=pool_weights,
        num_overprovision=num_overprovision,
        dynamic_ondemand_fallback=True,
        od_zones=od_zones,
        od_zone_costs=od_zone_costs,
        name=name,
    )
