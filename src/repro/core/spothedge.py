"""SpotHedge: the paper's policy (§3), as a :class:`ServingPolicy`.

The general form is :class:`MixturePolicy`, parameterised by

* a spot placer (Dynamic / Even Spread / Round Robin),
* the number of overprovisioned spot replicas ``N_Extra`` (§3.2),
* whether Dynamic Fallback is on, and
* a base on-demand count.

The named configurations match the paper's comparisons:

* :func:`spothedge` — Dynamic Placement + overprovisioning + Dynamic
  Fallback (the full SpotHedge policy);
* :func:`even_spread_policy` / :func:`round_robin_policy` — pure-spot
  placement baselines of §5.2 (no overprovision, no fallback).

The Dynamic Fallback target (§3.2)::

    O(t) = min(N_Tar, N_Tar + N_Extra − S_r(t))

launches an on-demand replica per missing ready spot replica, capped at
N_Tar, and scales them down once spot capacity returns.

SpotHedge, RoundRobin, EvenSpread and OnDemand are registered in
:data:`repro.serving.registry.POLICIES` under those names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Mapping, Optional, Sequence

from repro.core.placement import (
    DynamicSpotPlacer,
    EvenSpreadPlacer,
    RoundRobinPlacer,
    SpotPlacer,
)
from repro.serving.policy import MixTarget, Observation, ServingPolicy
from repro.serving.registry import POLICIES
from repro.serving.spec import ReplicaPolicyConfig

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.telemetry.audit import PolicyAuditLog

__all__ = [
    "MixturePolicy",
    "OnDemandOnlyPolicy",
    "even_spread_policy",
    "round_robin_policy",
    "spothedge",
]


class OnDemandOnlyPolicy(ServingPolicy):
    """The traditional deployment every cost figure normalises against:
    N_Tar on-demand replicas, no spot at all."""

    name = "OnDemand"
    # Pure function of obs.n_tar — safe to fast-forward.
    stationary_decisions = True

    def __init__(self, od_zones: Sequence[str]) -> None:
        if not od_zones:
            raise ValueError("no on-demand zones")
        self.od_zones = list(od_zones)

    def target_mix(self, obs: Observation) -> MixTarget:
        return MixTarget(spot_target=0, od_target=obs.n_tar)

    def select_spot_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        return None

    def select_od_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        for zone in self.od_zones:
            if zone not in excluded:
                return zone
        return None


class MixturePolicy(ServingPolicy):
    """Spot/on-demand mixture driven by a placer and fallback rule."""

    # target_mix depends only on fleet counts (never obs.now); placer
    # mutations (set_target, mix interning) are idempotent under
    # repeated identical observations.  The audit log is the one
    # time-keyed side effect, so the fastpath additionally requires
    # ``audit is None`` before skipping steps.
    stationary_decisions = True

    # The MixTarget interning table: re-running target_mix on an
    # identical observation rewrites the same key with an equal value.
    stationary_state = frozenset({"_mix_cache"})

    def __init__(
        self,
        placer: SpotPlacer,
        *,
        num_overprovision: int = 0,
        dynamic_ondemand_fallback: bool = False,
        base_ondemand_replicas: int = 0,
        od_zones: Optional[Sequence[str]] = None,
        od_zone_costs: Optional[Mapping[str, float]] = None,
        name: Optional[str] = None,
    ) -> None:
        if num_overprovision < 0 or base_ondemand_replicas < 0:
            raise ValueError("negative replica counts")
        self.placer = placer
        self.num_overprovision = num_overprovision
        self.dynamic_ondemand_fallback = dynamic_ondemand_fallback
        self.base_ondemand_replicas = base_ondemand_replicas
        self.od_zones = list(od_zones) if od_zones is not None else list(placer.zones)
        if not self.od_zones:
            raise ValueError("no on-demand zones")
        self._od_zone_costs = dict(od_zone_costs or {z: 1.0 for z in self.od_zones})
        self.name = name or f"mixture({placer.name})"
        self._last_mix: Optional[MixTarget] = None
        #: (spot_target, od_target) → MixTarget.  MixTarget is frozen,
        #: so interning repeats avoids reconstructing one per tick on
        #: the replay/reconcile hot path; a handful of distinct targets
        #: ever exist, so the cache stays tiny.
        self._mix_cache: dict[tuple[int, int], MixTarget] = {}

    def attach_audit(self, audit: PolicyAuditLog) -> None:
        """Record mixture decisions here and placement decisions in the
        placer against the same log."""
        super().attach_audit(audit)
        self.placer.audit = audit

    # ------------------------------------------------------------------
    # Mixture (§3.2)
    # ------------------------------------------------------------------
    def target_mix(self, obs: Observation) -> MixTarget:
        spot_target = obs.n_tar + self.num_overprovision
        self.placer.set_target(spot_target)
        od_target = self.base_ondemand_replicas
        fallback = 0
        if self.dynamic_ondemand_fallback:
            fallback = min(obs.n_tar, spot_target - obs.spot_ready)
            od_target = max(od_target, max(fallback, 0))
        mix = self._mix_cache.get((spot_target, od_target))
        if mix is None:
            mix = MixTarget(spot_target=spot_target, od_target=od_target)
            self._mix_cache[(spot_target, od_target)] = mix
        if self.audit is not None:
            self.audit.touch(obs.now)
            if mix != self._last_mix:
                self.audit.record(
                    "target_mix",
                    spot_target=spot_target,
                    od_target=od_target,
                    n_tar=obs.n_tar,
                    n_extra=self.num_overprovision,
                    spot_ready=obs.spot_ready,
                    fallback=fallback,
                )
                self._last_mix = mix
        return mix

    # ------------------------------------------------------------------
    # Placement (§3.1)
    # ------------------------------------------------------------------
    def select_spot_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        zone = self.placer.select_zone(obs.spot_by_zone, excluded)
        if self.audit is not None and zone is not None:
            self.audit.touch(obs.now)
            self.audit.record(
                "select_zone",
                zone=zone,
                placements=dict(obs.spot_by_zone),
                excluded=sorted(excluded),
            )
        return zone

    def select_od_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        """On-demand replicas go to the cheapest enabled zone; on-demand
        capacity is generally obtainable everywhere (§5.1 discussion)."""
        candidates = [z for z in self.od_zones if z not in excluded]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda z: (self._od_zone_costs.get(z, 1.0), self.od_zones.index(z)),
        )

    # ------------------------------------------------------------------
    # Feedback to the placer
    # ------------------------------------------------------------------
    def on_spot_ready(self, zone_id: str) -> None:
        self.placer.handle_active(zone_id)

    def on_spot_preempted(self, zone_id: str) -> None:
        self.placer.handle_preemption(zone_id)

    def on_spot_launch_failed(self, zone_id: str) -> None:
        self.placer.handle_launch_failure(zone_id)


def spothedge(
    zones: Sequence[str],
    *,
    zone_costs: Optional[Mapping[str, float]] = None,
    num_overprovision: int = 2,
    base_ondemand_replicas: int = 0,
    od_zones: Optional[Sequence[str]] = None,
) -> MixturePolicy:
    """The full SpotHedge policy (Dynamic Placement + N_Extra + Dynamic
    Fallback), with the paper's default of two overprovisioned replicas."""
    return MixturePolicy(
        DynamicSpotPlacer(zones, zone_costs),
        num_overprovision=num_overprovision,
        dynamic_ondemand_fallback=True,
        base_ondemand_replicas=base_ondemand_replicas,
        od_zones=od_zones,
        name="SpotHedge",
    )


def even_spread_policy(
    zones: Sequence[str],
    *,
    zone_costs: Optional[Mapping[str, float]] = None,
) -> MixturePolicy:
    """§5.2's Even Spread comparison: pure spot, static even spread."""
    return MixturePolicy(
        EvenSpreadPlacer(zones, zone_costs),
        num_overprovision=0,
        dynamic_ondemand_fallback=False,
        name="EvenSpread",
    )


def round_robin_policy(
    zones: Sequence[str],
    *,
    zone_costs: Optional[Mapping[str, float]] = None,
) -> MixturePolicy:
    """§5.2's Round Robin comparison: pure spot, cycling zones."""
    return MixturePolicy(
        RoundRobinPlacer(zones, zone_costs),
        num_overprovision=0,
        dynamic_ondemand_fallback=False,
        name="RoundRobin",
    )


def _spothedge_for(
    zones: Sequence[str], replica_policy: Optional[ReplicaPolicyConfig] = None
) -> MixturePolicy:
    """SpotHedge with the service's N_Extra and base on-demand count
    (the ``ReplicaPolicyConfig`` defaults, 2 and 0, when ``None``)."""
    rp = replica_policy or ReplicaPolicyConfig()
    return spothedge(
        zones,
        num_overprovision=rp.num_overprovision,
        base_ondemand_replicas=rp.base_ondemand_fallback_replicas,
    )


# The other three have no replica-policy knobs.
POLICIES.register("SpotHedge", _spothedge_for)
POLICIES.register("RoundRobin", lambda zones, replica_policy=None: round_robin_policy(zones))
POLICIES.register("EvenSpread", lambda zones, replica_policy=None: even_spread_policy(zones))
POLICIES.register("OnDemand", lambda zones, replica_policy=None: OnDemandOnlyPolicy(zones))
