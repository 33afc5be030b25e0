"""Spot placement policies (§3.1).

Three placers, matching the paper's comparison:

* :class:`DynamicSpotPlacer` — Algorithm 1.  Tracks an available-zone
  list ``Z_A`` and a highly-preempting list ``Z_P``; preemptions (and,
  like the SkyPilot implementation, launch failures) move a zone to
  ``Z_P``; a successful launch moves it back to ``Z_A``.  New replicas
  go to the zone in ``Z_A`` with no current placement and the lowest
  cost (``SELECT-NEXT-ZONE``), falling back to all of ``Z_A`` when every
  available zone is already used.  When ``|Z_A| < 2`` the placer
  *rebalances* — returns every zone in ``Z_P`` to ``Z_A`` — to avoid
  concentrating all replicas in one zone.
* :class:`EvenSpreadPlacer` — the AWS-ASG/MArk static policy: keep an
  even static spread regardless of preemption history.
* :class:`RoundRobinPlacer` — the Ray Serve/GKE policy: cycle through
  zones; remembers nothing about preempting zones.

The §3.1 analysis: with per-zone Poisson preemption rates λ_i, Even
Spread sees ``n·T·mean(λ_i)`` preemptions, Round Robin the (smaller)
harmonic-mean rate, and tracking λ_i (Dynamic) avoids hot zones almost
entirely — property tests in ``tests/core/test_placement.py`` check this
ordering on simulated zone processes.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, AbstractSet, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.telemetry.audit import PolicyAuditLog

__all__ = [
    "DynamicSpotPlacer",
    "EvenSpreadPlacer",
    "RoundRobinPlacer",
    "SpotPlacer",
    "make_placer",
]


class SpotPlacer(abc.ABC):
    """Chooses the zone for each new spot replica."""

    name: str = "placer"

    #: Optional decision audit log, propagated down from the owning
    #: policy's ``attach_audit``.  Placers record zone-list transitions
    #: only when one is attached.
    audit: Optional[PolicyAuditLog] = None

    def __init__(
        self, zones: Sequence[str], zone_costs: Optional[Mapping[str, float]] = None
    ) -> None:
        if not zones:
            raise ValueError("placer needs at least one zone")
        if len(set(zones)) != len(zones):
            raise ValueError("duplicate zones")
        self.zones = list(zones)
        self.zone_costs = dict(zone_costs or {z: 1.0 for z in zones})
        for zone in self.zones:
            if zone not in self.zone_costs:
                raise ValueError(f"no cost for zone {zone!r}")

    @abc.abstractmethod
    def select_zone(
        self,
        current_placements: Mapping[str, int],
        excluded: AbstractSet[str] = frozenset(),
    ) -> Optional[str]:
        """Zone for the next launch given alive replicas per zone.

        ``excluded`` holds zones whose launch already failed in the
        current reconciliation round (the capacity error came back
        within seconds); a sane caller does not retry them until the
        next round.  Returns ``None`` when every candidate is excluded.
        """

    def set_target(self, n: int) -> None:
        """Tell the placer the current fleet-size target.

        Only static-quota placers (Even Spread) need it; the default is
        a no-op.
        """

    def handle_preemption(self, zone: str) -> None:
        """A replica was preempted in ``zone``."""

    def handle_launch_failure(self, zone: str) -> None:
        """A launch attempt found no capacity in ``zone``."""

    def handle_active(self, zone: str) -> None:
        """A replica launched successfully and is ready in ``zone``."""


class DynamicSpotPlacer(SpotPlacer):
    """Algorithm 1: preemption-aware dynamic placement."""

    name = "dynamic"

    def __init__(
        self,
        zones: Sequence[str],
        zone_costs: Optional[Mapping[str, float]] = None,
        *,
        treat_launch_failure_as_preemption: bool = True,
    ) -> None:
        super().__init__(zones, zone_costs)
        self.active_zones: list[str] = list(self.zones)  # Z_A
        self.preempting_zones: list[str] = []  # Z_P
        self._failure_is_preemption = treat_launch_failure_as_preemption

    # -- Alg. 1 state maintenance --------------------------------------
    def _move_to_preempting(self, zone: str) -> None:
        if zone in self.active_zones:
            self.active_zones.remove(zone)
            self.preempting_zones.append(zone)
            if self.audit is not None:
                self.audit.record(
                    "zone_to_preempting",
                    zone=zone,
                    active=list(self.active_zones),
                    preempting=list(self.preempting_zones),
                )
        if len(self.active_zones) < 2:
            # Zone rebalancing: never get cornered into a single zone.
            restored = list(self.preempting_zones)
            self.active_zones.extend(self.preempting_zones)
            self.preempting_zones.clear()
            if self.audit is not None and restored:
                self.audit.record(
                    "rebalance",
                    restored=restored,
                    active=list(self.active_zones),
                )

    def handle_preemption(self, zone: str) -> None:
        # Dispatch through the method so a subclass override of
        # ``_move_to_preempting`` also sees preemptions.
        self._move_to_preempting(zone)

    def handle_launch_failure(self, zone: str) -> None:
        if self._failure_is_preemption:
            self._move_to_preempting(zone)

    def handle_active(self, zone: str) -> None:
        if zone in self.preempting_zones:
            self.preempting_zones.remove(zone)
            self.active_zones.append(zone)
            if self.audit is not None:
                self.audit.record(
                    "zone_to_active",
                    zone=zone,
                    active=list(self.active_zones),
                    preempting=list(self.preempting_zones),
                )

    # -- SELECT-NEXT-ZONE ----------------------------------------------
    def _min_cost(self, zones: Sequence[str], placements: Mapping[str, int]) -> str:
        """Cheapest zone, breaking ties by fewer current placements and
        then by Z_A order — zones returned by a rebalance sit at the end
        of Z_A, so recently-preempting zones are tried last."""

        def rank(zone: str) -> int:
            if zone in self.active_zones:
                return self.active_zones.index(zone)
            return len(self.active_zones) + self.zones.index(zone)

        return min(
            zones,
            key=lambda z: (
                self.zone_costs[z],
                placements.get(z, 0),
                rank(z),
            ),
        )

    def select_zone(
        self,
        current_placements: Mapping[str, int],
        excluded: AbstractSet[str] = frozenset(),
    ) -> Optional[str]:
        # Hot path of every replay/reconcile tick: one pass over Z_A,
        # tracking the best unused and best used candidate at once —
        # equivalent to (but much cheaper than) building the candidate
        # and unused lists and calling ``_min_cost`` on them.  Z_A order
        # breaks ties, so iterating in rank order needs no rank key:
        # replace a candidate only on a strictly better (cost, placed).
        get = current_placements.get
        costs = self.zone_costs
        if excluded:
            candidates = [z for z in self.active_zones if z not in excluded]
        else:
            candidates = self.active_zones
        best_unused = best_used = None
        bu_cost = bs_cost = bs_placed = 0.0
        for zone in candidates:
            placed = get(zone, 0)
            if placed == 0:
                cost = costs[zone]
                if best_unused is None or cost < bu_cost:
                    best_unused, bu_cost = zone, cost
            elif best_unused is None:
                cost = costs[zone]
                if (
                    best_used is None
                    or cost < bs_cost
                    # Exact equality is the *intended* tie-break: both
                    # operands are unmodified reads from the same
                    # zone_costs dict, so it is bit-exact deterministic.
                    or (cost == bs_cost and placed < bs_placed)  # repro: noqa[REPRO-F001]: same-dict reads, bit-exact tie-break
                ):
                    best_used, bs_cost, bs_placed = zone, cost, placed
        if best_unused is not None:
            return best_unused
        if candidates:
            return best_used
        # Everything in Z_A already failed this round; fall back to
        # any non-excluded enabled zone rather than giving up.
        candidates = [z for z in self.zones if z not in excluded]
        if not candidates:
            return None
        unused = [z for z in candidates if current_placements.get(z, 0) == 0]
        if unused:
            return self._min_cost(unused, current_placements)
        return self._min_cost(candidates, current_placements)


class EvenSpreadPlacer(SpotPlacer):
    """Static even spread (AWS ASG / MArk behaviour).

    The fleet target ``n`` is divided into fixed per-zone quotas
    (``zones[i % N]`` per slot, §3.1's "each zone is given n/N
    replicas").  New launches go only to zones below quota; when a
    quota zone has no capacity its slots simply stay unfilled — the
    placer never fails over to another zone, which is exactly why the
    paper's Even Spread "relaunches instances on highly-preempting
    zones and thus fails to get enough replicas".
    """

    name = "even_spread"

    # set_target writes the same target (and the same memoised quotas)
    # for the same observation: safe to reach from a stationary
    # policy's target_mix.
    stationary_state = frozenset({"_target", "_quotas"})

    def __init__(
        self, zones: Sequence[str], zone_costs: Optional[Mapping[str, float]] = None
    ) -> None:
        super().__init__(zones, zone_costs)
        self._target = len(self.zones)
        self._quotas = self._spread(self._target)

    def _spread(self, n: int) -> dict[str, int]:
        counts = {z: 0 for z in self.zones}
        for slot in range(n):
            counts[self.zones[slot % len(self.zones)]] += 1
        return counts

    def set_target(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"negative target {n}")
        # Policies re-send the same target every step; the quota dict is
        # rebuilt only when it actually changes.
        if n != self._target:
            self._target = n
            self._quotas = self._spread(n)

    def quotas(self) -> dict[str, int]:
        """Fixed per-zone replica quotas for the current target."""
        return dict(self._quotas)

    def select_zone(
        self,
        current_placements: Mapping[str, int],
        excluded: AbstractSet[str] = frozenset(),
    ) -> Optional[str]:
        # The zone furthest below its quota; zone order breaks ties
        # (only a strictly larger deficit replaces the candidate), and
        # zones at or above quota are never candidates.
        quotas = self._quotas
        get = current_placements.get
        best: Optional[str] = None
        best_gap = 0
        for zone in self.zones:
            if zone in excluded:
                continue
            gap = get(zone, 0) - quotas[zone]
            if gap < best_gap:
                best, best_gap = zone, gap
        return best


class RoundRobinPlacer(SpotPlacer):
    """Cycle through zones in order (Ray Serve / GKE behaviour)."""

    name = "round_robin"

    def __init__(
        self, zones: Sequence[str], zone_costs: Optional[Mapping[str, float]] = None
    ) -> None:
        super().__init__(zones, zone_costs)
        #: Index of the next zone to offer, kept in ``range(len(zones))``
        #: so equal rotations leave equal state (the replay engine's
        #: shortage cycles compare pickled policy state).
        self._next = 0

    def select_zone(
        self,
        current_placements: Mapping[str, int],
        excluded: AbstractSet[str] = frozenset(),
    ) -> Optional[str]:
        n_zones = len(self.zones)
        for _ in range(n_zones):
            zone = self.zones[self._next]
            self._next = (self._next + 1) % n_zones
            if zone not in excluded:
                return zone
        return None


def make_placer(
    kind: str,
    zones: Sequence[str],
    zone_costs: Optional[Mapping[str, float]] = None,
) -> SpotPlacer:
    """Instantiate a placer from a spec's ``spot_placer`` name.

    Resolution goes through :data:`repro.serving.registry.PLACERS`, so
    third-party placers registered there are constructible by name too.
    """
    from repro.serving.registry import PLACERS

    cls: type[SpotPlacer] = PLACERS.get(kind)
    return cls(zones, zone_costs)


# Registered at the bottom so the classes exist before the registry
# import (which initialises the whole repro.serving package) runs.
from repro.serving.registry import PLACERS as _PLACERS  # noqa: E402

_PLACERS.register("dynamic", DynamicSpotPlacer)
_PLACERS.register("even_spread", EvenSpreadPlacer)
_PLACERS.register("round_robin", RoundRobinPlacer)
