"""The policy interface between the service controller and its brain.

The controller owns *mechanism* (launching, probing, terminating,
routing); a :class:`ServingPolicy` owns *policy*: how many spot and
on-demand replicas to hold, and where to put the next spot replica.
SpotHedge (``repro.core``) and every baseline system (``repro.baselines``)
implement this interface, so all of them run against the identical
controller, cloud, and workload — the apples-to-apples setup of §5.

The controller calls, on every reconciliation tick:

1. :meth:`ServingPolicy.target_mix` with an :class:`Observation` →
   a :class:`MixTarget`;
2. :meth:`ServingPolicy.select_spot_zone` once per missing spot replica,
   and :meth:`ServingPolicy.select_od_zone` once per missing on-demand
   replica;

and feeds back lifecycle events through the ``on_spot_*`` hooks (these
drive Alg. 1's Z_A/Z_P bookkeeping).  A tick that finds the fleet
unchanged since one that left it on target skips both steps when the
policy passes :func:`supports_fluid` (a *settled* tick,
:mod:`repro.serving.controller`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.telemetry.audit import PolicyAuditLog

__all__ = ["MixTarget", "Observation", "ServingPolicy", "supports_fluid"]


@dataclass(frozen=True)
class Observation:
    """What a policy may observe — mirrors what real clients can see.

    Counts are *replicas* (for multi-worker replicas, worker instances
    are aggregated by the controller).  ``spot_by_zone`` counts alive
    (provisioning/initializing/ready) spot replicas per zone.
    """

    now: float
    n_tar: int
    spot_launched: int
    spot_ready: int
    od_launched: int
    od_ready: int
    spot_by_zone: dict[str, int] = field(default_factory=dict)

    @property
    def total_ready(self) -> int:
        return self.spot_ready + self.od_ready


@dataclass(frozen=True)
class MixTarget:
    """Desired spot/on-demand replica counts.

    ``count_provisioning_spot`` controls whether in-flight spot launches
    count toward ``spot_target``.  SpotHedge and ASG count them; MArk and
    AWSSpot (which assume CPU-fast readiness) do not, reproducing the
    over-request behaviour of Fig. 12.
    """

    spot_target: int
    od_target: int
    count_provisioning_spot: bool = True

    def __post_init__(self) -> None:
        if self.spot_target < 0 or self.od_target < 0:
            raise ValueError(f"negative targets {self}")


class ServingPolicy(abc.ABC):
    """Replica-mixture and placement policy."""

    #: Human-readable system name (used in experiment tables).
    name: str = "policy"

    #: Whether the controller should exclude recently-failed zones from
    #: this policy's placement choices for a short cooldown.  Systems
    #: built for CPU-era spot (MArk, AWSSpot) lack this failover
    #: behaviour and keep hammering unavailable zones — which is what
    #: produces the Fig. 12 over-requesting.
    respects_zone_cooldown: bool = True

    #: Decision audit log (``repro.telemetry.audit``); ``None`` keeps the
    #: policy silent.  Attached by the service when telemetry is on.
    audit: Optional[PolicyAuditLog] = None

    #: Whether this policy's decisions depend only on the non-temporal
    #: fields of the :class:`Observation` (fleet counts and zone
    #: occupancy), never on ``obs.now`` or on call count.  Stationary
    #: policies must return the same :class:`MixTarget` for two
    #: observations that differ only in ``now``, and any internal
    #: mutation in :meth:`target_mix` must be idempotent under repeated
    #: identical observations.  Two consumers rely on it, both through
    #: :func:`supports_fluid`: the hybrid replay engine
    #: (``repro.experiments.fastpath``) fast-forwards across repeating
    #: trace windows without consulting the policy each step, and the
    #: service controller records a reconcile tick without re-deciding
    #: it when the fleet has not changed since a tick that found it on
    #: target.  Policies that keep time-indexed state (e.g. MArk's
    #: sliding prediction window) must leave it ``False``.
    stationary_decisions: bool = False

    #: Instance attributes a stationary policy (or its helpers) may
    #: mutate inside :meth:`target_mix` without breaking the
    #: ``stationary_decisions`` contract — caches and interning tables
    #: whose mutation is idempotent under repeated identical
    #: observations.  Unioned across the MRO; verified statically by
    #: ``repro lint --deep`` (pass ``stationarity``): any other write
    #: reachable from the decision surface of a stationary policy is a
    #: ``REPRO-D201`` finding, and entries that no reachable method
    #: writes are flagged stale (``REPRO-D203``).
    stationary_state: frozenset = frozenset()

    def attach_audit(self, audit: PolicyAuditLog) -> None:
        """Start recording this policy's decisions into ``audit``.

        Subclasses with internal decision-makers (placers) should
        override to propagate the log to them as well.
        """
        self.audit = audit

    @abc.abstractmethod
    def target_mix(self, obs: Observation) -> MixTarget:
        """Desired number of spot and on-demand replicas right now."""

    @abc.abstractmethod
    def select_spot_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        """Zone for the next spot launch, or ``None`` to hold off.

        ``excluded`` lists zones whose launches already failed in the
        current reconciliation round; implementations should avoid them
        until the next round.
        """

    def select_od_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        """Zone for the next on-demand launch.

        Default: reuse the spot zone choice (on-demand capacity is
        plentiful everywhere, §5.1 discussion).
        """
        return self.select_spot_zone(obs, excluded)

    # ------------------------------------------------------------------
    # Lifecycle feedback (drives Alg. 1 state in placers that track it)
    # ------------------------------------------------------------------
    def on_spot_ready(self, zone_id: str) -> None:
        """A spot replica became READY in ``zone_id``."""

    def on_spot_preempted(self, zone_id: str) -> None:
        """A spot replica was preempted in ``zone_id``."""

    def on_spot_launch_failed(self, zone_id: str) -> None:
        """A spot launch attempt failed (no capacity) in ``zone_id``."""


def supports_fluid(policy: ServingPolicy) -> bool:
    """Whether ``policy``'s decisions may be reused instead of
    recomputed: the replay engine's window fast-forward and the
    controller's settled ticks.

    Requires the policy's stationarity declaration *and* no attached
    audit log — ``PolicyAuditLog.touch`` keys on ``obs.now``, so an
    audited policy must be consulted every step.
    """
    return bool(getattr(policy, "stationary_decisions", False)) and policy.audit is None
