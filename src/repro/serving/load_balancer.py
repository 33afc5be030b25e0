"""Load balancers (§4, "Load Balancer").

The system load balancer distributes incoming traffic over ready
replicas.  The paper ships round-robin and least-ongoing-requests
routing, and sketches a locality-aware extension in §6 (route to the
closest replica unless it is overloaded); all three are implemented
here.  The balancer also feeds request-rate measurements to the
autoscaler — in this codebase that wiring lives in the service
controller, which calls :meth:`LoadBalancer.pick` per request.
"""

from __future__ import annotations

import abc
import logging
from typing import Optional, Sequence

from repro.cloud.network import NetworkModel
from repro.serving.replica import Replica
from repro.workloads.request import Request

__all__ = [
    "LeastLoadBalancer",
    "LoadBalancer",
    "LocalityAwareBalancer",
    "RoundRobinBalancer",
    "make_balancer",
]

logger = logging.getLogger(__name__)


def _least_loaded(replicas: Sequence[Replica]) -> Optional[Replica]:
    """The replica with the least capacity-normalised ongoing load, ties
    broken by the smaller id (``None`` for an empty sequence)."""
    best: Optional[Replica] = None
    best_load = 0.0
    for replica in replicas:
        load = replica.ongoing_requests / replica.capacity_weight
        if (
            best is None
            or load < best_load
            or (load == best_load and replica.id < best.id)
        ):
            best, best_load = replica, load
    return best


class LoadBalancer(abc.ABC):
    """Chooses a ready replica for each incoming request."""

    name: str = "balancer"

    @abc.abstractmethod
    def pick(self, replicas: Sequence[Replica], request: Request) -> Optional[Replica]:
        """Pick a replica from ``replicas`` (all ready), or ``None`` if
        the list is empty."""


class RoundRobinBalancer(LoadBalancer):
    """Cycle through ready replicas in id order.

    The rotation is keyed by the *id* of the last-picked replica, not a
    positional cursor: each pick takes the smallest id strictly greater
    than the last one (wrapping to the smallest overall).  That makes
    the rotation stable when the ready set changes between picks —
    replicas joining or leaving never shift which replica is "next" the
    way a modulo cursor aliases — and runs in one O(n) pass instead of
    re-sorting the ready set per request.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._last: Optional[int] = None

    def pick(self, replicas: Sequence[Replica], request: Request) -> Optional[Replica]:
        if not replicas:
            return None
        successor: Optional[Replica] = None  # smallest id > self._last
        smallest: Optional[Replica] = None  # smallest id overall (wrap)
        for replica in replicas:
            if smallest is None or replica.id < smallest.id:
                smallest = replica
            if self._last is not None and replica.id > self._last:
                if successor is None or replica.id < successor.id:
                    successor = replica
        choice = successor if successor is not None else smallest
        assert choice is not None
        self._last = choice.id
        return choice


class LeastLoadBalancer(LoadBalancer):
    """Route to the replica with the fewest ongoing requests (§4's
    "least number of ongoing requests" option, the SkyServe default).

    Load is normalised by each replica's ``capacity_weight``, so in a
    heterogeneous fleet an H100 replica (high weight) absorbs
    proportionally more concurrent requests than an L4 one.  In a
    homogeneous fleet every weight is exactly 1.0 and the division is
    exact, so picks are identical to the unweighted balancer.
    """

    name = "least_load"

    def pick(self, replicas: Sequence[Replica], request: Request) -> Optional[Replica]:
        return _least_loaded(replicas)


class LocalityAwareBalancer(LoadBalancer):
    """§6's advanced policy: prefer replicas near the client.

    Replicas are bucketed by round-trip time from ``client_region``;
    within the nearest bucket whose replicas are not overloaded (ongoing
    requests below ``overload_threshold``), pick the least loaded.  When
    every bucket is overloaded, fall back to the globally least-loaded
    replica — the "route to a remote region only if local replicas are
    overloaded" behaviour.
    """

    name = "locality"

    def __init__(
        self,
        client_region: str,
        network: NetworkModel,
        *,
        overload_threshold: int = 8,
    ) -> None:
        if overload_threshold < 1:
            raise ValueError("overload_threshold must be >= 1")
        self.client_region = client_region
        self.network = network
        self.overload_threshold = overload_threshold
        #: Cumulative global fallbacks (every local replica overloaded).
        self.fallbacks_total = 0
        #: Set by ``pick`` when its last decision was a fallback — the
        #: controller reads this to emit a LoadBalancerFallback event.
        self.last_pick_fallback = False

    #: RTT assumed for replicas whose region the network model cannot
    #: place (synthetic topologies): worse than any modelled WAN bucket,
    #: so unplaceable replicas deterministically sort last.
    FALLBACK_RTT = 1.0

    def _rtt_to(self, replica: Replica) -> float:
        try:
            return self.network.rtt(self.client_region, replica.region_id)
        except (KeyError, ValueError):
            return self.FALLBACK_RTT

    def pick(self, replicas: Sequence[Replica], request: Request) -> Optional[Replica]:
        if not replicas:
            return None
        # Nearest RTT bucket containing a non-overloaded replica, then
        # least-loaded within that bucket (ties broken by id).  One pass:
        # min over non-overloaded replicas of (rtt, normalised load, id).
        # Both the overload cutoff and the load key are capacity-
        # weighted: a weight-2 replica overloads at twice the threshold
        # and counts half the load per request.  At weight 1.0 the
        # arithmetic is exact and matches the unweighted balancer.
        self.last_pick_fallback = False
        best: Optional[Replica] = None
        best_key: tuple[float, float, int] = (float("inf"), 0.0, 0)
        for replica in replicas:
            load = replica.ongoing_requests
            weight = replica.capacity_weight
            if load >= self.overload_threshold * weight:
                continue
            key = (self._rtt_to(replica), load / weight, replica.id)
            if best is None or key < best_key:
                best, best_key = replica, key
        if best is not None:
            return best
        logger.debug(
            "request %d: every replica at/over %d ongoing, falling back to "
            "globally least loaded",
            request.request_id,
            self.overload_threshold,
        )
        self.fallbacks_total += 1
        self.last_pick_fallback = True
        return _least_loaded(replicas)


def make_balancer(
    policy: str,
    *,
    client_region: str = "aws:us-west-2",
    network: Optional[NetworkModel] = None,
) -> LoadBalancer:
    """Instantiate a balancer from a service spec policy name.

    Resolution goes through :data:`repro.serving.registry.BALANCERS`;
    registered factories take ``(client_region, network)`` and return a
    :class:`LoadBalancer`.
    """
    from repro.serving.registry import BALANCERS

    factory = BALANCERS.get(policy)
    balancer: LoadBalancer = factory(client_region, network)
    return balancer


def _make_round_robin(
    client_region: str, network: Optional[NetworkModel]
) -> LoadBalancer:
    return RoundRobinBalancer()


def _make_least_load(
    client_region: str, network: Optional[NetworkModel]
) -> LoadBalancer:
    return LeastLoadBalancer()


def _make_locality(client_region: str, network: Optional[NetworkModel]) -> LoadBalancer:
    if network is None:
        raise ValueError("locality balancer requires a network model")
    return LocalityAwareBalancer(client_region, network)


from repro.serving.registry import BALANCERS as _BALANCERS  # noqa: E402

_BALANCERS.register("round_robin", _make_round_robin)
_BALANCERS.register("least_load", _make_least_load)
_BALANCERS.register("locality", _make_locality)
