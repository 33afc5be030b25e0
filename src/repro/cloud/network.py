"""Inter-region network latency model.

Fig. 6b measures round-trip latencies between GCP regions and the paper's
§3.1 argument rests on one fact: WAN RTTs (tens to ~150 ms) are one to two
orders of magnitude below AI request processing time (seconds to tens of
seconds).  We model the WAN as a static RTT matrix seeded with
representative measured values; lookups between unknown region pairs fall
back to a geography-based estimate (same region ≪ same continent < cross
continent).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["NetworkModel", "default_network"]

# Representative one-way geographic buckets, in seconds (RTT = 2x).
_SAME_REGION_RTT = 0.002
_SAME_CONTINENT_RTT = 0.040
_CROSS_CONTINENT_RTT = 0.100
_CROSS_PACIFIC_RTT = 0.150

_CONTINENTS = {
    "us-east-1": "na",
    "us-east-2": "na",
    "us-west-2": "na",
    "eu-central-1": "eu",
    "us-central1": "na",
    "us-east1": "na",
    "us-west1": "na",
    "europe-west4": "eu",
    "asia-east1": "asia",
    "eastus": "na",
    "westeurope": "eu",
}


class NetworkModel:
    """Static inter-region RTT matrix with geographic fallback."""

    def __init__(self, rtt_overrides: Optional[dict[tuple[str, str], float]] = None) -> None:
        self._overrides: dict[tuple[str, str], float] = {}
        for (a, b), rtt in (rtt_overrides or {}).items():
            if rtt < 0:
                raise ValueError(f"negative RTT for {(a, b)}")
            self._overrides[self._key(a, b)] = rtt
        #: Answers of ``rtt`` by argument pair (the matrix never changes).
        self._memo: dict[tuple[str, str], float] = {}

    @staticmethod
    def _key(region_a: str, region_b: str) -> tuple[str, str]:
        return (region_a, region_b) if region_a <= region_b else (region_b, region_a)

    @staticmethod
    def _bare_region(region_id: str) -> str:
        """Strip the cloud prefix from ``cloud:region`` ids."""
        return region_id.split(":")[-1]

    def rtt(self, region_a: str, region_b: str) -> float:
        """Round-trip time in seconds between two regions.

        Accepts either bare region names or ``cloud:region`` ids.
        """
        rtt = self._memo.get((region_a, region_b))
        if rtt is None:
            rtt = self._memo[(region_a, region_b)] = self._lookup(region_a, region_b)
        return rtt

    def _lookup(self, region_a: str, region_b: str) -> float:
        a = self._bare_region(region_a)
        b = self._bare_region(region_b)
        override = self._overrides.get(self._key(a, b))
        if override is not None:
            return override
        if a == b:
            return _SAME_REGION_RTT
        continent_a = _CONTINENTS.get(a, "na")
        continent_b = _CONTINENTS.get(b, "na")
        if continent_a == continent_b:
            return _SAME_CONTINENT_RTT
        if "asia" in (continent_a, continent_b):
            return _CROSS_PACIFIC_RTT
        return _CROSS_CONTINENT_RTT

    def one_way(self, region_a: str, region_b: str) -> float:
        return self.rtt(region_a, region_b) / 2.0


def default_network() -> NetworkModel:
    """RTT matrix seeded with the Fig. 6b-style measurements.

    US↔EU sits near 100 ms, intra-US pairs in the 20–70 ms band, and
    Asia↔EU/US crossings at 150 ms+.
    """
    return NetworkModel(
        {
            ("us-east-1", "us-west-2"): 0.070,
            ("us-east-1", "us-east-2"): 0.012,
            ("us-east-2", "us-west-2"): 0.050,
            ("us-east-1", "eu-central-1"): 0.090,
            ("us-east-2", "eu-central-1"): 0.100,
            ("us-west-2", "eu-central-1"): 0.140,
            ("us-central1", "us-east1"): 0.032,
            ("us-central1", "us-west1"): 0.035,
            ("us-east1", "us-west1"): 0.065,
            ("us-central1", "europe-west4"): 0.100,
            ("us-east1", "europe-west4"): 0.090,
            ("us-west1", "europe-west4"): 0.135,
            ("us-central1", "asia-east1"): 0.150,
            ("europe-west4", "asia-east1"): 0.250,
        }
    )
