"""Spot obtainability traces: format, statistics, and synthetic generators.

The paper's §5.2 replays *real* spot obtainability traces collected by
maintaining a desired number of spot instances and recording preemptions
and launch failures (traces AWS 1–3 and GCP 1 from Wu et al., NSDI '24).
Those trace files require cloud accounts to re-collect, so this module
provides:

* :class:`SpotTrace` — a per-zone, fixed-step *launchable capacity* step
  function.  Capacity 0 means the zone cannot provide any spot instance
  of the target type at that moment (unavailability); a capacity drop
  below current usage preempts the excess instances.
* ``make_correlated_trace`` — a generator that reproduces the statistical
  structure §2.2/§2.3 document: per-zone ON/OFF renewal processes plus a
  *regional shock* process that takes down several zones of the same
  region together (intra-region correlation ≥ 0.3, near-zero inter-region
  correlation), heterogeneous per-zone preemption rates, and tunable
  availability.
* Canned trace builders ``aws1/aws2/aws3/gcp1/cpu_trace`` calibrated to
  the durations, zone counts, and availability statistics the paper
  reports for each dataset.

Traces serialise to JSON so experiments can be archived and replayed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.cloud.topology import Topology, Zone, default_topology
from repro.sim.rng import RngRegistry

__all__ = [
    "SpotTrace",
    "TraceZoneSpec",
    "make_correlated_trace",
    "aws1",
    "aws2",
    "aws3",
    "gcp1",
    "cpu_trace",
    "DAY",
    "HOUR",
    "WEEK",
]

HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY


class SpotTrace:
    """Per-zone launchable spot capacity over time, on a fixed grid.

    ``capacity[i, k]`` is the number of spot instances launchable in zone
    ``zone_ids[i]`` during ``[k * step, (k + 1) * step)``.
    """

    def __init__(
        self,
        name: str,
        zone_ids: Sequence[str],
        step: float,
        capacity: ArrayLike,
    ) -> None:
        grid: NDArray[np.int64] = np.asarray(capacity, dtype=np.int64)
        if grid.ndim != 2:
            raise ValueError("capacity must be a 2-D (zones x steps) array")
        if grid.shape[0] != len(zone_ids):
            raise ValueError(
                f"{grid.shape[0]} capacity rows for {len(zone_ids)} zones"
            )
        if (grid < 0).any():
            raise ValueError("negative capacity in trace")
        if step <= 0:
            raise ValueError(f"non-positive step {step!r}")
        if len(set(zone_ids)) != len(zone_ids):
            raise ValueError("duplicate zone ids in trace")
        self.name = name
        self.zone_ids = list(zone_ids)
        self.step = float(step)
        self.capacity = grid
        self._zone_index = {zone_id: i for i, zone_id in enumerate(self.zone_ids)}
        #: Memoised content digest; traces are immutable by convention.
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Content digest of the trace (name, zones, step, capacity).

        Stable across processes and platform word sizes — the capacity
        grid is hashed in a fixed dtype and byte order — so artifacts
        such as the chaos scorecard can name the exact trace they were
        computed on.  Computed once and memoised; traces are immutable
        by convention.
        """
        if self._digest is not None:
            return self._digest
        hasher = hashlib.sha256()
        header = json.dumps(
            {"name": self.name, "zones": self.zone_ids, "step": self.step},
            sort_keys=True,
        )
        hasher.update(header.encode())
        hasher.update(np.ascontiguousarray(self.capacity, dtype="<i8").tobytes())
        self._digest = hasher.hexdigest()
        return self._digest

    @property
    def n_steps(self) -> int:
        return self.capacity.shape[1]

    @property
    def duration(self) -> float:
        """Total trace length in seconds."""
        return self.n_steps * self.step

    @property
    def regions(self) -> list[str]:
        """Region ids present in the trace, in first-seen order."""
        seen: dict[str, None] = {}
        for zone_id in self.zone_ids:
            seen.setdefault(_region_of(zone_id), None)
        return list(seen)

    def zone_row(self, zone_id: str) -> NDArray[np.int64]:
        index = self._zone_index.get(zone_id)
        if index is None:
            raise KeyError(f"zone {zone_id!r} not in trace {self.name!r}")
        return self.capacity[index]

    def step_index(self, time: float) -> int:
        """Grid index containing simulated ``time`` (clamped to the end)."""
        if time < 0:
            raise ValueError(f"negative time {time!r}")
        return min(int(time // self.step), self.n_steps - 1)

    def capacity_at(self, zone_id: str, time: float) -> int:
        """Launchable spot capacity in ``zone_id`` at ``time``."""
        return int(self.zone_row(zone_id)[self.step_index(time)])

    # ------------------------------------------------------------------
    # Statistics used in the paper's analysis figures
    # ------------------------------------------------------------------
    def availability(self, zone_id: str, threshold: int = 1) -> float:
        """Fraction of time the zone can provide >= ``threshold`` instances."""
        row = self.zone_row(zone_id)
        return float((row >= threshold).mean())

    def pooled_availability(
        self, zone_ids: Optional[Iterable[str]] = None, threshold: int = 1
    ) -> float:
        """Fraction of time the *pool* of zones has >= ``threshold`` total
        capacity — the Fig. 5 metric as the search space widens."""
        ids = list(zone_ids) if zone_ids is not None else self.zone_ids
        rows = np.stack([self.zone_row(z) for z in ids])
        return float((rows.sum(axis=0) >= threshold).mean())

    def region_blackout_fraction(self, region_id: str) -> float:
        """Fraction of time *all* zones of a region are simultaneously
        unavailable (§2.2 reports 33.1% for a region of AWS 2)."""
        rows = [
            self.zone_row(z) for z in self.zone_ids if _region_of(z) == region_id
        ]
        if not rows:
            raise KeyError(f"region {region_id!r} not in trace {self.name!r}")
        stacked = np.stack(rows)
        return float((stacked.sum(axis=0) == 0).mean())

    def preemption_indicator(self, zone_id: str) -> NDArray[np.bool_]:
        """Boolean series: capacity strictly dropped in this grid step.

        Used as the per-interval preemption events for the Fig. 3
        correlation analysis.
        """
        row = self.zone_row(zone_id)
        indicator = np.zeros(self.n_steps, dtype=bool)
        indicator[1:] = row[1:] < row[:-1]
        return indicator

    def subset(self, zone_ids: Sequence[str], name: Optional[str] = None) -> SpotTrace:
        """A new trace restricted to the given zones."""
        rows = np.stack([self.zone_row(z) for z in zone_ids])
        return SpotTrace(
            name or f"{self.name}-subset",
            list(zone_ids),
            self.step,
            rows,
        )

    def window(self, start: float, end: float, name: Optional[str] = None) -> SpotTrace:
        """A new trace restricted to the time window ``[start, end)``.

        ``start`` and ``end`` are clamped to the trace and snapped to
        grid steps.
        """
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        first = max(int(start // self.step), 0)
        last = min(int(math.ceil(end / self.step)), self.n_steps)
        if last <= first:
            raise ValueError(f"window [{start}, {end}) outside trace")
        return SpotTrace(
            name or f"{self.name}[{first}:{last}]",
            self.zone_ids,
            self.step,
            self.capacity[:, first:last],
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "zone_ids": self.zone_ids,
                "step": self.step,
                "capacity": self.capacity.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> SpotTrace:
        data = json.loads(text)
        return cls(
            name=data["name"],
            zone_ids=data["zone_ids"],
            step=data["step"],
            capacity=np.asarray(data["capacity"], dtype=np.int64),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> SpotTrace:
        return cls.from_json(Path(path).read_text())


def _region_of(zone_id: str) -> str:
    cloud, region, _zone = zone_id.split(":")
    return f"{cloud}:{region}"


@dataclass(frozen=True)
class TraceZoneSpec:
    """Per-zone generator parameters.

    ``mean_up`` / ``mean_down`` are the mean durations (seconds) of the
    zone's available / unavailable periods; ``capacity_up`` is the
    launchable capacity while available.  Highly-preempting zones get
    short ``mean_up``.
    """

    zone_id: str
    mean_up: float
    mean_down: float
    capacity_up: int

    def __post_init__(self) -> None:
        if self.mean_up <= 0 or self.mean_down <= 0:
            raise ValueError(f"{self.zone_id}: non-positive mean durations")
        if self.capacity_up <= 0:
            raise ValueError(f"{self.zone_id}: non-positive capacity")


def _onoff_series(
    n_steps: int,
    step: float,
    mean_up: float,
    mean_down: float,
    rng: np.random.Generator,
) -> NDArray[np.bool_]:
    """Alternating ON/OFF renewal process sampled on the grid.

    Durations are exponential; the process starts ON with probability
    equal to its stationary availability.
    """
    availability = mean_up / (mean_up + mean_down)
    on = rng.random() < availability
    series = np.zeros(n_steps, dtype=bool)
    t = 0.0
    horizon = n_steps * step
    while t < horizon:
        duration = rng.exponential(mean_up if on else mean_down)
        start = int(t // step)
        end = min(int((t + duration) // step) + 1, n_steps)
        if on:
            series[start:end] = True
        t += duration
        on = not on
    return series


def make_correlated_trace(
    name: str,
    zone_specs: Sequence[TraceZoneSpec],
    duration: float,
    *,
    step: float = 60.0,
    region_shock_rate: float = 0.0,
    region_shock_mean_duration: float = 600.0,
    region_shock_affect_prob: float = 0.9,
    diurnal_amplitude: float = 0.0,
    diurnal_peak_hour: float = 14.0,
    seed: int = 0,
) -> SpotTrace:
    """Generate a spot trace with intra-region correlated preemptions.

    Each zone follows its own ON/OFF renewal process (independent across
    zones).  On top of that, each *region* draws shock events from a
    Poisson process with ``region_shock_rate`` (events per second); a
    shock lasts ``Exp(region_shock_mean_duration)`` and knocks out each
    zone of the region independently with ``region_shock_affect_prob``.
    Shocks create the simultaneous intra-region preemptions of Fig. 3
    while leaving zones in different regions uncorrelated.

    ``diurnal_amplitude`` (0–1) adds a time-of-day pattern: spot
    capacity dips around ``diurnal_peak_hour`` local demand peak (when
    on-demand customers take the hardware) and recovers at night —
    capacity is scaled by ``1 − amplitude · max(0, sin(phase))``.
    """
    if duration <= 0:
        raise ValueError(f"non-positive duration {duration!r}")
    if not 0.0 <= diurnal_amplitude <= 1.0:
        raise ValueError(f"diurnal_amplitude {diurnal_amplitude} outside [0, 1]")
    registry = RngRegistry(seed)
    n_steps = max(int(round(duration / step)), 1)
    n_zones = len(zone_specs)
    capacity = np.zeros((n_zones, n_steps), dtype=np.int64)

    for i, spec in enumerate(zone_specs):
        rng = registry.stream(f"zone:{spec.zone_id}")
        on = _onoff_series(n_steps, step, spec.mean_up, spec.mean_down, rng)
        capacity[i, on] = spec.capacity_up

    if diurnal_amplitude > 0:
        times = np.arange(n_steps) * step
        # Phase 0 at the demand peak: capacity is lowest there.
        phase = 2 * np.pi * (times / 86400.0 - diurnal_peak_hour / 24.0)
        squeeze = 1.0 - diurnal_amplitude * np.maximum(np.cos(phase), 0.0)
        capacity = np.floor(capacity * squeeze[None, :]).astype(np.int64)

    if region_shock_rate > 0:
        regions: dict[str, list[int]] = {}
        for i, spec in enumerate(zone_specs):
            regions.setdefault(_region_of(spec.zone_id), []).append(i)
        for region_id, zone_rows in regions.items():
            rng = registry.stream(f"shock:{region_id}")
            t = rng.exponential(1.0 / region_shock_rate)
            while t < duration:
                shock_len = rng.exponential(region_shock_mean_duration)
                start = int(t // step)
                end = min(int((t + shock_len) // step) + 1, n_steps)
                for row in zone_rows:
                    if rng.random() < region_shock_affect_prob:
                        capacity[row, start:end] = 0
                t += rng.exponential(1.0 / region_shock_rate)

    return SpotTrace(name, [s.zone_id for s in zone_specs], step, capacity)


# ----------------------------------------------------------------------
# Canned datasets calibrated to the paper's §5.2 trace descriptions
# ----------------------------------------------------------------------


def _zone_ids(topology: Topology, region_ids: Sequence[str]) -> list[Zone]:
    zones: list[Zone] = []
    for region_id in region_ids:
        zones.extend(topology.zones_in_region(region_id))
    return zones


def aws1(seed: int = 1, topology: Optional[Topology] = None) -> SpotTrace:
    """AWS 1: 2-week trace, 4 p3.2xlarge, 3 zones of one region.

    Moderately volatile: single-region deployment sees correlated
    preemptions but the region is rarely fully blacked out.
    """
    topology = topology or default_topology()
    zones = topology.zones_in_region("aws:us-west-2")
    specs = [
        TraceZoneSpec(zones[0].id, mean_up=10 * HOUR, mean_down=2 * HOUR, capacity_up=4),
        TraceZoneSpec(zones[1].id, mean_up=5 * HOUR, mean_down=3 * HOUR, capacity_up=4),
        TraceZoneSpec(zones[2].id, mean_up=2 * HOUR, mean_down=4 * HOUR, capacity_up=4),
    ]
    return make_correlated_trace(
        "AWS 1",
        specs,
        duration=2 * WEEK,
        region_shock_rate=1.0 / (18 * HOUR),
        region_shock_mean_duration=1.5 * HOUR,
        region_shock_affect_prob=0.85,
        seed=seed,
    )


def aws2(seed: int = 2, topology: Optional[Topology] = None) -> SpotTrace:
    """AWS 2: 3-week trace, 16 p3.2xlarge, 3 zones of one region.

    Calibrated so all zones of the region are simultaneously unavailable
    roughly a third of the time (§2.2 reports 33.1%), making it the trace
    where single-region policies collapse.
    """
    topology = topology or default_topology()
    zones = topology.zones_in_region("aws:us-east-1")[:3]
    specs = [
        TraceZoneSpec(zones[0].id, mean_up=4 * HOUR, mean_down=3 * HOUR, capacity_up=16),
        TraceZoneSpec(zones[1].id, mean_up=3 * HOUR, mean_down=4 * HOUR, capacity_up=16),
        TraceZoneSpec(zones[2].id, mean_up=2 * HOUR, mean_down=5 * HOUR, capacity_up=16),
    ]
    return make_correlated_trace(
        "AWS 2",
        specs,
        duration=3 * WEEK,
        region_shock_rate=1.0 / (8 * HOUR),
        region_shock_mean_duration=2.5 * HOUR,
        region_shock_affect_prob=0.95,
        seed=seed,
    )


def aws3(seed: int = 3, topology: Optional[Topology] = None) -> SpotTrace:
    """AWS 3: 2-month trace, p3.2xlarge, 9 zones across 3 regions.

    The wide trace behind Figs. 3c and 5b: zones within each region share
    shocks; different regions are independent, so pooled availability
    climbs towards ~99% as regions are added (68.2% → 99.2% for V100).
    """
    topology = topology or default_topology()
    zones = _zone_ids(topology, ["aws:us-east-1", "aws:us-east-2", "aws:us-west-2"])
    assert len(zones) == 9, "AWS 3 expects 9 zones across 3 regions"
    base = [
        (14 * HOUR, 3 * HOUR),
        (11 * HOUR, 3 * HOUR),
        (8 * HOUR, 4 * HOUR),
        (12 * HOUR, 2 * HOUR),
        (9 * HOUR, 3 * HOUR),
        (7 * HOUR, 4 * HOUR),
        (11 * HOUR, 2 * HOUR),
        (5 * HOUR, 5 * HOUR),
        (9 * HOUR, 4 * HOUR),
    ]
    specs = [
        TraceZoneSpec(zone.id, mean_up=up, mean_down=down, capacity_up=4)
        for zone, (up, down) in zip(zones, base)
    ]
    return make_correlated_trace(
        "AWS 3",
        specs,
        duration=8 * WEEK,
        region_shock_rate=1.0 / (6 * HOUR),
        region_shock_mean_duration=1.5 * HOUR,
        region_shock_affect_prob=0.95,
        seed=seed,
    )


def gcp1(seed: int = 4, topology: Optional[Topology] = None) -> SpotTrace:
    """GCP 1: 3-day trace, 4 a2-ultragpu-4g, 6 zones across 5 regions.

    A100s are scarce (Fig. 5a: single-zone availability as low as ~30%,
    rising to ~96% over all regions), with short correlated bursts (§2.2:
    34–95% of preemptions followed within 150 s in the same zone).
    """
    topology = topology or default_topology()
    zones = _zone_ids(
        topology,
        [
            "gcp:us-central1",
            "gcp:us-east1",
            "gcp:us-west1",
            "gcp:europe-west4",
            "gcp:asia-east1",
        ],
    )
    assert len(zones) == 6, "GCP 1 expects 6 zones across 5 regions"
    base = [
        (2.0 * HOUR, 3.0 * HOUR),
        (1.5 * HOUR, 3.5 * HOUR),
        (3.0 * HOUR, 2.5 * HOUR),
        (2.5 * HOUR, 2.0 * HOUR),
        (4.0 * HOUR, 2.0 * HOUR),
        (3.5 * HOUR, 2.5 * HOUR),
    ]
    specs = [
        TraceZoneSpec(zone.id, mean_up=up, mean_down=down, capacity_up=4)
        for zone, (up, down) in zip(zones, base)
    ]
    return make_correlated_trace(
        "GCP 1",
        specs,
        duration=3 * DAY,
        step=30.0,
        region_shock_rate=1.0 / (6 * HOUR),
        region_shock_mean_duration=20 * 60.0,
        region_shock_affect_prob=0.9,
        seed=seed,
    )


def cpu_trace(seed: int = 5, topology: Optional[Topology] = None) -> SpotTrace:
    """Spot *CPU* trace (c3-highcpu-176-like) for the Fig. 4 comparison.

    Spot CPUs are far more stable than spot GPUs: §2.3 measures
    95.6–99.9% availability vs 16.7–90.4% for GPUs.
    """
    topology = topology or default_topology()
    zones = topology.zones_in_region("gcp:us-central1")
    specs = [
        TraceZoneSpec(zones[0].id, mean_up=60 * HOUR, mean_down=0.6 * HOUR, capacity_up=8),
        TraceZoneSpec(zones[1].id, mean_up=90 * HOUR, mean_down=0.3 * HOUR, capacity_up=8),
    ]
    return make_correlated_trace(
        "CPU",
        specs,
        duration=2 * WEEK,
        region_shock_rate=0.0,
        seed=seed,
    )
