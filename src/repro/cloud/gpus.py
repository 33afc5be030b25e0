"""GPU serving profiles and (zone × instance-type) spot pools.

The ROADMAP's "heterogeneous spot GPU fleets" direction (ShuntServe in
PAPERS.md): spot GPU generations differ not just in price but in
per-token serving throughput, batching behaviour, and how aggressively
the provider reclaims them.  This module makes that diversity a
first-class dimension:

* :class:`GpuServingProfile` — per-accelerator serving characteristics
  (decode tokens/s per replica, decode-batch slope, relative preemption
  rate), with a bundled table for the T4/V100/A10G/L4/A100/H100 classes.
* *Pool ids* — ``"{zone_id}@{instance_type}"`` composite ids that let
  every zone-keyed subsystem (``SpotTrace``, ``SimCloud``, the placers,
  the replay loop) operate over (zone, instance-type) pools unchanged.
  ``cloud:region:zone@itype`` still parses as a 3-part zone id, so
  region derivation keeps working.
* :func:`make_hetero_trace` — expands a per-zone capacity trace into
  per-pool capacity streams: each instance type gets its own seeded
  ON/OFF reclaim process (scaled by its preemption rate) gated by the
  base zone's availability, so types in one zone share regional shocks
  but are reclaimed independently — the §2.2 correlation structure at
  pool granularity.
* Cost helpers — per-pool cost-per-effective-throughput, the MIN-COST
  signal that lets SpotHedge co-optimise zone × instance type, plus the
  capacity-weight / price-multiplier mappings the replay layer consumes.

Capacity weights are expressed relative to a *reference* accelerator
(the service spec's accelerator): a weight of 1.0 is exactly one
reference replica, so a homogeneous reference-only fleet reduces
bit-for-bit to the unweighted stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.cloud.catalog import Catalog
from repro.cloud.pricing import PriceBook
from repro.cloud.traces import SpotTrace, _onoff_series
from repro.sim.rng import RngRegistry

__all__ = [
    "GPU_PROFILES",
    "GpuServingProfile",
    "capacity_weight",
    "gpu_profile",
    "is_pool",
    "make_hetero_trace",
    "pool_capacity_weights",
    "pool_id",
    "pool_price_multipliers",
    "pool_spot_costs",
    "pool_zone",
    "split_pool",
]

_POOL_SEP = "@"

_HOUR = 3600.0


@dataclass(frozen=True)
class GpuServingProfile:
    """Serving characteristics of one GPU class.

    ``tokens_per_second`` is the sustained single-request decode rate of
    a full replica (the unit the capacity weights normalise by);
    ``decode_batch_slope`` is the relative per-token slowdown each extra
    batched request adds (continuous batching, see
    ``ModelProfile.decode_batch_slope``); ``preemption_scale`` is the
    reclaim frequency relative to the A10G baseline — high-end GPUs are
    reclaimed more often because on-demand customers take the hardware
    first (§2.2's observation, amplified for scarce generations).
    """

    accelerator: str
    tokens_per_second: float
    decode_batch_slope: float
    preemption_scale: float

    def __post_init__(self) -> None:
        if self.tokens_per_second <= 0:
            raise ValueError(f"{self.accelerator}: non-positive throughput")
        if self.decode_batch_slope < 0:
            raise ValueError(f"{self.accelerator}: negative batch slope")
        if self.preemption_scale <= 0:
            raise ValueError(f"{self.accelerator}: non-positive preemption scale")


#: Per-class profiles, normalised so the paper's A10G experiments keep
#: their timing: an 8×A10G replica decodes ~45 tok/s on Llama-2-70B
#: (≈ 1/0.022 s/token with the repo's default decode timing).
GPU_PROFILES: dict[str, GpuServingProfile] = {
    "T4": GpuServingProfile("T4", tokens_per_second=14.0, decode_batch_slope=0.10, preemption_scale=0.8),
    "V100": GpuServingProfile("V100", tokens_per_second=30.0, decode_batch_slope=0.07, preemption_scale=0.9),
    "A10G": GpuServingProfile("A10G", tokens_per_second=45.0, decode_batch_slope=0.05, preemption_scale=1.0),
    "L4": GpuServingProfile("L4", tokens_per_second=38.0, decode_batch_slope=0.06, preemption_scale=0.9),
    "A100": GpuServingProfile("A100", tokens_per_second=120.0, decode_batch_slope=0.03, preemption_scale=1.6),
    "H100": GpuServingProfile("H100", tokens_per_second=260.0, decode_batch_slope=0.02, preemption_scale=2.2),
}


def gpu_profile(accelerator: str) -> GpuServingProfile:
    profile = GPU_PROFILES.get(accelerator)
    if profile is None:
        raise KeyError(
            f"no GPU serving profile for {accelerator!r} "
            f"(known: {sorted(GPU_PROFILES)})"
        )
    return profile


def capacity_weight(accelerator: str, reference: str = "A10G") -> float:
    """Serving capacity of one replica, in reference-replica units.

    Exactly 1.0 when ``accelerator == reference`` (no float division is
    performed), so homogeneous fleets stay on the integer fast paths.
    """
    if accelerator == reference:
        return 1.0
    return gpu_profile(accelerator).tokens_per_second / gpu_profile(reference).tokens_per_second


# ----------------------------------------------------------------------
# Pool ids: "{zone_id}@{instance_type}"
# ----------------------------------------------------------------------


def pool_id(zone_id: str, instance_type: str) -> str:
    """Composite id for the (zone, instance-type) spot pool."""
    if _POOL_SEP in zone_id:
        raise ValueError(f"zone id {zone_id!r} already carries an instance type")
    if not instance_type:
        raise ValueError("empty instance type")
    return f"{zone_id}{_POOL_SEP}{instance_type}"


def split_pool(pool: str) -> tuple[str, Optional[str]]:
    """``(zone_id, instance_type)``; instance type is ``None`` for plain
    zone ids, so callers can treat both uniformly."""
    zone, sep, itype = pool.partition(_POOL_SEP)
    return (zone, itype if sep else None)


def pool_zone(pool: str) -> str:
    return split_pool(pool)[0]


def is_pool(zone_or_pool: str) -> bool:
    return _POOL_SEP in zone_or_pool


# ----------------------------------------------------------------------
# Cost signals and replay mappings
# ----------------------------------------------------------------------


def pool_spot_costs(
    pools: Sequence[str],
    price_book: PriceBook,
    *,
    reference: str = "A10G",
) -> dict[str, float]:
    """Per-pool cost-per-effective-throughput, the co-optimised MIN-COST
    signal: spot $/h of the pool's instance type in the pool's zone,
    divided by the type's capacity weight.  A pricey H100 pool can still
    rank first when its weight is high enough — this is exactly the
    trade the frontier ablation measures."""
    costs: dict[str, float] = {}
    for pool in pools:
        zone, itype_name = split_pool(pool)
        if itype_name is None:
            raise ValueError(f"{pool!r} is not a (zone, instance-type) pool id")
        itype = price_book.catalog.get(itype_name)
        if itype.accelerator is None:
            raise ValueError(f"{itype_name!r} carries no accelerator")
        price = price_book.spot_hourly(zone, itype_name)
        costs[pool] = price / capacity_weight(itype.accelerator, reference)
    return costs


def pool_capacity_weights(
    pools: Sequence[str],
    catalog: Catalog,
    *,
    reference: str = "A10G",
) -> dict[str, float]:
    """Per-pool capacity weights (reference-replica units) for the
    replay layer's weighted readiness accounting."""
    weights: dict[str, float] = {}
    for pool in pools:
        _zone, itype_name = split_pool(pool)
        if itype_name is None:
            weights[pool] = 1.0
            continue
        itype = catalog.get(itype_name)
        if itype.accelerator is None:
            raise ValueError(f"{itype_name!r} carries no accelerator")
        weights[pool] = capacity_weight(itype.accelerator, reference)
    return weights


def pool_price_multipliers(
    pools: Sequence[str],
    price_book: PriceBook,
    *,
    reference_price: float,
) -> dict[str, float]:
    """Per-pool spot price in units of ``reference_price`` — the
    ``ReplayConfig.zone_price_multipliers`` mapping that makes replay
    cost accrual price each pool at its own rate."""
    if reference_price <= 0:
        raise ValueError("non-positive reference price")
    multipliers: dict[str, float] = {}
    for pool in pools:
        zone, itype_name = split_pool(pool)
        if itype_name is None:
            raise ValueError(f"{pool!r} is not a (zone, instance-type) pool id")
        multipliers[pool] = price_book.spot_hourly(zone, itype_name) / reference_price
    return multipliers


# ----------------------------------------------------------------------
# Per-(zone, instance-type) capacity streams
# ----------------------------------------------------------------------


def make_hetero_trace(
    base: SpotTrace,
    instance_types: Sequence[str],
    catalog: Catalog,
    *,
    seed: int = 0,
    type_mean_up: float = 8.0 * _HOUR,
    type_mean_down: float = 1.0 * _HOUR,
    name: Optional[str] = None,
) -> SpotTrace:
    """Expand a per-zone trace into per-(zone, instance-type) pools.

    For every base zone and every instance type whose cloud offers it,
    a pool row ``zone@itype`` is emitted: the base zone's capacity row
    (the regional availability signal — shocks, blackouts, diurnal
    squeeze) gated by a per-pool ON/OFF reclaim process whose mean up
    time is ``type_mean_up / preemption_scale`` for the type's GPU
    class.  Scarce generations (A100/H100) therefore flicker more even
    inside an available zone, matching the per-type reclaim-rate spread
    the heterogeneous profiles model.

    Pool rows are deterministic per (seed, pool id): every pool draws
    from its own ``RngRegistry`` stream, so adding or removing types
    never perturbs the other pools' series.
    """
    if not instance_types:
        raise ValueError("no instance types")
    if type_mean_up <= 0 or type_mean_down <= 0:
        raise ValueError("non-positive type ON/OFF means")
    registry = RngRegistry(seed)
    pool_ids: list[str] = []
    rows: list[np.ndarray] = []
    for zone_id in base.zone_ids:
        cloud = zone_id.split(":")[0]
        zone_row = base.zone_row(zone_id)
        for itype_name in instance_types:
            itype = catalog.get(itype_name)
            if itype.cloud != cloud:
                continue
            if itype.accelerator is None:
                raise ValueError(f"{itype_name!r} carries no accelerator")
            pid = pool_id(zone_id, itype_name)
            scale = gpu_profile(itype.accelerator).preemption_scale
            rng = registry.stream(f"pool:{pid}")
            on = _onoff_series(
                base.n_steps,
                base.step,
                type_mean_up / scale,
                type_mean_down,
                rng,
            )
            rows.append(np.where(on, zone_row, 0))
            pool_ids.append(pid)
    if not rows:
        raise ValueError(
            f"none of {list(instance_types)!r} is offered by the clouds in "
            f"trace {base.name!r}"
        )
    return SpotTrace(
        name or f"{base.name}-hetero",
        pool_ids,
        base.step,
        np.stack(rows),
    )
