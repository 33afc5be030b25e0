"""Heterogeneous accelerators: tier fallback (§6) + fleet mixing.

Both extensions beyond the paper's homogeneous experiments run one
policy, hetero_spothedge: SpotHedge over "zone@itype" pools, each
weighted by its serving capacity in reference-GPU units and ranked by
spot cost per unit (docs/HETEROGENEOUS.md).

1. **Tier fallback** — when the spot market for the preferred GPU
   (A100) dries up, the A100 pools fail and Alg. 1 launches on the
   next-cheapest pools per unit (V100), so on-demand fallback covers
   less of the goal; launches return to A100 once an A100 pool serves
   again.
2. **Capacity-weighted fleets** — the same policy co-optimises zone ×
   instance type, targeting N_Tar *effective* A10G units at minimum
   cost per unit.

Run:  python examples/heterogeneous_gpus.py
"""

from collections import Counter

import numpy as np

from repro.cloud import (
    HOUR,
    PriceBook,
    SpotTrace,
    hetero_catalog,
    pool_capacity_weights,
    pool_id,
    pool_price_multipliers,
    pool_spot_costs,
    split_pool,
)
from repro.core import hetero_spothedge, spothedge
from repro.experiments import ReplayConfig, TraceReplayer
from repro.telemetry import EventBus, RingBufferSink

A100_TYPE = "a2-ultragpu-4g"  # 4xA100 on GCP
V100_TYPE = "p3.8xlarge"  # 4xV100 on AWS
A100_POOLS = [
    pool_id(zone, A100_TYPE)
    for zone in ("gcp:us-central1:us-central1-a", "gcp:us-east1:us-east1-b")
]
V100_POOLS = [
    pool_id(zone, V100_TYPE)
    for zone in ("aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b")
]
STEP = 60.0
N = 12 * 60  # twelve hours


def build_trace() -> SpotTrace:
    """A100 pools black out from hour 3 to hour 8; V100 pools stay up."""
    a100 = np.full((2, N), 4)
    a100[:, 180:480] = 0
    v100 = np.full((2, N), 4)
    return SpotTrace(
        "hetero-demo",
        A100_POOLS + V100_POOLS,
        STEP,
        np.vstack([a100, v100]),
    )


def main() -> None:
    trace = build_trace()
    catalog = hetero_catalog()
    book = PriceBook(catalog)
    ref = catalog.get(A100_TYPE)
    pools = trace.zone_ids
    # Capacity in A100 units (a V100 replica is a quarter of one) and
    # spot prices in units of the A100 pool's price, so both rows are
    # costed on the same scale.
    weights = pool_capacity_weights(pools, catalog, reference="A100")
    config = ReplayConfig(
        n_tar=4,  # A100 units, not replica counts
        k=ref.on_demand_hourly / ref.spot_hourly,
        zone_price_multipliers=pool_price_multipliers(
            pools, book, reference_price=ref.spot_hourly
        ),
        zone_capacity_weights=weights,
    )

    # Plain SpotHedge restricted to the A100 pools: the blackout forces
    # it entirely onto on-demand fallback.
    plain = TraceReplayer(trace, config).run(
        spothedge(A100_POOLS, num_overprovision=1), spot_zones=A100_POOLS
    )

    # Tier fallback: every pool, A100 ranked first because it is the
    # cheapest per A100 unit.
    tiers = hetero_spothedge(
        pools,
        pool_costs=pool_spot_costs(pools, book, reference="A100"),
        pool_weights=weights,
        num_overprovision=1,
    )
    sink = RingBufferSink()
    mixed = TraceReplayer(trace, config, telemetry=EventBus([sink])).run(tiers)

    print(f"{'policy':<22} {'eff. availability':>17} {'spot cost':>10} "
          f"{'od cost':>9} {'total':>7}")
    print("-" * 69)
    for label, result in (("SpotHedge (A100 only)", plain),
                          ("Heterogeneous tiers", mixed)):
        print(f"{label:<22} {result.eff_availability:>17.1%} "
              f"{result.spot_cost:>10.1f} {result.od_cost:>9.1f} "
              f"{result.spot_cost + result.od_cost:>7.1f}")

    print("\nCosts are in A100-spot replica-hour units.  Spot launches of the")
    print("tier policy, by GPU type (a V100 replica is a quarter A100 unit):")
    for label, start, end in (("hours 0-3", 0, 3),
                              ("hours 3-8, A100 blackout", 3, 8),
                              ("hours 8-12", 8, 12)):
        launches = Counter(
            split_pool(event.zone)[1]
            for event in sink.events
            if event.kind == "replica.launch" and event.spot
            and start * HOUR <= event.time < end * HOUR
        )
        print(f"  {label:<26} A100 {launches[A100_TYPE]:>2}   "
              f"V100 {launches[V100_TYPE]:>2}")
    print("The V100 pools hold four replicas each, so on-demand fallback")
    print("still covers the rest of the goal during the blackout.")

    fleet_mix_demo()


def fleet_mix_demo() -> None:
    """The co-optimised fleet: SpotHedge over (zone x type) pools."""
    from repro.cloud import aws1, make_hetero_trace

    catalog = hetero_catalog()
    types = ["g5.48xlarge", "p4d.24xlarge"]  # 8xA10G and 8xA100 shapes
    trace = make_hetero_trace(
        aws1().window(0, 24 * HOUR), types, catalog, seed=0
    )
    book = PriceBook(catalog)
    ref = catalog.get("g5.48xlarge")
    pools = trace.zone_ids

    config = ReplayConfig(
        n_tar=4,  # effective A10G units, not replica counts
        k=ref.on_demand_hourly / ref.spot_hourly,
        zone_price_multipliers=pool_price_multipliers(
            pools, book, reference_price=ref.spot_hourly
        ),
        zone_capacity_weights=pool_capacity_weights(pools, catalog),
    )
    policy = hetero_spothedge(
        pools,
        pool_costs=pool_spot_costs(pools, book),
        pool_weights=config.zone_capacity_weights,
    )
    result = TraceReplayer(trace, config).run(policy)

    print("\nCapacity-weighted A10G+A100 fleet over one aws1 day:")
    print(f"  effective availability: {result.eff_availability:.1%} "
          f"(>= {config.n_tar} A10G-units ready)")
    print(f"  cost vs {config.n_tar} on-demand reference replicas: "
          f"{result.relative_cost:.1%}")
    print("  (one A100 replica counts as ~2.7 A10G units, so the fleet")
    print("   covers the goal with fewer, cheaper-per-unit instances;")
    print("   the full frontier: `repro hetero frontier`)")


if __name__ == "__main__":
    main()
