"""Homogeneous-vs-heterogeneous fleet frontier (ablation).

The heterogeneous-fleet question is a frontier, not a single number:
a homogeneous A10G fleet is cheap but capacity-poor, an H100 fleet is
capacity-rich but pricey and heavily reclaimed, and the mixed fleet
lets SpotHedge's MIN-COST walk pick whichever (zone, instance-type)
pool currently offers the best cost-per-effective-throughput.  This
module replays the *same* base capacity trace under several fleet
compositions and reports each fleet's (effective availability,
relative cost) point, so the homogeneous points trace the frontier the
mixed fleet should dominate.

Every fleet is scored in a common currency: capacity weights and
prices are expressed relative to the reference instance type
(``g5.48xlarge``, the paper's 8×A10G serving shape), ``k`` is the
reference type's on-demand/spot ratio, and ``relative_cost`` is
therefore cost versus holding ``n_tar`` reference on-demand replicas —
directly comparable across fleets.

Results are plain :class:`~repro.experiments.replay.ReplayResult`\\ s
produced by the default (hybrid) replay engine with
``zone_capacity_weights``/``zone_price_multipliers`` set, swept with
:func:`~repro.experiments.sweep.grid_sweep`, and serialised by
:func:`frontier_to_json` with sorted keys — byte-identical across
processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import functools
import json
from typing import Optional, Sequence

from repro.cloud.catalog import hetero_catalog
from repro.cloud.gpus import (
    pool_capacity_weights,
    pool_price_multipliers,
    pool_spot_costs,
    make_hetero_trace,
)
from repro.cloud.pricing import PriceBook
from repro.cloud.traces import aws1
from repro.core.fleet import hetero_spothedge
from repro.experiments.replay import ReplayConfig, ReplayResult, TraceReplayer
from repro.experiments.results import replay_result_to_dict
from repro.experiments.sweep import SweepPoint, grid_sweep

__all__ = [
    "FLEETS",
    "REFERENCE_ACCELERATOR",
    "REFERENCE_TYPE",
    "frontier_to_json",
    "pareto_fleets",
    "run_fleet",
    "run_frontier",
]

#: The common-currency instance type: the paper's Llama-2-70B serving
#: shape (8×A10G).  Capacity weight 1.0 and price multiplier 1.0 by
#: construction.
REFERENCE_TYPE = "g5.48xlarge"
REFERENCE_ACCELERATOR = "A10G"

#: Fleet compositions, in frontier order: four homogeneous single-type
#: fleets spanning the GPU generations, then the mixed fleet SpotHedge
#: co-optimises over.  All types are AWS shapes so every fleet sees the
#: same base zones of the AWS 1 trace.
FLEETS: dict[str, tuple[str, ...]] = {
    "A10G": ("g5.48xlarge",),
    "L4": ("g6.48xlarge",),
    "A100": ("p4d.24xlarge",),
    "H100": ("p5.48xlarge",),
    "mixed": ("g5.48xlarge", "g6.48xlarge", "p4d.24xlarge", "p5.48xlarge"),
}


def run_fleet(
    fleet: str = "mixed",
    *,
    n_tar: int = 4,
    seed: int = 0,
    duration: Optional[float] = None,
) -> ReplayResult:
    """Replay one fleet composition over the AWS 1 base trace.

    The base trace is expanded into per-(zone, instance-type) pools
    (:func:`~repro.cloud.gpus.make_hetero_trace`, gating seeded by
    ``seed``), SpotHedge is built with the co-optimised
    cost-per-effective-throughput signal, and the replay runs on the
    default engine with capacity weights and per-pool prices in
    reference units.  ``duration`` (seconds) optionally windows the
    base trace from its start — the CI smoke uses a few hours.
    """
    try:
        instance_types = FLEETS[fleet]
    except KeyError:
        raise ValueError(f"unknown fleet {fleet!r}: expected one of {list(FLEETS)}")
    catalog = hetero_catalog()
    base = aws1()
    if duration is not None and duration < base.duration:
        base = base.window(0.0, duration, name=f"{base.name} [{duration / 3600:g}h]")
    trace = make_hetero_trace(
        base, instance_types, catalog, seed=seed, name=f"{base.name}-{fleet}"
    )
    book = PriceBook(catalog)
    pools = list(trace.zone_ids)
    reference = catalog.get(REFERENCE_TYPE)
    config = ReplayConfig(
        n_tar=n_tar,
        k=reference.on_demand_hourly / reference.spot_hourly,
        zone_price_multipliers=pool_price_multipliers(
            pools, book, reference_price=reference.spot_hourly
        ),
        zone_capacity_weights=pool_capacity_weights(
            pools, catalog, reference=REFERENCE_ACCELERATOR
        ),
    )
    policy = hetero_spothedge(
        pools,
        pool_costs=pool_spot_costs(pools, book, reference=REFERENCE_ACCELERATOR),
        pool_weights=config.zone_capacity_weights,
        name=f"SpotHedge-{fleet}",
    )
    return TraceReplayer(trace, config, seed=seed).run(policy)


def run_frontier(
    fleets: Optional[Sequence[str]] = None,
    *,
    n_tar: int = 4,
    seed: int = 0,
    duration: Optional[float] = None,
    workers: int = 1,
) -> list[SweepPoint]:
    """Sweep :func:`run_fleet` over the fleet compositions.

    One :class:`~repro.experiments.sweep.SweepPoint` per fleet, in the
    declared fleet order; parallel workers preserve the serial output
    exactly (``grid_sweep``'s contract).
    """
    names = list(fleets) if fleets is not None else list(FLEETS)
    for name in names:
        if name not in FLEETS:
            raise ValueError(f"unknown fleet {name!r}: expected one of {list(FLEETS)}")
    run = functools.partial(run_fleet, n_tar=n_tar, seed=seed, duration=duration)
    return grid_sweep(run, {"fleet": names}, workers=workers)


def pareto_fleets(points: Sequence[SweepPoint]) -> list[str]:
    """Fleets on the (effective availability, cost) Pareto frontier.

    A fleet is dominated when another fleet has availability at least
    as high *and* cost at least as low, with one strictly better.
    Returned in the input's fleet order (deterministic).
    """
    scored = [
        (p.params["fleet"], p.result.eff_availability, p.result.relative_cost)
        for p in points
        if p.ok and p.result.eff_availability is not None
    ]
    front: list[str] = []
    for name, avail, cost in scored:
        dominated = any(
            (o_avail >= avail and o_cost <= cost)
            and (o_avail > avail or o_cost < cost)
            for o_name, o_avail, o_cost in scored
            if o_name != name
        )
        if not dominated:
            front.append(name)
    return front


def frontier_to_json(
    points: Sequence[SweepPoint],
    *,
    n_tar: int = 4,
    seed: int = 0,
) -> str:
    """Serialise a frontier sweep to byte-stable JSON.

    Keys are sorted at every level and the float values are produced by
    a deterministic replay, so the output is byte-identical across
    processes and ``PYTHONHASHSEED`` values (the CI smoke diffs two
    independent runs).
    """
    fleets: dict[str, object] = {}
    for point in points:
        name = point.params["fleet"]
        if not point.ok:
            fleets[name] = {"error": point.error}
            continue
        record = replay_result_to_dict(point.result)
        record["instance_types"] = list(FLEETS[name])
        fleets[name] = record
    payload = {
        "experiment": "hetero-frontier",
        "reference": {
            "instance_type": REFERENCE_TYPE,
            "accelerator": REFERENCE_ACCELERATOR,
        },
        "n_tar": n_tar,
        "seed": seed,
        "fleets": fleets,
        "pareto": pareto_fleets(points),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
