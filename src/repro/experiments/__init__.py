"""Experiment harnesses: §5.1 end-to-end serving and §5.2 trace replay."""

from repro.experiments.endtoend import (
    SINGLE_REGION,
    SKYSERVE_REGIONS,
    EndToEndResult,
    e2e_trace,
    run_comparison,
    run_system,
    spot_zone_costs,
    standard_policies,
)
from repro.experiments.hetero import (
    FLEETS,
    frontier_to_json,
    pareto_fleets,
    run_fleet,
    run_frontier,
)
from repro.experiments.replay import (
    ENGINES,
    ReplayConfig,
    ReplayResult,
    TraceReplayer,
    erlang_c_wait,
    estimate_latency,
)
from repro.experiments.results import (
    ResultStore,
    replay_result_to_dict,
    service_report_to_dict,
)
from repro.experiments.sweep import SweepPoint, grid_sweep

__all__ = [
    "ENGINES",
    "EndToEndResult",
    "FLEETS",
    "ReplayConfig",
    "ReplayResult",
    "ResultStore",
    "SINGLE_REGION",
    "SweepPoint",
    "SKYSERVE_REGIONS",
    "TraceReplayer",
    "e2e_trace",
    "erlang_c_wait",
    "estimate_latency",
    "frontier_to_json",
    "pareto_fleets",
    "replay_result_to_dict",
    "run_comparison",
    "run_fleet",
    "run_frontier",
    "run_system",
    "service_report_to_dict",
    "spot_zone_costs",
    "standard_policies",
    "grid_sweep",
]
