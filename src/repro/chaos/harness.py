"""Robustness harness: a policy × scenario matrix with a scorecard.

``repro chaos run`` (and :func:`run_matrix` programmatically) replays
every requested policy against every requested scenario — plus one
fault-free baseline run per policy — and condenses the outcomes into a
:class:`ChaosScorecard`:

* ``availability`` / ``availability_under_injection`` — overall and
  restricted to steps covered by an injection window (how the policy
  held up *during* the storm);
* ``recovery_seconds`` — time from the end of the last injection window
  until the fleet is back at ≥ N_Tar ready replicas (``None`` if it
  never recovers within the trace);
* ``slo_violation_minutes`` — total minutes below N_Tar ready;
* ``cost_overshoot`` — relative cost minus the same policy's fault-free
  baseline relative cost (what the chaos *added* to the bill);
* ``od_peak`` — the largest on-demand fleet the policy fell back to.

The matrix fans out through :func:`~repro.experiments.sweep.grid_sweep`
(process-pool parallel, deterministic ordering), and every cell is
replayed afresh.  Every point uses the *same* seed, so all policies
face the identical storm realisation, mirroring the paper's concurrent
baseline deployments.  The scorecard JSON is canonical (sorted keys and
rows, plain Python scalars): the same matrix twice produces
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.chaos.overlay import compile_scenario
from repro.chaos.spec import ScenarioSpec
from repro.cloud.traces import SpotTrace
from repro.experiments.replay import ReplayConfig, ReplayResult, TraceReplayer
from repro.experiments.sweep import grid_sweep
from repro.serving.registry import POLICIES
from repro.telemetry.events import EventBus

__all__ = [
    "BASELINE",
    "ChaosScorecard",
    "run_matrix",
    "score_run",
]

#: Reserved scenario name for the fault-free reference runs.
BASELINE = "baseline"


def _matrix_point(
    trace: SpotTrace,
    scenarios: Mapping[str, ScenarioSpec],
    config: ReplayConfig,
    seed: int,
    *,
    scenario: str,
    policy: str,
) -> ReplayResult:
    """One matrix cell.  Module-level (fixed arguments bound via
    ``functools.partial``) so parallel matrices can pickle it.

    ``seed`` is bound, not grid-derived: baseline and chaos cells of a
    policy share it, and so do all policies of a scenario — the storm
    realisation and replay draws are identical across the comparison.
    """
    cold_start = None
    prices = None
    effective = trace
    if scenario != BASELINE:
        compiled = compile_scenario(scenarios[scenario], trace, root_seed=seed)
        effective = compiled.trace
        cold_start = compiled.cold_start_factors
        prices = compiled.price_factors
    replayer = TraceReplayer(
        effective,
        config,
        seed=seed,
        cold_start_factors=cold_start,
        zone_price_factors=prices,
    )
    return replayer.run(POLICIES.get(policy)(effective.zone_ids))


#: Buckets in the scorecard's downsampled metric series.
_TIMELINE_BUCKETS = 32


def _downsample(series: np.ndarray, buckets: int = _TIMELINE_BUCKETS) -> list[float]:
    """Bucket means of a per-step series, as rounded plain floats.

    Deterministic and canonical-JSON-safe; series shorter than
    ``buckets`` pass through unchanged.
    """
    n = len(series)
    if n == 0:
        return []
    values = np.asarray(series, dtype=float)
    if n <= buckets:
        return [float(round(v, 4)) for v in values]
    edges = np.linspace(0, n, buckets + 1).astype(int)
    return [
        float(round(float(values[a:b].mean()), 4))
        for a, b in zip(edges[:-1], edges[1:])
        if b > a
    ]


def score_run(
    scenario: ScenarioSpec,
    result: ReplayResult,
    baseline: Optional[ReplayResult],
    config: ReplayConfig,
) -> dict[str, Any]:
    """Scorecard metrics for one chaos replay (plain Python scalars)."""
    step = result.step
    ready = result.ready_series
    n = len(ready)
    n_tar = config.n_tar

    mask = np.zeros(n, dtype=bool)
    for start, end in scenario.windows():
        first = max(int(start // step), 0)
        last = min(int(np.ceil(end / step)), n)
        if last > first:
            mask[first:last] = True
    under = float((ready[mask] >= n_tar).mean()) if mask.any() else None

    start_idx = min(int(np.ceil(scenario.last_end / step)), n)
    recovered = np.nonzero(ready[start_idx:] >= n_tar)[0]
    recovery = (
        float((start_idx + int(recovered[0])) * step - scenario.last_end)
        if recovered.size
        else None
    )

    od_peak = None
    if result.od_series is not None and len(result.od_series):
        od_peak = int(result.od_series.max())

    score: dict[str, Any] = {
        "availability": float(result.availability),
        "availability_under_injection": under,
        "recovery_seconds": recovery,
        "slo_violation_minutes": float((ready < n_tar).sum()) * step / 60.0,
        "preemptions": int(result.preemptions),
        "launch_failures": int(result.launch_failures),
        "relative_cost": float(result.relative_cost),
        "od_peak": od_peak,
        # Downsampled metric series (bucket means over the trace) so
        # scorecards carry the availability/fallback *shape*, not just
        # end-of-run scalars — the Fig. 7/10 timeline view per cell.
        "ready_timeline": _downsample(ready),
        "od_timeline": (
            _downsample(result.od_series)
            if result.od_series is not None
            else None
        ),
    }
    if baseline is not None:
        score["baseline_relative_cost"] = float(baseline.relative_cost)
        score["cost_overshoot"] = float(
            result.relative_cost - baseline.relative_cost
        )
    return score


@dataclass(frozen=True)
class ChaosScorecard:
    """Deterministic summary of one policy × scenario matrix."""

    trace: str
    trace_digest: str
    seed: int
    n_tar: int
    policies: tuple[str, ...]
    scenarios: tuple[str, ...]
    #: Fault-free reference metrics per policy.
    baselines: dict[str, dict[str, float]]
    #: One row per (scenario, policy) cell.
    scores: tuple[dict[str, Any], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace": self.trace,
            "trace_digest": self.trace_digest,
            "seed": self.seed,
            "n_tar": self.n_tar,
            "policies": list(self.policies),
            "scenarios": list(self.scenarios),
            "baselines": {k: dict(v) for k, v in sorted(self.baselines.items())},
            "scores": sorted(
                (dict(s) for s in self.scores),
                key=lambda s: (s["scenario"], s["policy"]),
            ),
        }

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical inputs."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def cell(self, scenario: str, policy: str) -> dict[str, Any]:
        for score in self.scores:
            if score["scenario"] == scenario and score["policy"] == policy:
                return score
        raise KeyError(f"no cell ({scenario!r}, {policy!r}) in scorecard")


def run_matrix(
    trace: SpotTrace,
    scenarios: Sequence[ScenarioSpec],
    policies: Sequence[str] = ("SpotHedge", "EvenSpread"),
    *,
    config: Optional[ReplayConfig] = None,
    seed: int = 0,
    workers: int = 1,
    telemetry: Optional[EventBus] = None,
) -> ChaosScorecard:
    """Replay every policy × (baseline + scenarios) cell and score it.

    ``telemetry`` receives the usual per-point
    :class:`~repro.telemetry.events.SweepProgress` events.  Replay
    errors propagate (a broken matrix must not produce a scorecard).
    """
    config = config or ReplayConfig()
    names = [s.name for s in scenarios]
    if not names:
        raise ValueError("no scenarios to run")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names in {names}")
    if BASELINE in names:
        raise ValueError(f"scenario name {BASELINE!r} is reserved")
    if not policies:
        raise ValueError("no policies to run")
    for policy in policies:
        POLICIES.validate(policy)
    by_name = {s.name: s for s in scenarios}
    grid: dict[str, Sequence[Any]] = {
        "scenario": [BASELINE] + names,
        "policy": list(policies),
    }
    points = grid_sweep(
        partial(_matrix_point, trace, by_name, config, seed),
        grid,
        raise_errors=True,
        workers=workers,
        telemetry=telemetry,
    )
    results: dict[tuple[str, str], ReplayResult] = {
        (p.params["scenario"], p.params["policy"]): p.result for p in points
    }
    baselines = {
        policy: {
            "availability": float(results[(BASELINE, policy)].availability),
            "relative_cost": float(results[(BASELINE, policy)].relative_cost),
        }
        for policy in policies
    }
    scores = []
    for name in names:
        for policy in policies:
            entry: dict[str, Any] = {"scenario": name, "policy": policy}
            entry.update(
                score_run(
                    by_name[name],
                    results[(name, policy)],
                    results[(BASELINE, policy)],
                    config,
                )
            )
            scores.append(entry)
    return ChaosScorecard(
        trace=trace.name,
        trace_digest=trace.digest(),
        seed=seed,
        n_tar=config.n_tar,
        policies=tuple(policies),
        scenarios=tuple(names),
        baselines=baselines,
        scores=tuple(scores),
    )
