"""Parameter sweeps over experiment configurations.

The sensitivity studies (Fig. 14c/d) and ablations are sweeps: run the
same experiment across a grid of parameter values and collect one
record per point.  :func:`grid_sweep` is that loop with deterministic
ordering, error isolation, and tidy records ready for a
:class:`~repro.experiments.results.ResultStore`.

Grid points are independent experiments, so the sweep parallelises
trivially: ``workers=N`` fans points out over a
``concurrent.futures.ProcessPoolExecutor`` while preserving the exact
serial semantics — point order and error capture are independent of
``N`` (see the module tests, which assert ``workers=4`` output equals
``workers=1`` byte for byte).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.telemetry.clock import wall_monotonic
from repro.telemetry.events import NULL_BUS, EventBus, SweepProgress

__all__ = ["SweepPoint", "grid_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the parameters used and the outcome (or error)."""

    params: dict[str, Any]
    result: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def label(self) -> str:
        """Stable human-readable key, e.g. ``n_extra=2,cold_start=180``."""
        return ",".join(f"{k}={v}" for k, v in self.params.items())


def _expand_grid(grid: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """All parameter combinations, in deterministic grid order."""
    if not grid:
        raise ValueError("empty parameter grid")
    for name, values in grid.items():
        if len(values) == 0:
            raise ValueError(f"parameter {name!r} has no values")
    names = list(grid)
    return [dict(zip(names, combo)) for combo in itertools.product(*grid.values())]


def _run_point(
    run: Callable[..., Any], params: dict[str, Any], capture_errors: bool
) -> tuple[Any, Optional[str]]:
    """Execute one grid point; must stay module-level (pickled to
    worker processes)."""
    try:
        return run(**params), None
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        if not capture_errors:
            raise
        return None, f"{type(exc).__name__}: {exc}"


def grid_sweep(
    run: Callable[..., Any],
    grid: Mapping[str, Sequence[Any]],
    *,
    raise_errors: bool = False,
    workers: int = 1,
    telemetry: Optional[EventBus] = None,
) -> list[SweepPoint]:
    """Run ``run(**params)`` for every combination in ``grid``.

    Combinations are enumerated in the deterministic order of
    ``itertools.product`` over the grid's insertion order.  By default a
    failing point is captured in its :class:`SweepPoint` (``error`` set,
    ``result`` None) instead of aborting the sweep; set
    ``raise_errors=True`` to fail fast.

    ``workers > 1`` runs points on a process pool.  Results, ordering
    and errors are identical to the serial sweep for any ``N``
    (``workers=1`` never spawns a process and runs every point
    in-process); ``run``, its parameters, and its results must be
    picklable on the parallel path.  With ``raise_errors=True`` the
    exception surfaced is the one from the earliest failing point in
    grid order, as in serial mode.

    ``telemetry`` receives one
    :class:`~repro.telemetry.events.SweepProgress` event per completed
    point, in point order, timestamped with wall-clock
    :func:`repro.telemetry.clock.wall_monotonic` (progress is an
    observability concern; simulated code never reads real time).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    bus = telemetry if telemetry is not None else NULL_BUS
    combos = _expand_grid(grid)
    total = len(combos)
    points: list[SweepPoint] = []
    capture = not raise_errors
    pool = ProcessPoolExecutor(min(workers, total)) if workers > 1 else nullcontext()
    with pool as executor:
        if executor is None:
            outcomes = (_run_point(run, p, capture) for p in combos)
        else:
            # Collect in submission order: output order (and, with
            # raise_errors, which failure surfaces) never depends on
            # completion order.
            futures = [executor.submit(_run_point, run, p, capture) for p in combos]
            outcomes = (future.result() for future in futures)
        for index, (params, (result, error)) in enumerate(zip(combos, outcomes)):
            point = SweepPoint(params=params, result=result, error=error)
            points.append(point)
            if bus.enabled:
                bus.emit(
                    SweepProgress(
                        wall_monotonic(), index, total, point.label(), point.ok
                    )
                )
    return points
