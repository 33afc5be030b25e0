"""Scenario compilation: ScenarioSpec × SpotTrace → concrete faults.

:func:`compile_scenario` resolves a declarative
:class:`~repro.chaos.spec.ScenarioSpec` against a concrete
:class:`~repro.cloud.traces.SpotTrace`, producing a
:class:`CompiledScenario`:

* a **transformed trace** with the scenario's capacity effects
  (preemption storms, blackouts) applied on the trace grid;
* **per-step overlay rows** for effects the grid cannot express:
  cold-start multipliers and per-zone price multipliers, consumed by
  :class:`~repro.experiments.replay.TraceReplayer`;
* the **runtime injections** (warning disruption, network degradation)
  that only exist in the live simulation, consumed by
  :class:`~repro.chaos.injector.ChaosInjector`;
* an **injection log** of concrete fault records for telemetry.

Determinism: every stochastic injection draws from its own generator
seeded ``derive_seed(root_seed, "chaos:<scenario>:<index>:<kind>")``,
and each storm pulse consumes a fixed number of draws regardless of the
outcome, so faults are a pure function of (scenario, trace, root_seed)
and adding an injection never perturbs the draws of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.chaos.spec import (
    CapacityBlackout,
    ColdStartSpike,
    Injection,
    NetworkDegradation,
    PreemptionStorm,
    PriceSurge,
    ScenarioSpec,
    WarningDisruption,
)
from repro.cloud.traces import SpotTrace
from repro.sim.rng import derive_seed

__all__ = ["CompiledScenario", "InjectionRecord", "compile_scenario"]


@dataclass(frozen=True)
class InjectionRecord:
    """One concrete fault: an injection (or storm pulse) that fired."""

    time: float
    kind: str
    zones: tuple[str, ...]
    detail: str = ""


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario resolved against one trace and one seed."""

    scenario: ScenarioSpec
    #: The base trace with capacity effects applied; replay/simulate
    #: this instead of the pristine trace.
    trace: SpotTrace
    #: Per-step cold-start multipliers (product of active spikes), or
    #: ``None`` when the scenario has no :class:`ColdStartSpike`.
    cold_start_factors: Optional[tuple[float, ...]]
    #: Per-zone per-step spot price multipliers, or ``None`` when the
    #: scenario has no :class:`PriceSurge`.
    price_factors: Optional[dict[str, tuple[float, ...]]]
    #: Concrete faults, in time order (ties in declaration order).
    injections_log: tuple[InjectionRecord, ...]

    @property
    def last_end(self) -> float:
        """End of the latest injection window (recovery measurement
        starts here)."""
        return self.scenario.last_end

    # Runtime-only injections, applied by the live injector.
    @property
    def warning_disruptions(self) -> list[WarningDisruption]:
        return [
            i
            for i in self.scenario.injections
            if isinstance(i, WarningDisruption)
        ]

    @property
    def network_degradations(self) -> list[NetworkDegradation]:
        return [
            i
            for i in self.scenario.injections
            if isinstance(i, NetworkDegradation)
        ]

    @property
    def cold_start_spikes(self) -> list[ColdStartSpike]:
        return [
            i for i in self.scenario.injections if isinstance(i, ColdStartSpike)
        ]

    @property
    def price_surges(self) -> list[PriceSurge]:
        return [i for i in self.scenario.injections if isinstance(i, PriceSurge)]


def _resolve_zones(injection: Injection, zones: tuple[str, ...], trace: SpotTrace) -> list[str]:
    """Injection zone list with () meaning "every trace zone"."""
    if not zones:
        return list(trace.zone_ids)
    unknown = sorted(set(zones) - set(trace.zone_ids))
    if unknown:
        raise ValueError(
            f"{injection.kind}: zones {unknown} not in trace {trace.name!r}"
        )
    return list(zones)


def _grid_slice(trace: SpotTrace, start: float, end: float) -> slice:
    """Trace-grid slice covered by ``[start, end)``, clipped to the
    trace; may be empty for windows past the trace end."""
    first = max(int(start // trace.step), 0)
    last = min(int(np.ceil(end / trace.step)), trace.n_steps)
    return slice(first, max(last, first))


def compile_scenario(
    scenario: ScenarioSpec,
    trace: SpotTrace,
    *,
    root_seed: int = 0,
) -> CompiledScenario:
    """Resolve ``scenario`` against ``trace`` into concrete faults.

    Capacity effects compose in declaration order on the grid; delay and
    price factors multiply where windows overlap.  Injection windows
    reaching past the trace end are clipped (a scenario is portable
    across traces of different lengths).
    """
    capacity = trace.capacity.copy()
    n_steps = trace.n_steps
    cold_start: Optional[np.ndarray] = None
    prices: dict[str, np.ndarray] = {}
    log: list[InjectionRecord] = []

    for index, injection in enumerate(scenario.injections):
        label = f"chaos:{scenario.name}:{index}:{injection.kind}"
        if isinstance(injection, PreemptionStorm):
            zone_list = _resolve_zones(injection, injection.zones, trace)
            rows = [trace.zone_ids.index(z) for z in zone_list]
            rng = np.random.default_rng(derive_seed(root_seed, label))
            keep = 1.0 - injection.severity
            t = injection.start
            while t < injection.end:  # repro: fixed-draws: pulse outcomes must never shift the draws of later pulses
                pulse_end = min(t + injection.pulse, injection.end)
                # Systemic/common/per-zone uniforms are always consumed
                # (the fixed-draws contract above, enforced by
                # ``repro lint --deep``).
                systemic = rng.random() < injection.correlation
                common_hit = rng.random() < injection.hit_prob
                zone_u = rng.random(len(rows))
                if systemic:
                    hits = [common_hit] * len(rows)
                else:
                    hits = [u < injection.hit_prob for u in zone_u]
                sl = _grid_slice(trace, t, pulse_end)
                hit_zones = []
                if sl.stop > sl.start:
                    for row, zone, hit in zip(rows, zone_list, hits):
                        if not hit:
                            continue
                        capacity[row, sl] = np.floor(
                            capacity[row, sl] * keep
                        ).astype(np.int64)
                        hit_zones.append(zone)
                if hit_zones:
                    log.append(
                        InjectionRecord(
                            time=t,
                            kind=injection.kind,
                            zones=tuple(hit_zones),
                            detail=(
                                f"pulse {'systemic' if systemic else 'independent'}"
                                f" severity={injection.severity:g}"
                            ),
                        )
                    )
                t += injection.pulse
        elif isinstance(injection, CapacityBlackout):
            zone_list = _resolve_zones(injection, injection.zones, trace)
            sl = _grid_slice(trace, injection.start, injection.end)
            if sl.stop > sl.start:
                for zone in zone_list:
                    row = trace.zone_ids.index(zone)
                    capacity[row, sl] = np.minimum(
                        capacity[row, sl], injection.residual_capacity
                    )
                log.append(
                    InjectionRecord(
                        time=injection.start,
                        kind=injection.kind,
                        zones=tuple(zone_list),
                        detail=f"residual={injection.residual_capacity}",
                    )
                )
        elif isinstance(injection, ColdStartSpike):
            sl = _grid_slice(trace, injection.start, injection.end)
            if sl.stop > sl.start:
                if cold_start is None:
                    cold_start = np.ones(n_steps)
                cold_start[sl] *= injection.factor
                log.append(
                    InjectionRecord(
                        time=injection.start,
                        kind=injection.kind,
                        zones=(),
                        detail=f"factor={injection.factor:g}",
                    )
                )
        elif isinstance(injection, PriceSurge):
            zone_list = _resolve_zones(injection, injection.zones, trace)
            sl = _grid_slice(trace, injection.start, injection.end)
            if sl.stop > sl.start:
                for zone in zone_list:
                    row = prices.get(zone)
                    if row is None:
                        row = np.ones(n_steps)
                        prices[zone] = row
                    row[sl] *= injection.multiplier
                log.append(
                    InjectionRecord(
                        time=injection.start,
                        kind=injection.kind,
                        zones=tuple(zone_list),
                        detail=f"multiplier={injection.multiplier:g}",
                    )
                )
        elif isinstance(injection, WarningDisruption):
            log.append(
                InjectionRecord(
                    time=injection.start,
                    kind=injection.kind,
                    zones=(),
                    detail=(
                        f"suppress_prob={injection.suppress_prob:g}"
                        f" extra_delay={injection.extra_delay:g}"
                    ),
                )
            )
        elif isinstance(injection, NetworkDegradation):
            log.append(
                InjectionRecord(
                    time=injection.start,
                    kind=injection.kind,
                    zones=tuple(injection.regions),
                    detail=f"extra_rtt={injection.extra_rtt:g}",
                )
            )
        else:  # pragma: no cover - registry and compiler must stay in sync
            raise TypeError(f"no compiler for injection {injection!r}")

    chaos_trace = SpotTrace(trace.name, trace.zone_ids, trace.step, capacity)
    log.sort(key=lambda record: record.time)
    return CompiledScenario(
        scenario=scenario,
        trace=chaos_trace,
        cold_start_factors=(
            tuple(float(f) for f in cold_start) if cold_start is not None else None
        ),
        price_factors=(
            {z: tuple(float(f) for f in row) for z, row in prices.items()}
            if prices
            else None
        ),
        injections_log=tuple(log),
    )
