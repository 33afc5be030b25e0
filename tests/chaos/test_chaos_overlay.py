"""Scenario compilation: capacity overlays, factor rows, determinism,
and the correlation calibration against ``repro.analysis``."""

import numpy as np
import pytest

from repro.analysis import preemption_correlation
from repro.chaos import (
    CapacityBlackout,
    ColdStartSpike,
    PreemptionStorm,
    PriceSurge,
    ScenarioSpec,
    builtin_scenario,
    compile_scenario,
)
from repro.cloud import SpotTrace

STEP = 300.0


def constant_trace(n_zones=4, n_steps=72, cap=5, regions=1):
    """Calm constant-capacity trace; zone ids follow cloud:region:zone."""
    zones = [
        f"aws:r{z % regions}:z{z}" for z in range(n_zones)
    ]
    capacity = np.full((n_zones, n_steps), cap, dtype=np.int64)
    return SpotTrace("calm", zones, STEP, capacity)


class TestCompile:
    def test_deterministic_per_seed(self):
        trace = constant_trace()
        scenario = builtin_scenario("preemption-storm")
        a = compile_scenario(scenario, trace, root_seed=11)
        b = compile_scenario(scenario, trace, root_seed=11)
        assert (a.trace.capacity == b.trace.capacity).all()
        assert a.injections_log == b.injections_log
        other = compile_scenario(scenario, trace, root_seed=12)
        assert not (a.trace.capacity == other.trace.capacity).all()

    def test_blackout_clamps_capacity(self):
        trace = constant_trace()
        scenario = ScenarioSpec(
            "b", (CapacityBlackout(start=STEP * 10, end=STEP * 20, residual_capacity=1),)
        )
        compiled = compile_scenario(scenario, trace)
        assert (compiled.trace.capacity[:, 10:20] == 1).all()
        assert (compiled.trace.capacity[:, :10] == 5).all()
        assert (compiled.trace.capacity[:, 20:] == 5).all()
        assert len(compiled.injections_log) == 1
        assert compiled.injections_log[0].detail == "residual=1"

    def test_storm_full_severity_zeroes_hit_zones(self):
        trace = constant_trace()
        scenario = ScenarioSpec(
            "s",
            (
                PreemptionStorm(
                    start=0.0, end=STEP * 72, hit_prob=1.0, correlation=0.0,
                    severity=1.0, pulse=STEP,
                ),
            ),
        )
        compiled = compile_scenario(scenario, trace, root_seed=1)
        assert (compiled.trace.capacity == 0).all()
        # hit_prob=1.0 fires every pulse in every zone.
        assert len(compiled.injections_log) == 72

    def test_zone_scoping_and_unknown_zone(self):
        trace = constant_trace()
        scoped = ScenarioSpec(
            "z",
            (
                CapacityBlackout(
                    start=0.0, end=STEP * 5, zones=(trace.zone_ids[0],)
                ),
            ),
        )
        compiled = compile_scenario(scoped, trace)
        assert (compiled.trace.capacity[0, :5] == 0).all()
        assert (compiled.trace.capacity[1:, :5] == 5).all()
        bad = ScenarioSpec(
            "bad", (CapacityBlackout(start=0.0, end=STEP, zones=("nope",)),)
        )
        with pytest.raises(ValueError, match="not in trace"):
            compile_scenario(bad, trace)

    def test_windows_past_trace_end_are_clipped(self):
        trace = constant_trace(n_steps=10)
        scenario = ScenarioSpec(
            "late",
            (
                CapacityBlackout(start=STEP * 100, end=STEP * 200),
                ColdStartSpike(start=STEP * 100, end=STEP * 200, factor=3.0),
            ),
        )
        compiled = compile_scenario(scenario, trace)
        assert (compiled.trace.capacity == 5).all()
        assert compiled.injections_log == ()
        assert compiled.cold_start_factors is None

    def test_cold_start_factors_compose_multiplicatively(self):
        trace = constant_trace(n_steps=20)
        scenario = ScenarioSpec(
            "cs",
            (
                ColdStartSpike(start=0.0, end=STEP * 10, factor=2.0),
                ColdStartSpike(start=STEP * 5, end=STEP * 15, factor=3.0),
            ),
        )
        compiled = compile_scenario(scenario, trace)
        factors = compiled.cold_start_factors
        assert factors is not None and len(factors) == 20
        assert factors[0] == 2.0
        assert factors[7] == 6.0  # overlap multiplies
        assert factors[12] == 3.0
        assert factors[17] == 1.0

    def test_price_factors_rows(self):
        trace = constant_trace(n_zones=2, n_steps=10)
        scenario = ScenarioSpec(
            "p",
            (
                PriceSurge(
                    start=STEP * 2, end=STEP * 6, zones=(trace.zone_ids[1],),
                    multiplier=4.0,
                ),
            ),
        )
        compiled = compile_scenario(scenario, trace)
        assert compiled.price_factors is not None
        assert list(compiled.price_factors) == [trace.zone_ids[1]]
        row = compiled.price_factors[trace.zone_ids[1]]
        assert row[1] == 1.0 and row[2] == 4.0 and row[5] == 4.0 and row[6] == 1.0

    def test_log_sorted_by_time(self):
        compiled = compile_scenario(
            builtin_scenario("kitchen-sink"), constant_trace(n_steps=72)
        )
        times = [r.time for r in compiled.injections_log]
        assert times == sorted(times)


class TestCorrelationCalibration:
    """The storm's ``correlation`` knob is calibrated against the Fig. 3
    measurement: compiled preemption indicators must show the dialled-in
    intra-region correlation."""

    @staticmethod
    def storm_trace(rho, seed=0):
        trace = constant_trace(n_zones=6, n_steps=400, cap=8, regions=1)
        scenario = ScenarioSpec(
            "cal",
            (
                PreemptionStorm(
                    start=0.0, end=STEP * 400, hit_prob=0.3, correlation=rho,
                    severity=1.0, pulse=STEP,
                ),
            ),
        )
        return compile_scenario(scenario, trace, root_seed=seed).trace

    def test_high_correlation_measured(self):
        matrix = preemption_correlation(self.storm_trace(0.8), window_steps=1)
        assert matrix.mean_intra_region() == pytest.approx(0.8, abs=0.15)

    def test_zero_correlation_measured(self):
        matrix = preemption_correlation(self.storm_trace(0.0), window_steps=1)
        assert abs(matrix.mean_intra_region()) < 0.15

    def test_monotone_in_rho(self):
        measured = [
            preemption_correlation(self.storm_trace(rho), window_steps=1)
            .mean_intra_region()
            for rho in (0.0, 0.5, 0.9)
        ]
        assert measured[0] < measured[1] < measured[2]
