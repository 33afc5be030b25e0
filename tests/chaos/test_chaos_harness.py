"""run_matrix / ChaosScorecard: determinism, cache keying, and the
paper-facing sanity ordering under the bundled preemption storm."""

import numpy as np
import pytest

from repro.chaos import (
    BASELINE,
    CapacityBlackout,
    PreemptionStorm,
    ScenarioSpec,
    builtin_scenario,
    compile_scenario,
    run_matrix,
)
from repro.cloud import SpotTrace, gcp1
from repro.core import spothedge
from repro.experiments import ReplayCache, ReplayConfig, TraceReplayer

STEP = 300.0


def bursty_trace(n_zones=4, n_steps=120, seed=3):
    """Constant-capacity base; the chaos scenario supplies the faults."""
    zones = [f"aws:r{z}:z{z}" for z in range(n_zones)]
    capacity = np.full((n_zones, n_steps), 3, dtype=np.int64)
    # A little pre-existing churn so the baseline is not trivially 100%.
    rng = np.random.default_rng(seed)
    for z in range(n_zones):
        for _ in range(2):
            start = int(rng.integers(0, n_steps - 10))
            capacity[z, start : start + 5] = 0
    return SpotTrace("bursty", zones, STEP, capacity)


def blackout_scenario():
    return ScenarioSpec(
        "blackout",
        (CapacityBlackout(start=STEP * 30, end=STEP * 60),),
        description="all zones dark for 2.5h",
    )


class TestValidation:
    def test_rejects_bad_inputs(self):
        trace = bursty_trace()
        scenario = blackout_scenario()
        with pytest.raises(ValueError, match="no scenarios"):
            run_matrix(trace, [], ["SpotHedge"])
        with pytest.raises(ValueError, match="duplicate"):
            run_matrix(trace, [scenario, scenario], ["SpotHedge"])
        with pytest.raises(ValueError, match="reserved"):
            run_matrix(
                trace,
                [ScenarioSpec(BASELINE, scenario.injections)],
                ["SpotHedge"],
            )
        with pytest.raises(ValueError, match="no policies"):
            run_matrix(trace, [scenario], [])
        with pytest.raises(ValueError, match="unknown serving policy 'Madeup'"):
            run_matrix(trace, [scenario], ["SpotHedge", "Madeup"])


class TestDeterminism:
    def test_scorecard_json_byte_identical(self):
        trace = bursty_trace()
        scenarios = [blackout_scenario()]

        def once():
            return run_matrix(
                trace,
                scenarios,
                ["SpotHedge", "EvenSpread"],
                config=ReplayConfig(n_tar=3),
                seed=5,
                use_cache=False,
            ).to_json()

        assert once() == once()

    def test_workers_do_not_change_output(self):
        trace = bursty_trace()
        kwargs = dict(
            config=ReplayConfig(n_tar=3), seed=5, use_cache=False
        )
        serial = run_matrix(
            trace, [blackout_scenario()], ["SpotHedge"], **kwargs
        )
        parallel = run_matrix(
            trace, [blackout_scenario()], ["SpotHedge"], workers=2, **kwargs
        )
        assert serial.to_json() == parallel.to_json()

    def test_seed_changes_output(self):
        trace = bursty_trace()
        storm = ScenarioSpec(
            "storm",
            (
                PreemptionStorm(
                    start=0.0, end=STEP * 120, hit_prob=0.5, correlation=0.5,
                    pulse=STEP * 4,
                ),
            ),
        )
        a = run_matrix(trace, [storm], ["SpotHedge"], seed=1, use_cache=False)
        b = run_matrix(trace, [storm], ["SpotHedge"], seed=2, use_cache=False)
        assert a.to_json() != b.to_json()


class TestScorecardShape:
    def test_cells_and_baselines(self):
        trace = bursty_trace()
        scorecard = run_matrix(
            trace,
            [blackout_scenario()],
            ["SpotHedge", "OnDemand"],
            config=ReplayConfig(n_tar=3),
            use_cache=False,
        )
        assert scorecard.trace == "bursty"
        assert scorecard.trace_digest == trace.digest()
        assert set(scorecard.baselines) == {"SpotHedge", "OnDemand"}
        for entry in scorecard.baselines.values():
            assert set(entry) == {"availability", "relative_cost"}
        cell = scorecard.cell("blackout", "SpotHedge")
        assert 0.0 <= cell["availability"] <= 1.0
        assert cell["availability_under_injection"] is not None
        assert cell["cost_overshoot"] == pytest.approx(
            cell["relative_cost"] - cell["baseline_relative_cost"]
        )
        with pytest.raises(KeyError):
            scorecard.cell("blackout", "RoundRobin")
        with pytest.raises(KeyError):
            scorecard.cell(BASELINE, "SpotHedge")
        # On-demand never loses capacity: the blackout is invisible.
        od = scorecard.cell("blackout", "OnDemand")
        assert od["availability_under_injection"] == 1.0
        # Only the initial cold-start ramp counts against it.
        assert od["slo_violation_minutes"] <= STEP / 60.0

    def test_scorecard_save_round_trip(self, tmp_path):
        scorecard = run_matrix(
            bursty_trace(),
            [blackout_scenario()],
            ["SpotHedge"],
            use_cache=False,
        )
        path = tmp_path / "card.json"
        scorecard.save(path)
        assert path.read_text() == scorecard.to_json() + "\n"


class TestCacheKeying:
    def test_chaos_and_baseline_cells_key_separately(self, tmp_path, monkeypatch):
        """S2: the scenario digest folds into the replay-cache key, so a
        chaos run and a fault-free run of the same (trace, policy,
        config, seed) occupy distinct entries."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ReplayCache()
        assert len(cache) == 0
        trace = bursty_trace()
        first = run_matrix(trace, [blackout_scenario()], ["SpotHedge"])
        # 2 cells (baseline + blackout) -> 2 distinct entries.
        assert len(cache) == 2
        # Re-running is pure cache hits: no new entries, same bytes.
        again = run_matrix(trace, [blackout_scenario()], ["SpotHedge"])
        assert len(cache) == 2
        assert again.to_json() == first.to_json()
        # A different scenario adds exactly one entry (baseline reused).
        other = ScenarioSpec(
            "blackout-2", (CapacityBlackout(start=0.0, end=STEP * 10),)
        )
        run_matrix(trace, [other], ["SpotHedge"])
        assert len(cache) == 3


class TestPaperSanity:
    """Acceptance: on the bundled preemption-storm, SpotHedge holds
    availability above EvenSpread and its on-demand fallback rises
    during the storm then decays after it."""

    def test_spothedge_beats_evenspread_under_storm(self):
        scorecard = run_matrix(
            gcp1(),
            [builtin_scenario("preemption-storm")],
            ["SpotHedge", "EvenSpread"],
            seed=0,
            use_cache=False,
        )
        hedged = scorecard.cell("preemption-storm", "SpotHedge")
        spread = scorecard.cell("preemption-storm", "EvenSpread")
        assert hedged["availability"] >= spread["availability"]
        assert (
            hedged["availability_under_injection"]
            >= spread["availability_under_injection"]
        )
        assert hedged["slo_violation_minutes"] <= spread["slo_violation_minutes"]

    def test_od_fallback_rises_then_decays(self):
        trace = gcp1()
        scenario = builtin_scenario("preemption-storm")
        compiled = compile_scenario(scenario, trace, root_seed=0)
        replayer = TraceReplayer(compiled.trace, ReplayConfig(), seed=0)
        result = replayer.run(spothedge(trace.zone_ids))
        od = result.od_series
        assert od is not None
        step = result.step
        storm_start, storm_end = scenario.windows()[0]
        start_idx = int(storm_start // step)
        end_idx = int(storm_end // step)
        # Quiet before the storm (past the initial cold-start ramp)...
        assert int(od[start_idx - 30 : start_idx].max()) == 0
        # ... rises while spot capacity is being shredded ...
        storm_peak = int(od[start_idx:end_idx].max())
        assert storm_peak > 0
        # ... and decays back to zero within the hour after it ends.
        assert int(od[end_idx : end_idx + 120].min()) == 0
