"""Unit tests for the §5.2 trace-replay harness."""

import math

import numpy as np
import pytest

from repro.cloud import HOUR, SpotTrace
from repro.core import OnDemandOnlyPolicy, even_spread_policy, round_robin_policy, spothedge
from repro.experiments import (
    ENGINES,
    ReplayConfig,
    ReplayResult,
    TraceReplayer,
    erlang_c_wait,
    estimate_latency,
)
from repro.workloads import poisson_workload

Z1, Z2, Z3 = "aws:r1:r1a", "aws:r1:r1b", "aws:r2:r2a"


def trace_with(rows, step=60.0, name="replay-test"):
    return SpotTrace(name, [Z1, Z2, Z3], step, np.asarray(rows))


def full(steps=100, cap=4):
    return [[cap] * steps] * 3


class TestReplayer:
    def test_spothedge_all_spot_when_available(self):
        replayer = TraceReplayer(trace_with(full()), ReplayConfig(n_tar=2, cold_start=60.0))
        result = replayer.run(spothedge([Z1, Z2, Z3], num_overprovision=1))
        assert result.availability > 0.9
        # Once spot is up, no on-demand cost accrues beyond the warmup.
        assert result.od_cost < 0.2 * result.spot_cost

    def test_ondemand_only_reference_cost_is_one(self):
        replayer = TraceReplayer(trace_with(full()), ReplayConfig(n_tar=2, cold_start=0.0))
        result = replayer.run(OnDemandOnlyPolicy([Z1]))
        assert result.relative_cost == pytest.approx(1.0)
        assert result.availability == 1.0

    def test_blackout_forces_fallback(self):
        rows = [[4] * 50 + [0] * 50] * 3
        replayer = TraceReplayer(trace_with(rows), ReplayConfig(n_tar=2, cold_start=60.0))
        result = replayer.run(spothedge([Z1, Z2, Z3]))
        # Available through the blackout thanks to Dynamic Fallback.
        assert result.availability > 0.9
        assert result.od_cost > 0

    def test_pure_spot_policy_dies_in_blackout(self):
        rows = [[4] * 50 + [0] * 50] * 3
        replayer = TraceReplayer(trace_with(rows), ReplayConfig(n_tar=2, cold_start=60.0))
        result = replayer.run(round_robin_policy([Z1, Z2, Z3]))
        assert result.availability < 0.6

    def test_preemptions_counted(self):
        rows = [[4] * 50 + [0] * 50] * 3
        replayer = TraceReplayer(trace_with(rows), ReplayConfig(n_tar=2))
        result = replayer.run(even_spread_policy([Z1, Z2, Z3]))
        assert result.preemptions >= 2

    def test_cold_start_delays_readiness(self):
        replayer = TraceReplayer(
            trace_with(full()), ReplayConfig(n_tar=2, cold_start=300.0)
        )
        result = replayer.run(spothedge([Z1, Z2, Z3]))
        # The first 5 steps (300 s) cannot have ready replicas.
        assert result.ready_series[:5].max() == 0

    def test_deterministic(self):
        rows = [[2] * 30 + [1] * 70] * 3
        results = []
        for _ in range(2):
            replayer = TraceReplayer(trace_with(rows), ReplayConfig(n_tar=2), seed=5)
            results.append(replayer.run(spothedge([Z1, Z2, Z3])))
        np.testing.assert_array_equal(results[0].ready_series, results[1].ready_series)
        assert results[0].relative_cost == results[1].relative_cost

    @pytest.mark.parametrize("engine", ENGINES)
    def test_selection_outside_spot_zones_is_a_value_error(self, engine):
        replayer = TraceReplayer(trace_with(full()), ReplayConfig(n_tar=2), engine=engine)
        policy = round_robin_policy(["aws:r9:r9a"])
        with pytest.raises(ValueError) as excinfo:
            replayer.run(policy, spot_zones=[Z1, Z2])
        message = str(excinfo.value)
        assert repr(policy.name) in message
        assert "'aws:r9:r9a'" in message
        assert repr([Z1, Z2]) in message

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(n_tar=0)
        with pytest.raises(ValueError):
            ReplayConfig(k=0.0)
        with pytest.raises(ValueError):
            ReplayConfig(cold_start=-1.0)


class TestErlangC:
    def test_no_load_no_wait(self):
        assert erlang_c_wait(0.0, 8.0, 4) == 0.0

    def test_no_servers_infinite(self):
        assert math.isinf(erlang_c_wait(1.0, 8.0, 0))

    def test_unstable_infinite(self):
        assert math.isinf(erlang_c_wait(2.0, 8.0, 4))  # rho = 4

    def test_wait_grows_with_load(self):
        light = erlang_c_wait(0.1, 8.0, 4)
        heavy = erlang_c_wait(0.45, 8.0, 4)
        assert heavy > light

    def test_more_servers_less_wait(self):
        few = erlang_c_wait(0.4, 8.0, 4)
        many = erlang_c_wait(0.4, 8.0, 16)
        assert many < few

    def test_single_server_matches_mm1(self):
        # M/M/1: W_q = rho / (mu - lambda).
        lam, service = 0.05, 10.0
        rho = lam * service
        expected = rho / (1 / service - lam)
        assert erlang_c_wait(lam, service, 1) == pytest.approx(expected, rel=1e-6)


class TestLatencyEstimate:
    def make_result(self, ready, step=60.0):
        return ReplayResult(
            policy="p",
            trace="t",
            n_tar=2,
            availability=1.0,
            relative_cost=0.5,
            spot_cost=1.0,
            od_cost=0.0,
            preemptions=0,
            launch_failures=0,
            ready_series=np.asarray(ready),
            step=step,
        )

    def test_healthy_service_latency_near_service_time(self):
        result = self.make_result([4] * 60)
        workload = poisson_workload(HOUR, rate=0.1, seed=1)
        latencies = estimate_latency(result, workload, service_time=8.0, timeout=100.0)
        assert np.median(latencies) == pytest.approx(8.0, rel=0.2)

    def test_downtime_hits_timeout(self):
        result = self.make_result([0] * 60)
        workload = poisson_workload(HOUR, rate=0.1, seed=2)
        latencies = estimate_latency(result, workload, service_time=8.0, timeout=100.0)
        assert (latencies == 100.0).all()

    def test_short_outage_adds_wait(self):
        ready = [4] * 20 + [0] * 2 + [4] * 38
        result = self.make_result(ready)
        workload = poisson_workload(HOUR, rate=0.2, seed=3)
        latencies = estimate_latency(result, workload, service_time=8.0, timeout=300.0)
        assert latencies.max() > 60.0  # someone waited out the outage
        assert np.median(latencies) < 20.0

    def test_fewer_replicas_higher_latency(self):
        workload = poisson_workload(HOUR, rate=1.0, seed=4)
        lat_many = estimate_latency(
            self.make_result([8] * 60), workload, service_time=8.0
        )
        lat_few = estimate_latency(
            self.make_result([2] * 60), workload, service_time=8.0
        )
        assert lat_few.mean() >= lat_many.mean()

    def test_validation(self):
        result = self.make_result([1])
        workload = poisson_workload(100.0, rate=0.1, seed=5)
        with pytest.raises(ValueError):
            estimate_latency(result, workload, service_time=0.0)


class TestCapacityWeights:
    """Effective-capacity tracking for heterogeneous (zone × type) pools."""

    def test_weighted_hybrid_matches_discrete(self):
        # Non-unit weights (one zone left at the default 1.0) over a
        # trace with a blackout and a partial dip: the hybrid engine
        # carries the weights and reproduces the oracle's effective
        # series byte for byte.
        rows = [[4] * 30 + [0] * 20 + [4] * 50, [4] * 60 + [1] * 40, [4] * 100]
        config = ReplayConfig(
            n_tar=3, cold_start=120.0, zone_capacity_weights={Z1: 2.5, Z2: 0.75}
        )
        results = [
            TraceReplayer(trace_with(rows), config, seed=2, engine=engine).run(
                spothedge([Z1, Z2, Z3])
            )
            for engine in ("discrete", "hybrid")
        ]
        ref, got = results
        assert got.eff_ready_series.tobytes() == ref.eff_ready_series.tobytes()
        assert got.eff_availability == ref.eff_availability
        assert got.spot_cost == ref.spot_cost
        assert got.launch_failures == ref.launch_failures
        np.testing.assert_array_equal(got.ready_series, ref.ready_series)

    def test_eff_fields_none_without_weights(self):
        replayer = TraceReplayer(trace_with(full()), ReplayConfig(n_tar=2))
        result = replayer.run(spothedge([Z1, Z2, Z3]))
        assert result.eff_ready_series is None
        assert result.eff_availability is None

    def test_eff_series_scales_spot_by_zone_weight(self):
        # Pure-spot policy, zero cold start, every zone weighted 2.0:
        # effective capacity is exactly twice the ready count.
        config = ReplayConfig(
            n_tar=2,
            cold_start=0.0,
            zone_capacity_weights={Z1: 2.0, Z2: 2.0, Z3: 2.0},
        )
        replayer = TraceReplayer(trace_with(full()), config)
        result = replayer.run(even_spread_policy([Z1, Z2, Z3]))
        assert result.eff_ready_series is not None
        assert np.array_equal(
            result.eff_ready_series, 2.0 * result.ready_series.astype(float)
        )
        assert result.eff_availability == 1.0

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            ReplayConfig(n_tar=2, zone_capacity_weights={Z1: 0.0})
