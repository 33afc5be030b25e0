"""Tests for the parameter-sweep utility."""

import functools

import numpy as np
import pytest

from repro.cloud import SpotTrace
from repro.core import spothedge
from repro.experiments import (
    ReplayConfig,
    TraceReplayer,
    grid_sweep,
    replay_result_to_dict,
)
from repro.telemetry import EventBus, RingBufferSink

ZONES = ["aws:r1:a", "aws:r1:b"]


def _make_trace() -> SpotTrace:
    rng = np.random.default_rng(7)
    return SpotTrace("sweep", ZONES, 60.0, rng.integers(0, 4, size=(2, 90)))


def _replay_point(n_tar, cold_start, seed=0):
    """Module-level so the parallel path can pickle it.  Returns a plain
    dict so SweepPoint results compare with ``==`` across processes."""
    trace = _make_trace()
    replayer = TraceReplayer(
        trace, ReplayConfig(n_tar=n_tar, cold_start=cold_start), seed=seed
    )
    result = replayer.run(spothedge(ZONES))
    return replay_result_to_dict(result, include_series=True)


def _replay_or_boom(n_tar, cold_start, seed=0):
    if n_tar == 3:
        raise RuntimeError(f"boom at n_tar={n_tar}")
    return _replay_point(n_tar, cold_start, seed=seed)


class TestGridSweep:
    def test_full_cartesian_product_in_order(self):
        calls = []

        def run(a, b):
            calls.append((a, b))
            return a * 10 + b

        points = grid_sweep(run, {"a": [1, 2], "b": [3, 4]})
        assert calls == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert [p.result for p in points] == [13, 14, 23, 24]
        assert all(p.ok for p in points)

    def test_labels_are_stable(self):
        points = grid_sweep(lambda x: x, {"x": [1]})
        assert points[0].label() == "x=1"

    def test_errors_isolated_by_default(self):
        def run(x):
            if x == 2:
                raise RuntimeError("boom")
            return x

        points = grid_sweep(run, {"x": [1, 2, 3]})
        assert [p.ok for p in points] == [True, False, True]
        assert "boom" in points[1].error
        assert points[1].result is None

    def test_raise_errors_fails_fast(self):
        def run(x):
            raise ValueError("nope")

        with pytest.raises(ValueError):
            grid_sweep(run, {"x": [1]}, raise_errors=True)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_sweep(lambda: None, {})
        with pytest.raises(ValueError):
            grid_sweep(lambda x: x, {"x": []})

    def test_sweep_over_replay(self):
        """An actual Fig. 14c-style sweep over N_Extra."""
        from repro.cloud import SpotTrace
        from repro.core import spothedge
        from repro.experiments import ReplayConfig, TraceReplayer
        import numpy as np

        zones = ["aws:r:a", "aws:r:b"]
        trace = SpotTrace("s", zones, 60.0, np.full((2, 120), 4))

        def run(n_extra):
            replayer = TraceReplayer(trace, ReplayConfig(n_tar=2))
            return replayer.run(spothedge(zones, num_overprovision=n_extra))

        points = grid_sweep(run, {"n_extra": [0, 1, 2]})
        assert all(p.ok for p in points)
        costs = [p.result.relative_cost for p in points]
        assert costs == sorted(costs)  # more buffer costs more


class TestParallelSweep:
    """workers=N must be indistinguishable from workers=1."""

    GRID = {"n_tar": [2, 3, 4], "cold_start": [0.0, 120.0]}

    def test_parallel_identical_to_serial_on_replay_grid(self):
        run = functools.partial(_replay_point, seed=11)
        serial = grid_sweep(run, self.GRID, workers=1)
        parallel = grid_sweep(run, self.GRID, workers=4)
        assert [p.params for p in serial] == [p.params for p in parallel]
        assert [p.result for p in serial] == [p.result for p in parallel]
        assert [p.error for p in serial] == [p.error for p in parallel]

    def test_parallel_identical_including_raising_point(self):
        serial = grid_sweep(_replay_or_boom, self.GRID, workers=1)
        parallel = grid_sweep(_replay_or_boom, self.GRID, workers=3)
        assert [p.ok for p in serial] == [p.ok for p in parallel]
        assert [p.error for p in serial] == [p.error for p in parallel]
        assert [p.result for p in serial] == [p.result for p in parallel]
        # The two n_tar=3 points failed, everything else succeeded.
        assert [p.ok for p in serial] == [True, True, False, False, True, True]
        assert "boom at n_tar=3" in serial[2].error

    def test_parallel_raise_errors_surfaces_earliest_grid_failure(self):
        with pytest.raises(RuntimeError, match="boom at n_tar=3"):
            grid_sweep(_replay_or_boom, self.GRID, workers=3, raise_errors=True)

    def test_serial_sweep_starts_no_process(self, monkeypatch):
        import repro.experiments.sweep as sweep

        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 started a process pool")

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
        points = grid_sweep(_replay_point, self.GRID, workers=1)
        assert all(p.ok for p in points)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            grid_sweep(lambda x: x, {"x": [1]}, workers=0)
        with pytest.raises(ValueError):
            grid_sweep(lambda x: x, {"x": [1]}, workers=-2)


class TestSweepTelemetry:
    def test_progress_event_per_point_in_order(self):
        sink = RingBufferSink()
        grid_sweep(
            lambda x: x,
            {"x": [1, 2, 3]},
            telemetry=EventBus([sink]),
        )
        events = sink.events
        assert [e.kind for e in events] == ["sweep.point"] * 3
        assert [e.index for e in events] == [0, 1, 2]
        assert [e.total for e in events] == [3, 3, 3]
        assert [e.label for e in events] == ["x=1", "x=2", "x=3"]
        assert all(e.ok for e in events)

    def test_progress_marks_failed_points(self):
        def run(x):
            if x == 2:
                raise ValueError("nope")
            return x

        sink = RingBufferSink()
        grid_sweep(run, {"x": [1, 2]}, telemetry=EventBus([sink]))
        assert [e.ok for e in sink.events] == [True, False]

    def test_parallel_sweep_emits_progress_too(self):
        sink = RingBufferSink()
        grid_sweep(
            _replay_point,
            {"n_tar": [2, 3], "cold_start": [0.0]},
            workers=2,
            telemetry=EventBus([sink]),
        )
        assert [e.index for e in sink.events] == [0, 1]
