"""Unit tests for spot traces: format, stats, and calibration against the
paper's measurements (§2.2, §2.3, §5.2)."""

import numpy as np
import pytest

from repro.cloud import (
    DAY,
    HOUR,
    WEEK,
    SpotTrace,
    TraceZoneSpec,
    aws1,
    aws2,
    aws3,
    cpu_trace,
    gcp1,
    make_correlated_trace,
)


def tiny_trace():
    capacity = np.array([[2, 2, 0, 1], [0, 1, 1, 1]])
    return SpotTrace("tiny", ["aws:r1:r1a", "aws:r1:r1b"], 60.0, capacity)


class TestSpotTraceFormat:
    def test_duration(self):
        assert tiny_trace().duration == 240.0

    def test_capacity_at(self):
        trace = tiny_trace()
        assert trace.capacity_at("aws:r1:r1a", 0.0) == 2
        assert trace.capacity_at("aws:r1:r1a", 59.9) == 2
        assert trace.capacity_at("aws:r1:r1a", 120.0) == 0
        # Clamped at the end of the trace.
        assert trace.capacity_at("aws:r1:r1a", 10_000.0) == 1

    def test_unknown_zone_raises(self):
        with pytest.raises(KeyError):
            tiny_trace().zone_row("aws:r1:nope")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            tiny_trace().capacity_at("aws:r1:r1a", -1.0)

    def test_availability(self):
        trace = tiny_trace()
        assert trace.availability("aws:r1:r1a") == pytest.approx(0.75)
        assert trace.availability("aws:r1:r1a", threshold=2) == pytest.approx(0.5)

    def test_pooled_availability(self):
        trace = tiny_trace()
        # Pool has >= 1 capacity in every step.
        assert trace.pooled_availability() == 1.0
        assert trace.pooled_availability(threshold=2) == pytest.approx(0.75)

    def test_region_blackout(self):
        trace = tiny_trace()
        # Both zones are in r1; never simultaneously zero.
        assert trace.region_blackout_fraction("aws:r1") == 0.0

    def test_preemption_indicator(self):
        trace = tiny_trace()
        indicator = trace.preemption_indicator("aws:r1:r1a")
        np.testing.assert_array_equal(indicator, [False, False, True, False])

    def test_subset(self):
        sub = tiny_trace().subset(["aws:r1:r1b"])
        assert sub.zone_ids == ["aws:r1:r1b"]
        assert sub.capacity.shape == (1, 4)

    def test_regions_property(self):
        assert tiny_trace().regions == ["aws:r1"]

    def test_validation_negative_capacity(self):
        with pytest.raises(ValueError):
            SpotTrace("bad", ["z"], 60.0, np.array([[-1]]))

    def test_validation_shape_mismatch(self):
        with pytest.raises(ValueError):
            SpotTrace("bad", ["z1", "z2"], 60.0, np.array([[1, 1]]))

    def test_validation_duplicate_zones(self):
        with pytest.raises(ValueError):
            SpotTrace("bad", ["z", "z"], 60.0, np.ones((2, 2), dtype=int))


class TestSerialisation:
    def test_json_round_trip(self):
        trace = tiny_trace()
        restored = SpotTrace.from_json(trace.to_json())
        assert restored.name == trace.name
        assert restored.zone_ids == trace.zone_ids
        assert restored.step == trace.step
        np.testing.assert_array_equal(restored.capacity, trace.capacity)

    def test_save_load(self, tmp_path):
        path = tmp_path / "trace.json"
        trace = tiny_trace()
        trace.save(path)
        restored = SpotTrace.load(path)
        np.testing.assert_array_equal(restored.capacity, trace.capacity)


class TestGenerator:
    def test_deterministic_for_seed(self):
        spec = [TraceZoneSpec("aws:r:ra", 3 * HOUR, 2 * HOUR, 4)]
        a = make_correlated_trace("t", spec, DAY, seed=5)
        b = make_correlated_trace("t", spec, DAY, seed=5)
        np.testing.assert_array_equal(a.capacity, b.capacity)

    def test_different_seeds_differ(self):
        spec = [TraceZoneSpec("aws:r:ra", 3 * HOUR, 2 * HOUR, 4)]
        a = make_correlated_trace("t", spec, DAY, seed=5)
        b = make_correlated_trace("t", spec, DAY, seed=6)
        assert not np.array_equal(a.capacity, b.capacity)

    def test_stationary_availability_close_to_expected(self):
        # mean_up / (mean_up + mean_down) = 0.75 over a long horizon.
        spec = [TraceZoneSpec("aws:r:ra", 6 * HOUR, 2 * HOUR, 4)]
        trace = make_correlated_trace("t", spec, 8 * WEEK, seed=1)
        assert trace.availability("aws:r:ra") == pytest.approx(0.75, abs=0.08)

    def test_shocks_create_intra_region_correlation(self):
        specs = [
            TraceZoneSpec(f"aws:r:r{c}", 6 * HOUR, 2 * HOUR, 4) for c in "abc"
        ] + [TraceZoneSpec("aws:q:qa", 6 * HOUR, 2 * HOUR, 4)]
        trace = make_correlated_trace(
            "t",
            specs,
            4 * WEEK,
            region_shock_rate=1 / (6 * HOUR),
            region_shock_mean_duration=HOUR,
            seed=2,
        )
        rows = [trace.zone_row(z) > 0 for z in trace.zone_ids]
        intra = np.corrcoef(rows[0], rows[1])[0, 1]
        inter = np.corrcoef(rows[0], rows[3])[0, 1]
        assert intra > inter + 0.1

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            make_correlated_trace("t", [TraceZoneSpec("z", 1.0, 1.0, 1)], 0.0)

    def test_invalid_zone_spec_rejected(self):
        with pytest.raises(ValueError):
            TraceZoneSpec("z", mean_up=0.0, mean_down=1.0, capacity_up=1)
        with pytest.raises(ValueError):
            TraceZoneSpec("z", mean_up=1.0, mean_down=1.0, capacity_up=0)


class TestCannedTraces:
    """Calibration against the statistics the paper reports per dataset."""

    def test_aws1_shape(self):
        trace = aws1()
        assert trace.duration == pytest.approx(2 * WEEK)
        assert len(trace.zone_ids) == 3
        assert len(trace.regions) == 1

    def test_aws2_single_region_blackouts(self):
        # §2.2: 33.1% of time spot GPUs unavailable across all zones of
        # the region in AWS 2.  Accept a generous band around it.
        trace = aws2()
        assert trace.duration == pytest.approx(3 * WEEK)
        blackout = trace.region_blackout_fraction(trace.regions[0])
        assert 0.20 <= blackout <= 0.45

    def test_aws3_shape_and_pooled_availability(self):
        # Fig. 5b: pooled availability over 9 zones / 3 regions ≈ 99.2%.
        trace = aws3()
        assert len(trace.zone_ids) == 9
        assert len(trace.regions) == 3
        assert trace.pooled_availability() >= 0.97

    def test_gcp1_shape(self):
        trace = gcp1()
        assert trace.duration == pytest.approx(3 * DAY)
        assert len(trace.zone_ids) == 6
        assert len(trace.regions) == 5

    def test_gpu_zone_availability_in_paper_band(self):
        # §2.3: spot GPU availability 16.7–90.4%.
        for trace in (aws1(), aws2(), aws3(), gcp1()):
            for zone in trace.zone_ids:
                availability = trace.availability(zone)
                assert 0.10 <= availability <= 0.95, (trace.name, zone, availability)

    def test_cpu_more_available_than_gpu(self):
        # Fig. 4: spot CPUs at 95.6–99.9% vs far lower for GPUs.
        cpu = cpu_trace()
        gpu = aws2()
        worst_cpu = min(cpu.availability(z) for z in cpu.zone_ids)
        best_gpu = max(gpu.availability(z) for z in gpu.zone_ids)
        assert worst_cpu >= 0.95
        assert worst_cpu > best_gpu


class TestDiurnalModulation:
    def test_capacity_dips_at_peak_hour(self):
        specs = [TraceZoneSpec("aws:r:ra", 1000 * HOUR, 1.0, capacity_up=10)]
        trace = make_correlated_trace(
            "diurnal", specs, duration=DAY, diurnal_amplitude=0.5,
            diurnal_peak_hour=14.0, seed=1,
        )
        row = trace.zone_row("aws:r:ra")
        peak_step = int(14 * HOUR / trace.step)
        night_step = int(2 * HOUR / trace.step)
        assert row[peak_step] < row[night_step]
        # 50% squeeze at the peak.
        assert row[peak_step] == 5
        assert row[night_step] == 10

    def test_zero_amplitude_is_identity(self):
        specs = [TraceZoneSpec("aws:r:ra", 6 * HOUR, 2 * HOUR, capacity_up=4)]
        plain = make_correlated_trace("p", specs, duration=DAY, seed=2)
        modulated = make_correlated_trace(
            "m", specs, duration=DAY, diurnal_amplitude=0.0, seed=2
        )
        np.testing.assert_array_equal(plain.capacity, modulated.capacity)

    def test_amplitude_validation(self):
        specs = [TraceZoneSpec("aws:r:ra", 1.0, 1.0, 1)]
        with pytest.raises(ValueError):
            make_correlated_trace("x", specs, duration=DAY, diurnal_amplitude=1.5)

    def test_capacity_never_negative(self):
        specs = [TraceZoneSpec("aws:r:ra", 6 * HOUR, 2 * HOUR, capacity_up=1)]
        trace = make_correlated_trace(
            "d", specs, duration=2 * DAY, diurnal_amplitude=1.0, seed=3
        )
        assert trace.capacity.min() >= 0


class TestDigest:
    """Content digests key the replay result cache — they must track
    every field that changes replay output and nothing else."""

    ZONES = ["aws:r:a", "aws:r:b"]

    def _trace(self, **overrides):
        params = dict(
            name="d", zones=self.ZONES, step=60.0,
            capacity=np.full((2, 30), 3),
        )
        params.update(overrides)
        return SpotTrace(
            params["name"], params["zones"], params["step"], params["capacity"]
        )

    def test_digest_is_sha256_hex(self):
        digest = self._trace().digest()
        assert len(digest) == 64
        assert int(digest, 16) >= 0

    def test_digest_stable_across_calls_and_instances(self):
        trace = self._trace()
        assert trace.digest() == trace.digest()  # memoised path
        assert trace.digest() == self._trace().digest()

    def test_digest_tracks_capacity(self):
        other = np.full((2, 30), 3)
        other[1, 17] = 2
        assert self._trace().digest() != self._trace(capacity=other).digest()

    def test_digest_tracks_metadata(self):
        base = self._trace().digest()
        assert self._trace(name="other").digest() != base
        assert self._trace(step=30.0).digest() != base
        assert (
            self._trace(zones=["aws:r:a", "aws:r:c"]).digest() != base
        )

    def test_digest_independent_of_dtype_and_layout(self):
        """Same capacities in a different dtype or memory order hash
        identically — the digest canonicalises to little-endian int64."""
        cap = np.full((2, 30), 3)
        a = self._trace(capacity=cap.astype(np.int32))
        b = self._trace(capacity=np.asfortranarray(cap))
        assert a.digest() == b.digest() == self._trace().digest()

    def test_canned_traces_have_distinct_digests(self):
        digests = {t().digest() for t in (aws1, gcp1)}
        assert len(digests) == 2
