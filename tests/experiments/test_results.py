"""Tests for experiment result serialisation."""

import json

import pytest

from repro.cloud import HOUR, aws1
from repro.core import spothedge
from repro.experiments import (
    ReplayConfig,
    ResultStore,
    TraceReplayer,
    replay_result_to_dict,
    service_report_to_dict,
)
from repro.serving import (
    DomainFilter,
    ReplicaPolicyConfig,
    ResourceSpec,
    ServiceSpec,
    SkyService,
)
from repro.workloads import poisson_workload


@pytest.fixture(scope="module")
def sample_report():
    trace = aws1()
    spec = ServiceSpec(
        replica_policy=ReplicaPolicyConfig(fixed_target=2),
        resources=ResourceSpec(
            accelerator="V100",
            any_of=(DomainFilter(cloud="aws", region="us-west-2"),),
        ),
        request_timeout=60.0,
    )
    service = SkyService(spec, spothedge(trace.zone_ids), trace, seed=2)
    return service.run(poisson_workload(HOUR, rate=0.1, seed=2), HOUR)


@pytest.fixture(scope="module")
def sample_replay():
    trace = aws1()
    return TraceReplayer(trace, ReplayConfig(n_tar=2)).run(spothedge(trace.zone_ids))


class TestFlattening:
    def test_service_report_dict_is_json_serialisable(self, sample_report):
        data = service_report_to_dict(sample_report)
        text = json.dumps(data)
        restored = json.loads(text)
        assert restored["system"] == "SpotHedge"
        assert restored["latency"]["p50"] > 0
        assert restored["total_cost"] == pytest.approx(sample_report.total_cost)

    def test_ttft_included(self, sample_report):
        data = service_report_to_dict(sample_report)
        assert data["ttft"] is None or data["ttft"]["p50"] > 0

    def test_replay_result_dict(self, sample_replay):
        data = replay_result_to_dict(sample_replay)
        assert data["policy"] == "SpotHedge"
        assert "ready_series" not in data
        json.dumps(data)  # must serialise

    def test_replay_series_opt_in(self, sample_replay):
        data = replay_result_to_dict(sample_replay, include_series=True)
        assert len(data["ready_series"]) == len(sample_replay.ready_series)


class TestResultStore:
    def test_round_trip(self, tmp_path, sample_report, sample_replay):
        store = ResultStore(metadata={"seed": 2, "paper": "SkyServe"})
        store.add("fig9", "SkyServe", sample_report)
        store.add("fig14a", "SpotHedge/AWS1", sample_replay)
        store.add("notes", "scenario", {"name": "available"})
        path = tmp_path / "results.json"
        store.save(path)

        restored = ResultStore.load(path)
        assert restored.metadata["paper"] == "SkyServe"
        assert set(restored.experiments()) == {"fig9", "fig14a", "notes"}
        assert restored.get("fig9", "SkyServe")["system"] == "SpotHedge"
        assert restored.get("notes", "scenario") == {"name": "available"}

    def test_duplicate_label_rejected(self, sample_report):
        store = ResultStore()
        store.add("fig9", "SkyServe", sample_report)
        with pytest.raises(ValueError):
            store.add("fig9", "SkyServe", sample_report)

    def test_same_label_different_experiments_ok(self, sample_report):
        store = ResultStore()
        store.add("fig9a", "SkyServe", sample_report)
        store.add("fig9b", "SkyServe", sample_report)
        assert len(store.experiments()) == 2


class TestEffectiveCapacityFields:
    """Round-tripping the heterogeneous (capacity-weighted) fields."""

    def test_eff_fields_round_trip(self):
        import numpy as np

        trace = aws1()
        config = ReplayConfig(
            n_tar=2,
            zone_capacity_weights={z: 2.0 for z in trace.zone_ids},
        )
        result = TraceReplayer(trace, config).run(spothedge(trace.zone_ids))
        assert result.eff_availability is not None
        data = json.loads(
            json.dumps(replay_result_to_dict(result, include_series=True))
        )
        assert data["eff_availability"] == result.eff_availability
        np.testing.assert_array_equal(
            data["eff_ready_series"], result.eff_ready_series
        )

    def test_eff_fields_omitted_when_untracked(self, sample_replay):
        data = replay_result_to_dict(sample_replay, include_series=True)
        assert "eff_availability" not in data
        assert "eff_ready_series" not in data
