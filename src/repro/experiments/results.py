"""Result serialisation — raw experiment data as JSON.

The paper's artifact ships raw measurement data plus plotting scripts;
this module is the equivalent export path: every report type serialises
to plain dictionaries and a :class:`ResultStore` collects them into one
JSON document per experiment, so external tooling (notebooks, plotting
scripts) can regenerate figures without re-running simulations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.experiments.replay import ReplayResult
from repro.serving.service import ServiceReport
from repro.sim.metrics import LatencySummary

__all__ = [
    "ResultStore",
    "replay_result_to_dict",
    "service_report_to_dict",
]


def _summary_to_dict(summary: Optional[LatencySummary]) -> Optional[dict[str, float]]:
    if not summary:  # None or a NaN-safe empty summary (count == 0)
        return None
    return {
        "count": summary.count,
        "mean": summary.mean,
        "p50": summary.p50,
        "p90": summary.p90,
        "p99": summary.p99,
    }


def service_report_to_dict(report: ServiceReport) -> dict[str, Any]:
    """Flatten a §5.1 end-to-end report (latency samples omitted; the
    percentile summaries carry the figures)."""
    return {
        "system": report.system,
        "duration": report.duration,
        "total_requests": report.total_requests,
        "completed": report.completed,
        "failed": report.failed,
        "failure_rate": report.failure_rate,
        "latency": _summary_to_dict(report.latency),
        "ttft": _summary_to_dict(report.ttft),
        "spot_cost": report.spot_cost,
        "od_cost": report.od_cost,
        "total_cost": report.total_cost,
        "availability": report.availability,
        "preemptions": report.preemptions,
        "launch_failures": report.launch_failures,
    }


def replay_result_to_dict(
    result: ReplayResult, *, include_series: bool = False
) -> dict[str, Any]:
    """Flatten a §5.2 replay result.  ``include_series`` adds the full
    ready-replica series (large for two-month traces)."""
    out: dict[str, Any] = {
        "policy": result.policy,
        "trace": result.trace,
        "n_tar": result.n_tar,
        "availability": result.availability,
        "relative_cost": result.relative_cost,
        "spot_cost": result.spot_cost,
        "od_cost": result.od_cost,
        "preemptions": result.preemptions,
        "launch_failures": result.launch_failures,
        "step": result.step,
    }
    # Heterogeneous-fleet fields only appear when the replay tracked
    # them, so homogeneous documents keep their exact historic shape.
    if result.eff_availability is not None:
        out["eff_availability"] = result.eff_availability
    if include_series:
        out["ready_series"] = result.ready_series.tolist()
        if result.od_series is not None:
            out["od_series"] = result.od_series.tolist()
        if result.eff_ready_series is not None:
            out["eff_ready_series"] = result.eff_ready_series.tolist()
    return out


@dataclass
class ResultStore:
    """Accumulates experiment records and writes one JSON document.

    Records are ``(experiment, label, payload)`` triples; the document
    groups payloads by experiment.
    """

    metadata: dict[str, Any] = field(default_factory=dict)
    _records: dict[str, dict[str, Any]] = field(default_factory=dict)

    def add(self, experiment: str, label: str, payload: Any) -> None:
        """File a record.  ``payload`` may be a report/result object (it
        is flattened automatically) or any JSON-serialisable value."""
        if isinstance(payload, ServiceReport):
            payload = service_report_to_dict(payload)
        elif isinstance(payload, ReplayResult):
            payload = replay_result_to_dict(payload)
        bucket = self._records.setdefault(experiment, {})
        if label in bucket:
            raise ValueError(f"duplicate record {experiment!r}/{label!r}")
        bucket[label] = payload

    def experiments(self) -> list[str]:
        return list(self._records)

    def get(self, experiment: str, label: str) -> Any:
        return self._records[experiment][label]

    def to_document(self) -> dict[str, Any]:
        return {"metadata": dict(self.metadata), "experiments": self._records}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_document(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> ResultStore:
        data = json.loads(Path(path).read_text())
        store = cls(metadata=data.get("metadata", {}))
        store._records = data.get("experiments", {})
        return store
