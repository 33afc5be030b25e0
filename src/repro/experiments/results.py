"""Result serialisation — raw experiment data as JSON.

The paper's artifact ships raw measurement data plus plotting scripts;
this module is the equivalent export path: every report type serialises
to plain dictionaries and a :class:`ResultStore` collects them into one
JSON document per experiment, so external tooling (notebooks, plotting
scripts) can regenerate figures without re-running simulations.

:class:`ReplayCache` adds a content-addressed on-disk cache of replay
results: a figure script re-run recomputes only the points whose inputs
(trace content, policy, config, seed) actually changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

import numpy as np

from repro.cloud.traces import SpotTrace
from repro.experiments.replay import ReplayConfig, ReplayResult
from repro.serving.service import ServiceReport
from repro.sim.metrics import LatencySummary

__all__ = [
    "ReplayCache",
    "ResultStore",
    "replay_result_from_dict",
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


def replay_result_from_dict(data: Mapping[str, Any]) -> ReplayResult:
    """Rebuild a :class:`ReplayResult` from its flattened form.

    Inverse of :func:`replay_result_to_dict` with
    ``include_series=True`` (the series is required — without it the
    object could not answer latency-estimation queries).
    """
    if "ready_series" not in data:
        raise ValueError("serialised replay result lacks 'ready_series'")
    return ReplayResult(
        policy=data["policy"],
        trace=data["trace"],
        n_tar=int(data["n_tar"]),
        availability=float(data["availability"]),
        relative_cost=float(data["relative_cost"]),
        spot_cost=float(data["spot_cost"]),
        od_cost=float(data["od_cost"]),
        preemptions=int(data["preemptions"]),
        launch_failures=int(data["launch_failures"]),
        ready_series=np.asarray(data["ready_series"], dtype=int),
        step=float(data["step"]),
        od_series=(
            np.asarray(data["od_series"], dtype=int)
            if data.get("od_series") is not None
            else None
        ),
        eff_ready_series=(
            np.asarray(data["eff_ready_series"], dtype=float)
            if data.get("eff_ready_series") is not None
            else None
        ),
        eff_availability=(
            float(data["eff_availability"])
            if data.get("eff_availability") is not None
            else None
        ),
    )


class ReplayCache:
    """Content-addressed on-disk cache of replay results.

    Entries are keyed by SHA-256 over the *inputs* that determine a
    replay's output: the trace's content digest
    (:meth:`~repro.cloud.traces.SpotTrace.digest`), the policy name plus
    its declared parameters, the full :class:`ReplayConfig`, and the
    seed.  Anything that changes any of those produces a different key,
    so stale hits are impossible; re-running a figure script recomputes
    only invalidated points.  The replay *engine* is deliberately not
    part of the key: discrete and hybrid replays are byte-identical by
    contract (property-tested), so entries are shared across engines.

    The cache directory is ``$REPRO_CACHE_DIR`` when set, else
    ``~/.cache/repro/replay``.  One JSON file per entry, written
    atomically (temp file + rename) so concurrent sweep workers can
    share the cache without locking.  ``clear()`` (or simply deleting
    the directory) empties it.
    """

    ENV_VAR = "REPRO_CACHE_DIR"

    def __init__(self, root: Optional[str | Path] = None) -> None:
        if root is None:
            root = os.environ.get(self.ENV_VAR)
        if root is None:
            root = Path.home() / ".cache" / "repro" / "replay"
        self.root = Path(root)

    # -- keying --------------------------------------------------------
    @staticmethod
    def key(
        trace: SpotTrace,
        policy_name: str,
        policy_params: Optional[Mapping[str, Any]] = None,
        config: Optional[ReplayConfig] = None,
        seed: int = 0,
    ) -> str:
        """Deterministic hex key for one replay invocation."""
        config = config or ReplayConfig()
        cfg_dict = dataclasses.asdict(config)
        if cfg_dict.get("zone_price_multipliers") is not None:
            cfg_dict["zone_price_multipliers"] = dict(
                sorted(cfg_dict["zone_price_multipliers"].items())
            )
        if cfg_dict.get("zone_capacity_weights") is not None:
            cfg_dict["zone_capacity_weights"] = dict(
                sorted(cfg_dict["zone_capacity_weights"].items())
            )
        material = json.dumps(
            {
                "trace": trace.digest(),
                "policy": policy_name,
                "params": dict(sorted((policy_params or {}).items())),
                "config": cfg_dict,
                "seed": int(seed),
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- access --------------------------------------------------------
    def get(self, key: str) -> Optional[ReplayResult]:
        """The cached result for ``key``, or ``None`` on a miss (or an
        unreadable/corrupt entry, which is treated as a miss)."""
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
            return replay_result_from_dict(data)
        except (OSError, ValueError, KeyError):
            return None

    def put(self, key: str, result: ReplayResult) -> None:
        """Store ``result`` under ``key`` (atomic write)."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(replay_result_to_dict(result, include_series=True))
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


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
