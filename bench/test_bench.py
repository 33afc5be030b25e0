"""Tests of the benchmark harness itself: ``python -m pytest bench -q``.

They run every workload through the same code as the benchmark, scaled
down with the harness-internal ``--size`` factor so the whole file takes
well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SIZE = "0.03"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
from run import WORKLOADS, load_spec  # noqa: E402
from tracer import Tracer, _method_targets  # noqa: E402

SPEC = load_spec()


def _run(
    *args: str, cwd: Path = ROOT, env: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory: pytest.TempPathFactory) -> dict[str, dict]:
    """Untraced and traced result lines and files for every workload."""
    out = tmp_path_factory.mktemp("out")
    found: dict[str, dict] = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = _run(
                str(BENCH / "run.py"),
                "--workload", workload,
                "--seed", "1",
                "--seconds", "0",
                "--trace", trace,
                "--size", SIZE,
                "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr + proc.stdout
            suffix = ".trace.json" if trace == "1" else ".json"
            found[workload + "/" + trace] = {
                "line": json.loads(proc.stdout.strip().splitlines()[-1]),
                "file": json.loads((out / f"{workload}-1{suffix}").read_text()),
            }
    return found


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(results: dict[str, dict], workload: str) -> None:
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        line = results[f"{workload}/{trace}"]["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        expected = {entry["name"]: entry["unit"] for entry in SPEC[kind]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    for name, metric in results[f"{workload}/0"]["line"]["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_perturb_the_simulation(results: dict[str, dict], workload: str) -> None:
    untraced = results[f"{workload}/0"]["file"]["output_sha256"]
    traced = results[f"{workload}/1"]["file"]["output_sha256"]
    assert untraced == traced


@pytest.mark.parametrize("workload", ("serve_steady", "serve_churn", "fleet_3tenant"))
def test_trace_conserves_time_on_service_workloads(results: dict[str, dict], workload: str) -> None:
    metrics = results[f"{workload}/1"]["line"]["metrics"]
    assert abs(metrics["trace.conservation"]["value"] - 1.0) <= 0.1


def test_every_patched_attribute_is_restored() -> None:
    originals = {
        (owner, attr): owner.__dict__[attr] for owner, attr, _name, _hook in _method_targets()
    }
    from repro.sim.engine import SimulationEngine

    for attr in ("call_at", "call_every"):
        originals[(SimulationEngine, attr)] = SimulationEngine.__dict__[attr]
    tracer = Tracer()
    tracer.install()
    try:
        patched = {(owner, attr) for owner, attr, _original in tracer.patched}
        assert patched == set(originals)
        assert all(owner.__dict__[attr] is not originals[(owner, attr)] for owner, attr in patched)
    finally:
        tracer.uninstall()
    assert tracer.patched == []
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_does_not_depend_on_the_hash_seed(workload: str) -> None:
    digests = set()
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        proc = _run(str(BENCH / "harness.py"), "--workload", workload, "--size", SIZE, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(json.loads(proc.stdout.strip().splitlines()[-1])["output_sha256"])
    assert len(digests) == 1


def test_fails_without_the_program_sources(tmp_path: Path) -> None:
    """A directory holding only BENCHMARK.json and bench/ has nothing to
    build: the command must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    proc = _run("bench/run.py", "--workload", "serve_steady", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_verdicts_follow_the_bound() -> None:
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    same = compare.verdict(base, list(base), list(zip(base, base)), "lower", 0.1)
    assert same["verdict"] == "unchanged"
    slower = [v * 1.2 for v in base]
    assert compare.verdict(base, slower, list(zip(base, slower)), "lower", 0.1)["verdict"] == (
        "regressed"
    )
    faster = [v * 0.8 for v in base]
    assert compare.verdict(base, faster, list(zip(base, faster)), "lower", 0.1)["verdict"] == (
        "improved"
    )
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, noisy, list(zip(base, noisy)), "lower", 0.1)["verdict"] == (
        "unresolved"
    )
    assert compare.exact_verdict({0: 0.5}, {0: 0.5}, "higher") == "unchanged"
    assert compare.exact_verdict({0: 0.5}, {0: 0.4}, "higher") == "regressed"
