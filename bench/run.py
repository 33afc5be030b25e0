"""Run the repository benchmark.

Each repeat of a workload runs in its own fresh child process
(``bench/harness.py``), one process at a time, until ``--seconds`` have
passed and at least three repeats have run; the reported value of a
measured metric is the median over the repeats (for host time, the sum
of each segment's median, see ``segment_wall_s``).  The command prints
every end-to-end metric by name with its unit, checks the outputs,
writes ``<out>/<workload>-<seed>.json`` and ends each workload with one
JSON line::

    {"correct": true, "attempted": 359000, "failed": 0, "metrics": {...}}

Usage (from anywhere; the repository root is found from this file)::

    python3 bench/run.py                                  # all workloads, seed 0
    python3 bench/run.py --workload serve_steady --seed 3 --seconds 20
    python3 bench/run.py --workloads serve_steady,replay_grid
    python3 bench/run.py --trace                          # per-layer metrics

``--trace`` alternates untraced and traced repeats and reports the
per-layer metrics of ``BENCHMARK.json`` from the traced ones; the
end-to-end metrics always come from untraced repeats.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

import harness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(harness.WORKLOADS)
#: Untraced repeats per workload at least, however short ``--seconds``.
MIN_REPEATS = 3
#: A repeat that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: One busy core per repeat: no BLAS/OpenMP thread pools spinning
#: beside the simulation.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(message: str) -> "SystemExit":
    return SystemExit(f"bench: {message}")


def load_spec() -> dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise _fail(f"no {path.name} at the repository root")
    return json.loads(path.read_text())


def check_layout() -> None:
    """The benchmark builds the program from this checkout's sources."""
    needed = (
        ROOT / "src" / "repro" / "__init__.py",
        ROOT / "configs" / "deployments" / "three-tenants.json",
        ROOT / "configs" / "scenarios" / "kitchen-sink.json",
    )
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise _fail(f"checkout lacks {', '.join(missing)}")


def _git_commit() -> Optional[str]:
    """HEAD of this checkout, read from ``.git`` without running git
    (which would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(seed: int, seconds: float, size: float) -> dict[str, Any]:
    """Where and on what a result was measured, so rows from different
    machines can be normalised by the calibration probe."""
    import numpy

    from repro.devtools.perfreg import calibration_probe

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "calibration_s": calibration_probe(),
        "started_unix": time.time(),
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def spawn(
    workload: str, seed: int, size: float, *, traced: bool = False, spans: Optional[Path] = None
) -> dict[str, Any]:
    """Run one repeat in a fresh process and return its record."""
    cmd = [
        sys.executable,
        str(BENCH / "harness.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--size",
        repr(size),
    ]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repeat exceeded {CHILD_TIMEOUT_S:.0f}s and was killed"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"error": f"repeat exited {proc.returncode}: {tail}"}
    record = json.loads(lines[-1])
    # monotonic() is one system-wide clock, so the child's stamp and
    # ours subtract: interpreter start, imports and set-up included.
    record["setup_s"] = record["timed_at"] - spawned_at
    record["work_per_s"] = record["work"] / record["wall_s"]
    return record


def repeat_until(deadline: float, run_one: Any, at_least: int) -> list[dict[str, Any]]:
    """Call ``run_one`` until the deadline has passed and ``at_least``
    records exist, stopping early on a repeat that errored."""
    records: list[dict[str, Any]] = []
    while True:
        batch = run_one()
        records += batch
        if any("error" in r for r in batch):
            return records
        if len(records) >= at_least and time.monotonic() >= deadline:
            return records


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def segment_wall_s(records: list[dict[str, Any]]) -> float:
    """Host seconds of the timed call, robust to bursts of machine noise:
    the sum over segments of simulated time of each segment's median
    host time across repeats.  A burst that slows one repeat for a
    second or two moves one segment of that repeat, not the median."""
    columns = zip(*(r["segments_s"] for r in records), strict=True)
    return sum(statistics.median(column) for column in columns)


def check_repeats(records: list[dict[str, Any]]) -> list[str]:
    """Every repeat ran and passed its checks, and all repeats produced
    the same canonical output and simulated outcomes."""
    failures: list[str] = []
    for index, record in enumerate(records):
        if "error" in record:
            failures.append(f"repeat {index}: {record['error']}")
            continue
        failures += [f"repeat {index}: {f}" for f in record["failures"]]
    ran = [r for r in records if "error" not in r]
    if len({r["output_sha256"] for r in ran}) > 1:
        failures.append("output_sha256 differs between repeats")
    if len({json.dumps(r["sim"], sort_keys=True) for r in ran}) > 1:
        failures.append("simulated outcomes differ between repeats")
    return failures


def counts(records: list[dict[str, Any]], failures: list[str]) -> tuple[int, int]:
    """(attempted, failed) operations: requests sent or replay steps; a
    repeat that errored or failed a check fails all its operations."""
    attempted = failed = 0
    for record in records:
        ops = record.get("attempted", 1)
        attempted += ops
        if "error" in record or record["failures"]:
            failed += ops
    if failures and not failed:
        failed = attempted  # the repeats disagree with each other
    return attempted, failed


def measure(
    workload: str, seed: int, seconds: float, size: float, spec: dict[str, Any]
) -> dict[str, Any]:
    deadline = time.monotonic() + seconds
    records = repeat_until(deadline, lambda: [spawn(workload, seed, size)], MIN_REPEATS)
    failures = check_repeats(records)
    ran = [r for r in records if "error" not in r]
    derived: dict[str, float] = {}
    if ran:
        wall_s = segment_wall_s(ran)
        derived = {"wall_s": wall_s, "work_per_s": ran[0]["work"] / wall_s}
    metrics: dict[str, Any] = {}
    for entry in spec["end_to_end"]:
        name = entry["name"]
        values = [r[name] if name in r else r["sim"].get(name) for r in ran]
        if not ran or any(v is None for v in values):
            failures.append(f"metric {name} not measured")
            continue
        q1, median, q3 = quartiles(values)
        metrics[name] = {
            "value": derived.get(name, median),
            "unit": entry["unit"],
            "better": entry["better"],
            "q1": q1,
            "q3": q3,
            "repeats": values,
        }
    attempted, failed = counts(records, failures)
    first = ran[0] if ran else {"sim": {}, "samples": {}, "output_sha256": None, "work": 0}
    return {
        "workload": workload,
        "seed": seed,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "repeats": len(records),
        "work_per_repeat": first["work"],
        "metrics": metrics,
        "sim": {
            name: dict(zip(("value", "unit", "better"), (value, *harness.SIM_UNITS[name])))
            for name, value in sorted(first["sim"].items())
        },
        "samples": first["samples"],
        "output_sha256": first["output_sha256"],
    }


def measure_traced(
    workload: str, seed: int, seconds: float, size: float, spec: dict[str, Any], out: Path
) -> dict[str, Any]:
    spans = out / f"spans-{workload}.jsonl"
    deadline = time.monotonic() + seconds
    records = repeat_until(
        deadline,
        lambda: [
            spawn(workload, seed, size),
            spawn(workload, seed, size, traced=True, spans=spans),
        ],
        2,
    )
    failures = check_repeats(records)
    plain = [r for r in records if "error" not in r and not r["traced"]]
    traced = [r for r in records if "error" not in r and r["traced"]]
    metrics: dict[str, Any] = {}
    if plain and traced:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        layers["trace.overhead"] = traced_wall / plain_wall - 1.0
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name not in layers:
                failures.append(f"metric {name} not measured")
                continue
            metrics[name] = {"value": layers[name], "unit": entry["unit"]}
    else:
        failures.append("no complete untraced/traced pair")
    attempted, failed = counts(records, failures)
    return {
        "workload": workload,
        "seed": seed,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "repeats": len(records),
        "metrics": metrics,
        "output_sha256": traced[0]["output_sha256"] if traced else None,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict[str, Any]) -> None:
    kind = "untraced" if "sim" in result else "untraced+traced"
    print(
        f"== {result['workload']} seed {result['seed']}: {result['repeats']} {kind} "
        f"repeats, {result['attempted']} operations attempted, {result['failed']} failed"
    )
    for name, metric in result["metrics"].items():
        spread = ""
        if "q1" in metric:
            spread = f"   [q1 {_fmt(metric['q1'])}, q3 {_fmt(metric['q3'])}]"
        print(f"  {name:<34} {_fmt(metric['value']):>14} {metric['unit']}{spread}")
    for name, metric in result.get("sim", {}).items():
        if name in result["metrics"]:
            continue
        print(f"  {name:<34} {_fmt(metric['value']):>14} {metric['unit']}")
    if result.get("samples"):
        print("  samples: " + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    print(f"  output_sha256 {result['output_sha256']}")
    print("  checks: " + ("ok" if result["correct"] else "; ".join(result["failures"])))


def result_line(result: dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in result["metrics"].items()
            },
        }
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workloads",
        "--workload",
        dest="workloads",
        default=",".join(WORKLOADS),
        help=f"comma list of workloads (default: all of {', '.join(WORKLOADS)})",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        help="measure each workload this long (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="traced run: report the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=BENCH / "out", help="result directory")
    # Scales every workload down; used by the harness tests only.
    parser.add_argument("--size", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or not workloads:
        raise _fail(f"unknown workload(s) {unknown}: expected some of {list(WORKLOADS)}")
    check_layout()
    spec = load_spec()
    os.environ.update(SINGLE_THREADED)  # for this process and every repeat
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    sys.path.insert(0, str(ROOT / "src"))
    # Compile once up front so no repeat pays for byte-compilation.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    meta = metadata(args.seed, seconds, args.size)
    args.out.mkdir(parents=True, exist_ok=True)

    all_correct = True
    for workload in workloads:
        if args.trace:
            result = measure_traced(workload, args.seed, seconds, args.size, spec, args.out)
            path = args.out / f"{workload}-{args.seed}.trace.json"
        else:
            result = measure(workload, args.seed, seconds, args.size, spec)
            path = args.out / f"{workload}-{args.seed}.json"
        result["meta"] = meta
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        report(result)
        print(result_line(result), flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
