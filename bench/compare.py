"""Compare two sets of benchmark results, parent (A) against change (B).

    python bench/compare.py A_DIR B_DIR

Each directory holds the ``<workload>-<seed>.json`` files ``run.py``
writes (traced ``*.trace.json`` files are skipped); each file is one
run.  For every workload and every end-to-end metric it prints each
side's median and quartiles over its runs, the share of pairs the
change wins (a pair is one seed run on both sides; ties count for
neither) and a verdict, following the rule the benchmark fixes:

* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the spread between quartiles, as a share of the
  median, is wider than the bound on either side, unless every run of
  the change reads better (``improved``) or worse (``regressed``) than
  every run of the parent;
* ``improved``: at least ten pairs, the change wins at least nine tenths
  of them, and the medians differ by more than the parent's spread;
* ``unchanged``: otherwise.

The simulated outcomes (``sim_*``) and ``output_sha256`` are
deterministic per seed, so they are compared seed by seed and must be
identical: any worsening is ``regressed``.  Exit status 1 when any
verdict is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Optional

from run import load_spec, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(directory: Path) -> dict[str, list[dict[str, Any]]]:
    """Untraced results by workload, each list sorted by seed."""
    by_workload: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        result = json.loads(path.read_text())
        by_workload.setdefault(result["workload"], []).append(result)
    for results in by_workload.values():
        results.sort(key=lambda r: r["seed"])
    return by_workload


def _better(a: float, b: float, direction: str) -> bool:
    """Whether ``b`` reads better than ``a``."""
    return b < a if direction == "lower" else b > a


def verdict(
    a: list[float], b: list[float], pairs: list[tuple[float, float]], direction: str, bound: float
) -> dict[str, Any]:
    """Verdict for one measured metric; see the module docstring."""
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    worse = (mb - ma) / ma if direction == "lower" else (ma - mb) / ma
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb))
    wins = sum(_better(x, y, direction) for x, y in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    all_better = all(_better(x, y, direction) for x in a for y in b)
    all_worse = all(_better(y, x, direction) for x in a for y in b)
    if spread > bound:
        if all_better:
            call = "improved"
        elif all_worse and worse > bound:
            call = "regressed"
        else:
            call = "unresolved"
    elif worse > bound:
        call = "regressed"
    elif (
        len(pairs) >= MIN_PAIRS
        and win_share >= WIN_SHARE
        and worse < 0
        and abs(mb - ma) > qa3 - qa1
    ):
        call = "improved"
    else:
        call = "unchanged"
    return {
        "a": (qa1, ma, qa3),
        "b": (qb1, mb, qb3),
        "change": -worse,
        "spread": spread,
        "pairs": len(pairs),
        "win_share": win_share,
        "verdict": call,
    }


def exact_verdict(a: dict[int, Any], b: dict[int, Any], direction: Optional[str]) -> str:
    """Seed-by-seed comparison of a deterministic value."""
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return "unresolved"
    differing = [s for s in seeds if a[s] != b[s]]
    if not differing:
        return "unchanged"
    if direction is not None and all(_better(a[s], b[s], direction) for s in differing):
        return "improved"
    return "regressed"


def compare_workload(
    a_results: list[dict[str, Any]], b_results: list[dict[str, Any]], bounds: dict[str, float]
) -> list[tuple[str, str, str]]:
    """Printed rows ``(metric, detail, verdict)`` for one workload."""
    rows: list[tuple[str, str, str]] = []
    a_by_seed = {r["seed"]: r for r in a_results}
    b_by_seed = {r["seed"]: r for r in b_results}
    for name, entry in a_results[0]["metrics"].items():
        if name.startswith("sim_"):
            continue
        a = [r["metrics"][name]["value"] for r in a_results]
        b = [r["metrics"][name]["value"] for r in b_results]
        pairs = [
            (a_by_seed[seed]["metrics"][name]["value"], b_by_seed[seed]["metrics"][name]["value"])
            for seed in sorted(set(a_by_seed) & set(b_by_seed))
        ]
        v = verdict(a, b, pairs, entry["better"], bounds[name])
        detail = (
            f"A {v['a'][1]:.6g} [{v['a'][0]:.6g}, {v['a'][2]:.6g}]  "
            f"B {v['b'][1]:.6g} [{v['b'][0]:.6g}, {v['b'][2]:.6g}] {entry['unit']}  "
            f"change {v['change']:+.2%}  spread {v['spread']:.2%}  "
            f"B wins {v['win_share']:.0%} of {v['pairs']} pairs  (bound {bounds[name]:.0%})"
        )
        rows.append((name, detail, v["verdict"]))
    for name, entry in a_results[0]["sim"].items():
        a_vals = {s: r["sim"][name]["value"] for s, r in a_by_seed.items() if name in r["sim"]}
        b_vals = {s: r["sim"][name]["value"] for s, r in b_by_seed.items() if name in r["sim"]}
        seeds = sorted(set(a_vals) & set(b_vals))
        differing = [s for s in seeds if a_vals[s] != b_vals[s]]
        detail = f"identical on {len(seeds) - len(differing)} of {len(seeds)} seeds" + "".join(
            f"; seed {s}: A {a_vals[s]:.9g} B {b_vals[s]:.9g}" for s in differing
        )
        rows.append((name, detail, exact_verdict(a_vals, b_vals, entry["better"])))
    a_sha = {s: r["output_sha256"] for s, r in a_by_seed.items()}
    b_sha = {s: r["output_sha256"] for s, r in b_by_seed.items()}
    seeds = sorted(set(a_sha) & set(b_sha))
    same = [s for s in seeds if a_sha[s] == b_sha[s]]
    rows.append(
        (
            "output_sha256",
            f"identical on {len(same)} of {len(seeds)} seeds",
            exact_verdict(a_sha, b_sha, None),
        )
    )
    return rows


def main(argv: Optional[list[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_dir, b_dir = (Path(arg) for arg in args)
    spec = load_spec()
    bounds = {entry["name"]: float(entry["bound"]) for entry in spec["end_to_end"]}
    a_all, b_all = load_results(a_dir), load_results(b_dir)
    workloads = sorted(set(a_all) & set(b_all))
    if not workloads:
        print(f"no workload has results in both {a_dir} and {b_dir}", file=sys.stderr)
        return 2
    bad = 0
    for workload in workloads:
        seeds_a = [r["seed"] for r in a_all[workload]]
        seeds_b = [r["seed"] for r in b_all[workload]]
        print(f"== {workload}: A seeds {seeds_a}, B seeds {seeds_b}")
        for name, detail, call in compare_workload(a_all[workload], b_all[workload], bounds):
            print(f"  {name:<20} {call:<10} {detail}")
            bad += call in ("regressed", "unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
