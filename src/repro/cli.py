"""Command-line interface — the simulated counterpart of ``sky serve``.

Subcommands:

``repro serve``
    Deploy a service (spec from a JSON file or defaults) on a trace and
    serve a generated workload; prints the Fig. 9-style report.
``repro serve up``
    Run a multi-tenant deployment spec (``repro.control``) — N services
    sharing one simulated multi-cloud behind a capacity broker — and
    print/write the per-tenant + fleet-wide cost/SLO report (see
    docs/CONTROL_PLANE.md).
``repro serve ablate``
    The 1-vs-N contention ablation: each tenant alone vs all together
    under fair-share and strict-priority admission.
``repro compare``
    Run the four §5.1 systems on one scenario and print the comparison.
``repro replay``
    Replay the §5.2 policies over a named or file trace (Fig. 14a/b).
    ``--target``, ``--cold-start`` and ``--k`` each take a comma list;
    more than one value replays the whole grid (Fig. 14c/d), on a
    process pool with ``--workers``, with the same output for any pool
    size.
``repro trace``
    Generate a canned trace (aws1/aws2/aws3/gcp1/cpu) to JSON or CSV,
    or print its summary statistics.
``repro analyze``
    Preemption-correlation and search-space analysis of a trace
    (Figs. 3 and 5).
``repro events``
    Print a JSONL telemetry log written by ``serve``/``replay --events``
    one line per event, optionally only the events of one kind.
``repro report``
    Aggregate an event log into a run report: terminal dashboard with
    fleet/cost/SLO timelines, latency legs, counters, the replica
    lifecycle table and hot profiler phases, plus a canonical
    byte-stable JSON artifact.
``repro hetero``
    Heterogeneous GPU fleet experiments (``repro.experiments.hetero``):
    ``repro hetero frontier`` replays the homogeneous single-type
    fleets and the mixed zone × instance-type fleet over one base
    trace and prints the cost/availability frontier (byte-stable JSON
    with ``--json``; see docs/HETEROGENEOUS.md).
``repro chaos``
    Fault-injection tooling (``repro.chaos``): list/show the bundled
    scenarios and run the policy × scenario robustness matrix, emitting
    a deterministic scorecard JSON (see docs/CHAOS.md).
``repro lint``
    Run the repository's determinism & simulation-hygiene static
    analyzer (``repro.devtools.lint``) over the source tree; see
    docs/STATIC_ANALYSIS.md.

All randomness is seeded; the same command line always prints the same
numbers.  ``--log-level`` (global) controls the stdlib logging verbosity
of every ``repro.*`` module.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.analysis import availability_by_search_space, preemption_correlation
from repro.cloud import HOUR, SpotTrace, aws1, aws2, aws3, cpu_trace, default_catalog, gcp1
from repro.cloud.trace_io import save_capacity_csv
from repro.core import spothedge
from repro.experiments import (
    ENGINES,
    FLEETS,
    ReplayConfig,
    ResultStore,
    SweepPoint,
    TraceReplayer,
    frontier_to_json,
    grid_sweep,
    pareto_fleets,
    run_comparison,
    run_frontier,
)
from repro.serving import MODEL_PROFILES, POLICIES, ServiceSpec, SkyService
from repro.telemetry import (
    EventBus,
    JsonlSink,
    MetricsSink,
    configure_logging,
    read_events,
)
from repro.workloads import WORKLOAD_KINDS, arena_workload, make_workload

__all__ = ["build_parser", "main"]

_CANNED_TRACES: dict[str, Callable[[], SpotTrace]] = {
    "aws1": aws1,
    "aws2": aws2,
    "aws3": aws3,
    "gcp1": gcp1,
    "cpu": cpu_trace,
}

#: ``repro replay``'s default policy list, in the paper's Fig. 14 order.
_REPLAY_DEFAULT = "SpotHedge,RoundRobin,EvenSpread,OnDemand"

#: The replay parameters ``replay`` and ``chaos run`` share: option →
#: (``ReplayConfig`` field, value type, help).  ``ReplayConfig`` holds
#: their defaults and checks their values.
_REPLAY_OPTIONS: dict[str, tuple[str, Callable, str]] = {
    "--target": ("n_tar", int, "N_Tar"),
    "--cold-start": ("cold_start", float, "cold-start seconds"),
    "--k": ("k", float, "on-demand/spot price ratio"),
}


def _load_trace(spec: str) -> SpotTrace:
    """Resolve a trace argument: a canned name, a .json, or a .csv file."""
    if spec in _CANNED_TRACES:
        return _CANNED_TRACES[spec]()
    path = Path(spec)
    if not path.exists():
        raise SystemExit(
            f"unknown trace {spec!r}: expected one of {sorted(_CANNED_TRACES)} "
            "or a path to a .json/.csv trace file"
        )
    if path.suffix == ".json":
        return SpotTrace.load(path)
    if path.suffix == ".csv":
        raise SystemExit(
            "CSV traces need an explicit duration; convert to JSON via "
            "'repro trace' or load programmatically with load_capacity_csv"
        )
    raise SystemExit(f"unsupported trace file type {path.suffix!r}")


def _policy_factory(name: str) -> Callable:
    """The registered serving-policy factory for a CLI policy name."""
    try:
        return POLICIES.get(name)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _open_log(path: str) -> JsonlSink:
    try:
        return JsonlSink(path)
    except OSError as exc:
        raise SystemExit(f"cannot write event log {path}: {exc}")


def _print_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    if args.spec:
        spec = ServiceSpec.from_dict(json.loads(Path(args.spec).read_text()))
    else:
        from repro.serving import ReplicaPolicyConfig, ResourceSpec

        spec = ServiceSpec(
            name="cli-service",
            replica_policy=ReplicaPolicyConfig(
                fixed_target=args.target, num_overprovision=args.overprovision
            ),
            resources=ResourceSpec(accelerator=args.accelerator),
            request_timeout=args.timeout,
            max_queue_per_replica=args.max_queue,
        )
    duration = args.hours * HOUR
    workload = make_workload(args.workload, duration, args.rate, args.seed)
    policy = spothedge(trace.zone_ids, num_overprovision=args.overprovision)
    telemetry = None
    jsonl_sink = None
    metrics_sink = None
    if args.events or args.metrics_out:
        telemetry = EventBus()
        if args.events:
            jsonl_sink = _open_log(args.events)
            telemetry.attach(jsonl_sink)
        if args.metrics_out:
            metrics_sink = MetricsSink()
            telemetry.attach(metrics_sink)
    profile = MODEL_PROFILES[args.profile]()
    if args.batch_slope:
        profile = dataclasses.replace(profile, decode_batch_slope=args.batch_slope)
    service = SkyService(
        spec,
        policy,
        trace,
        profile=profile,
        seed=args.seed,
        telemetry=telemetry,
    )
    report = service.run(workload, duration)
    if telemetry is not None:
        telemetry.close()
    print(f"service:      {spec.name} ({args.profile} on {args.accelerator})")
    print(f"requests:     {report.total_requests} "
          f"({report.failed} failed, {report.failure_rate:.2%})")
    if report.latency:
        print(f"latency:      p50={report.latency.p50:.1f}s "
              f"p90={report.latency.p90:.1f}s p99={report.latency.p99:.1f}s")
    print(f"availability: {report.availability:.1%}")
    print(f"cost:         ${report.total_cost:.2f} "
          f"(spot ${report.spot_cost:.2f} / od ${report.od_cost:.2f})")
    print(f"preemptions:  {report.preemptions}")
    print("\nfinal replica status:")
    _print_table(
        ["replica", "market", "zone", "state", "ongoing"],
        [
            [r["replica"], r["market"], r["zone"], r["state"], r["ongoing_requests"]]
            for r in service.controller.status()
        ],
    )
    if jsonl_sink is not None:
        print(f"\nwrote {jsonl_sink.count} events to {args.events} "
              f"(summarise with: repro report {args.events})")
    if metrics_sink is not None:
        Path(args.metrics_out).write_text(metrics_sink.registry.render_prometheus())
        print(f"wrote Prometheus metrics snapshot to {args.metrics_out}")
    return 0


def _cmd_serve_up(args: argparse.Namespace) -> int:
    from repro.control import ControlPlane, load_deployment

    try:
        deployment = load_deployment(args.deployment)
    except (OSError, ValueError, RuntimeError) as exc:
        raise SystemExit(str(exc))
    trace = _load_trace(args.trace)
    duration = args.hours * HOUR if args.hours is not None else None
    telemetry = None
    jsonl_sink = None
    if args.events:
        jsonl_sink = _open_log(args.events)
        telemetry = EventBus([jsonl_sink])
    plane = ControlPlane(deployment, trace, seed=args.seed, telemetry=telemetry)
    fleet = plane.run(duration)
    if telemetry is not None:
        telemetry.close()
    print(f"deployment:  {deployment.name} "
          f"({len(deployment.tenants)} tenant(s), "
          f"admission={deployment.admission}, "
          f"scenario={deployment.scenario or 'none'})")
    print(f"fleet cost:  ${fleet.fleet_spot_cost + fleet.fleet_od_cost:.2f} "
          f"(spot ${fleet.fleet_spot_cost:.2f} / od ${fleet.fleet_od_cost:.2f})")
    print()
    _print_table(
        ["tenant", "policy", "prio", "requests", "failed", "avail",
         "p99", "preempt", "rejected", "evicted", "cost"],
        [
            [
                t.tenant,
                t.policy,
                t.priority,
                t.total_requests,
                t.failed,
                f"{t.availability:.1%}",
                f"{t.latency_p99:.1f}s",
                t.preemptions,
                t.rejected,
                t.evictions_suffered,
                f"${t.total_cost:.2f}",
            ]
            for t in fleet.tenants
        ],
    )
    if jsonl_sink is not None:
        print(f"\nwrote {jsonl_sink.count} events to {args.events} "
              f"(summarise with: repro report {args.events})")
    if args.report:
        Path(args.report).write_text(fleet.to_json())
        print(f"wrote fleet cost/SLO report to {args.report}")
    return 0


def _cmd_serve_ablate(args: argparse.Namespace) -> int:
    from repro.control import load_deployment, run_contention_ablation

    try:
        deployment = load_deployment(args.deployment)
    except (OSError, ValueError, RuntimeError) as exc:
        raise SystemExit(str(exc))
    trace = _load_trace(args.trace)
    duration = args.hours * HOUR if args.hours is not None else None
    result = run_contention_ablation(
        deployment, trace, duration=duration, seed=args.seed
    )
    print(f"contention ablation: {deployment.name} "
          f"({len(deployment.tenants)} tenant(s), "
          f"scenario={deployment.scenario or 'none'}, seed={args.seed})")
    print("availability (solo = tenant alone on the full cloud):")
    print()
    rows = []
    for row in result.rows():
        avail = row["availability"]
        cost = row["cost"]
        rows.append(
            [
                row["tenant"],
                row["priority"],
                f"{avail['solo']:.3f}",
                f"{avail['fair_share']:.3f}",
                f"{avail['strict_priority']:.3f}",
                f"${cost['fair_share']:.2f}",
                f"${cost['strict_priority']:.2f}",
                row["rejected"]["fair_share"],
                row["evictions_suffered"]["strict_priority"],
            ]
        )
    _print_table(
        ["tenant", "prio", "solo", "fair", "strict",
         "cost(fair)", "cost(strict)", "rej(fair)", "evict(strict)"],
        rows,
    )
    if args.report:
        Path(args.report).write_text(result.to_json())
        print(f"\nwrote ablation report to {args.report}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    duration = args.hours * HOUR
    workload = arena_workload(
        duration,
        base_rate=args.rate,
        diurnal_amplitude=0.4,
        burst_multiplier=1.8,
        burst_mean_duration=180.0,
        max_output_tokens=800,
        seed=args.seed,
    )
    results = run_comparison(args.scenario, workload, duration, seed=args.seed)
    od_hourly = default_catalog().get("g5.48xlarge").on_demand_hourly
    baseline = od_hourly * 4 * duration / 3600.0
    rows = []
    for name, result in results.items():
        r = result.report
        rows.append(
            [
                name,
                f"{r.failure_rate:.2%}",
                f"{r.latency.p50:.1f}s" if r.latency else "-",
                f"{r.latency.p99:.1f}s" if r.latency else "-",
                f"{r.total_cost / baseline:.1%}",
                f"{r.availability:.1%}",
            ]
        )
    print(f"Spot {args.scenario.capitalize()} — {len(workload)} requests, "
          f"{args.hours}h, N_Tar=4")
    _print_table(["system", "fail", "P50", "P99", "cost vs OD", "avail"], rows)
    if args.json:
        store = ResultStore(metadata={"scenario": args.scenario, "seed": args.seed,
                                      "hours": args.hours})
        for name, result in results.items():
            store.add("compare", name, result.report)
        store.save(args.json)
        print(f"\nwrote raw results to {args.json}")
    return 0


def _replay_point(trace, engine, seed, telemetry, *, policy, n_tar, cold_start, k):
    """One replay grid point.  Module-level (with the fixed arguments
    bound via ``functools.partial``) so parallel grids can pickle it."""
    config = ReplayConfig(n_tar=n_tar, cold_start=cold_start, k=k)
    replayer = TraceReplayer(trace, config, seed=seed, telemetry=telemetry, engine=engine)
    return replayer.run(POLICIES.get(policy)(trace.zone_ids))


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    policies = _parse_axis(args.policies, str, "--policies")
    for name in policies:
        _policy_factory(name)
    axes = {
        field: _replay_values(args, option)
        for option, (field, _, _) in _REPLAY_OPTIONS.items()
    }
    # One value per axis: one point per policy, printed as the §5.2 table.
    per_policy = all(len(values) == 1 for values in axes.values())
    grid = {"policy": policies, **axes}
    workers = _workers(args)
    telemetry = None
    jsonl_sink = None
    if args.events:
        if len(policies) != 1 or not per_policy:
            raise SystemExit(
                "--events records one replay: select one policy and one value "
                "of --target, --cold-start and --k"
            )
        jsonl_sink = _open_log(args.events)
        telemetry = EventBus([jsonl_sink])
        workers = 1  # the log is written in-process
    try:
        points = grid_sweep(
            functools.partial(_replay_point, trace, args.engine, args.seed, telemetry),
            grid,
            raise_errors=True,
            workers=workers,
            telemetry=EventBus([_Progress()]) if args.progress else None,
        )
    finally:
        if telemetry is not None:
            telemetry.close()
    if per_policy:
        n_tar, k = axes["n_tar"][0], axes["k"][0]
        print(f"trace {trace.name}: N_Tar={n_tar}, k={k}, "
              f"{trace.duration / 86400:.1f} days")
        first, label = "policy", (lambda point: point.params["policy"])
        metadata = {"trace": trace.name, "n_tar": n_tar, "k": k, "seed": args.seed}
    else:
        print(f"trace {trace.name}: {len(points)} points, seed={args.seed}")
        first, label = "point", SweepPoint.label
        metadata = {"trace": trace.name, "seed": args.seed, "grid": grid}
    rows = [
        [label(point), f"{point.result.availability:.1%}",
         f"{point.result.relative_cost:.1%}", point.result.preemptions]
        for point in points
    ]
    _print_table([first, "availability", "cost vs OD", "preemptions"], rows)
    if args.json:
        store = ResultStore(metadata=metadata)
        for point in points:
            store.add("replay", label(point), point.result)
        store.save(args.json)
        print(f"\nwrote raw results to {args.json}")
    if jsonl_sink is not None:
        print(f"\nwrote {jsonl_sink.count} events to {args.events} "
              f"(report with: repro report {args.events})")
    return 0


class _Progress:
    """Per-point progress lines on stderr for ``--progress``."""

    def accept(self, event):
        status = "ok" if event.ok else "ERROR"
        print(f"[{event.index + 1}/{event.total}] {event.label} {status}", file=sys.stderr)


def _parse_axis(raw: str, cast: Callable, option: str) -> list:
    """A comma-list option as its distinct values, in the given order."""
    try:
        values = [cast(v) for v in raw.split(",") if v != ""]
    except ValueError:
        raise SystemExit(f"bad value list for {option}: {raw!r}")
    if not values:
        raise SystemExit(f"{option} needs at least one value")
    return list(dict.fromkeys(values))


def _replay_values(args: argparse.Namespace, option: str) -> list:
    """The values of one of ``_REPLAY_OPTIONS``, each checked by
    ``ReplayConfig`` itself, so a bad one exits naming ``option``."""
    field, cast, _ = _REPLAY_OPTIONS[option]
    # str(): an option left unset holds ReplayConfig's value, not text.
    raw = str(getattr(args, option[2:].replace("-", "_")))
    values = _parse_axis(raw, cast, option)
    for value in values:
        try:
            ReplayConfig(**{field: value})
        except ValueError as exc:
            raise SystemExit(f"bad value for {option}: {value!r} ({exc})")
    return values


def _workers(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    return args.workers


def _cmd_hetero_frontier(args: argparse.Namespace) -> int:
    fleets = _parse_axis(args.fleets, str, "--fleets") if args.fleets else None
    if fleets:
        for name in fleets:
            if name not in FLEETS:
                raise SystemExit(
                    f"unknown fleet {name!r}: expected one of {list(FLEETS)}"
                )
    _replay_values(args, "--target")  # exits on a bad N_Tar
    duration = args.duration * HOUR if args.duration is not None else None
    points = run_frontier(
        fleets,
        n_tar=args.target,
        seed=args.seed,
        duration=duration,
        workers=_workers(args),
    )
    pareto = pareto_fleets(points)
    rows = []
    for point in points:
        name = point.params["fleet"]
        if not point.ok:
            rows.append([name, "error", point.error, "-", "-"])
            continue
        r = point.result
        rows.append(
            [
                name + (" *" if name in pareto else ""),
                f"{r.eff_availability:.1%}",
                f"{r.relative_cost:.1%}",
                r.preemptions,
                ",".join(FLEETS[name]),
            ]
        )
    print(
        f"heterogeneous frontier: N_Tar={args.target} reference units "
        f"(A10G replicas), seed={args.seed}"
    )
    _print_table(
        ["fleet", "eff availability", "cost vs OD", "preemptions", "instance types"],
        rows,
    )
    print("\n* = on the cost/availability Pareto frontier")
    if args.json:
        text = frontier_to_json(points, n_tar=args.target, seed=args.seed)
        Path(args.json).write_text(text)
        print(f"wrote frontier JSON to {args.json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = _load_trace(args.name)
    if args.out:
        path = Path(args.out)
        if path.suffix == ".json":
            trace.save(path)
        elif path.suffix == ".csv":
            save_capacity_csv(trace, path)
        else:
            raise SystemExit(f"unsupported output type {path.suffix!r}")
        print(f"wrote {trace.name} ({trace.n_steps} steps, "
              f"{len(trace.zone_ids)} zones) to {path}")
        return 0
    rows = [
        [
            zone,
            f"{trace.availability(zone):.1%}",
            int(trace.preemption_indicator(zone).sum()),
        ]
        for zone in trace.zone_ids
    ]
    print(f"{trace.name}: {trace.duration / 86400:.1f} days, "
          f"step {trace.step:.0f}s, pooled availability "
          f"{trace.pooled_availability():.1%}")
    _print_table(["zone", "availability", "capacity drops"], rows)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    matrix = preemption_correlation(trace)
    print(f"{trace.name}: preemption correlation")
    print(f"  mean intra-region r = {matrix.mean_intra_region():.3f}")
    print(f"  mean inter-region r = {matrix.mean_inter_region():.3f}")
    curve = availability_by_search_space(trace, threshold=args.threshold)
    print(f"\navailability vs search space (>= {args.threshold} instances):")
    _print_table(
        ["search space", "availability"],
        [[label, f"{a:.1%}"] for label, a in zip(curve.labels, curve.availability)],
    )
    return 0


def _read_log(log: str) -> list:
    path = Path(log)
    if not path.exists():
        raise SystemExit(f"no such event log: {log}")
    try:
        return read_events(path)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"malformed event log {log}: {exc}")


def _cmd_events(args: argparse.Namespace) -> int:
    events = _read_log(args.log)
    if args.kind:
        events = [e for e in events if e.kind == args.kind]
        if not events:
            print(f"no {args.kind!r} events in {args.log}")
            return 0
    for event in events:
        data = event.to_dict()
        kind = data.pop("kind")
        time = data.pop("time")
        fields = " ".join(f"{k}={v}" for k, v in data.items())
        print(f"t={time:10.1f}  {kind:<24} {fields}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry import build_report, render_dashboard

    report = build_report(_read_log(args.log), label=Path(args.log).name)
    if not args.no_dashboard:
        print(render_dashboard(report, top_k=args.top_k), end="")
    if args.json:
        Path(args.json).write_text(report.to_json())
        if not args.no_dashboard:
            print(f"wrote report JSON to {args.json}")
    return 0


def _fmt_opt(value, fmt: str) -> str:
    """Format an optional scorecard number; ``None`` renders as ``-``."""
    return "-" if value is None else format(value, fmt)


def _cmd_chaos_list(args: argparse.Namespace) -> int:
    # Lazy import: chaos is opt-in; plain simulation commands must not
    # pay for it (mirrors the lint lazy import below).
    from repro.chaos import builtin_scenario, list_builtin

    rows = []
    for name in list_builtin():
        scenario = builtin_scenario(name)
        rows.append(
            [
                name,
                len(scenario.injections),
                f"{scenario.last_end / HOUR:.1f}h",
                scenario.description,
            ]
        )
    _print_table(["scenario", "injections", "span", "description"], rows)
    return 0


def _cmd_chaos_show(args: argparse.Namespace) -> int:
    from repro.chaos import load_scenario

    try:
        scenario = load_scenario(args.scenario)
    except (ValueError, FileNotFoundError) as exc:
        raise SystemExit(str(exc))
    print(scenario.to_json())
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from repro.chaos import load_scenario, run_matrix

    trace = _load_trace(args.trace)
    try:
        scenarios = [
            load_scenario(name)
            for name in _parse_axis(args.scenarios, str, "--scenarios")
        ]
    except (ValueError, FileNotFoundError) as exc:
        raise SystemExit(str(exc))
    policies = _parse_axis(args.policies, str, "--policies")
    config = ReplayConfig(**{
        field: _replay_values(args, option)[0]
        for option, (field, _, _) in _REPLAY_OPTIONS.items()
    })
    workers = _workers(args)
    telemetry = EventBus([_Progress()]) if args.progress else None
    try:
        scorecard = run_matrix(
            trace,
            scenarios,
            policies,
            config=config,
            seed=args.seed,
            workers=workers,
            telemetry=telemetry,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"trace {trace.name}: {len(scenarios)} scenario(s) x "
          f"{len(policies)} policy(ies), N_Tar={args.target}, seed={args.seed}")
    rows = []
    for score in scorecard.to_dict()["scores"]:
        rows.append(
            [
                score["scenario"],
                score["policy"],
                f"{score['availability']:.1%}",
                _fmt_opt(score["availability_under_injection"], ".1%"),
                _fmt_opt(score["recovery_seconds"], ".0f"),
                f"{score['slo_violation_minutes']:.1f}",
                f"{score['cost_overshoot']:+.1%}",
                _fmt_opt(score["od_peak"], "d"),
            ]
        )
    _print_table(
        ["scenario", "policy", "avail", "storm avail", "recovery s",
         "SLO viol min", "cost overshoot", "OD peak"],
        rows,
    )
    if args.out:
        scorecard.save(args.out)
        print(f"\nwrote scorecard to {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the linter is a dev tool; simulation commands should
    # not pay for it (and it must never import the simulator).
    from repro.devtools.lint.cli import run as lint_run

    return lint_run(args)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_replay_options(parser: argparse.ArgumentParser, *, grid: bool) -> None:
    """``_REPLAY_OPTIONS`` with ``ReplayConfig``'s defaults; with ``grid``
    each takes a comma list, one grid axis."""
    defaults = ReplayConfig()
    for option, (field, cast, what) in _REPLAY_OPTIONS.items():
        parser.add_argument(
            option,
            type=None if grid else cast,
            default=getattr(defaults, field),
            help=what + (", comma list" if grid else "") + " (default: %(default)s)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SkyServe/SpotHedge reproduction — simulated sky serve",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="stdlib logging level for all repro.* modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="deploy one service and serve a workload")
    serve.add_argument("--trace", default="aws1", help="canned name or trace file")
    serve.add_argument("--spec", help="service spec JSON file (Listing 1 shape)")
    serve.add_argument("--workload", default="arena", choices=WORKLOAD_KINDS)
    serve.add_argument("--rate", type=float, default=0.5, help="base req/s")
    serve.add_argument("--hours", type=float, default=2.0)
    serve.add_argument("--target", type=int, default=4, help="N_Tar")
    serve.add_argument("--overprovision", type=int, default=2, help="N_Extra")
    serve.add_argument("--accelerator", default="V100")
    serve.add_argument("--profile", default="llama2-70b", choices=sorted(MODEL_PROFILES))
    serve.add_argument("--timeout", type=float, default=100.0)
    serve.add_argument("--batch-slope", type=float, default=0.0,
                       help="per-stream decode slowdown per extra co-resident "
                            "stream (0 = fixed-rate decode)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="bound each replica's server queue; excess "
                            "requests are shed and retried by the client")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--events",
                       help="write every telemetry event to this JSONL file")
    serve.add_argument("--metrics-out",
                       help="write a Prometheus text-format snapshot here")
    serve.set_defaults(func=_cmd_serve)

    serve_sub = serve.add_subparsers(
        dest="serve_command", required=False, metavar="{up,ablate}",
        help="multi-tenant control-plane commands (omit to serve one service)")
    up = serve_sub.add_parser(
        "up", help="run a multi-tenant deployment spec on a shared cloud")
    up.add_argument("deployment", help="deployment spec (.json or .yaml)")
    up.add_argument("--trace", default="aws1", help="canned name or trace file")
    up.add_argument("--hours", type=float, default=None,
                    help="override the spec's duration")
    up.add_argument("--seed", type=int, default=0)
    up.add_argument("--report",
                    help="write the canonical fleet cost/SLO report JSON here")
    up.add_argument("--events",
                    help="write a JSONL telemetry event log to this path")
    up.set_defaults(func=_cmd_serve_up)
    ablate = serve_sub.add_parser(
        "ablate", help="1-vs-N contention ablation (solo/fair-share/priority)")
    ablate.add_argument("deployment", help="deployment spec (.json or .yaml)")
    ablate.add_argument("--trace", default="aws1", help="canned name or trace file")
    ablate.add_argument("--hours", type=float, default=None,
                        help="override the spec's duration")
    ablate.add_argument("--seed", type=int, default=0)
    ablate.add_argument("--report", help="write the ablation JSON artifact here")
    ablate.set_defaults(func=_cmd_serve_ablate)

    compare = sub.add_parser("compare", help="run the SS5.1 four-system comparison")
    compare.add_argument("scenario", choices=["available", "volatile"])
    compare.add_argument("--hours", type=float, default=3.0)
    compare.add_argument("--rate", type=float, default=1.0)
    compare.add_argument("--seed", type=int, default=6)
    compare.add_argument("--json", help="also write raw results to this JSON file")
    compare.set_defaults(func=_cmd_compare)

    replay = sub.add_parser(
        "replay", help="replay SS5.2 policies over a trace, one point or a grid")
    replay.add_argument("--trace", default="gcp1", help="canned name or trace file")
    replay.add_argument("--policies", default=_REPLAY_DEFAULT,
                        help="comma list of serving policies "
                             f"({','.join(POLICIES.names())})")
    _add_replay_options(replay, grid=True)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--workers", type=int, default=1,
                        help="process-pool size; output is identical for any value")
    replay.add_argument("--progress", action="store_true",
                        help="print per-point progress to stderr")
    replay.add_argument("--events",
                        help="write telemetry events to this JSONL file "
                             "(one point only)")
    replay.add_argument("--json", help="also write raw results to this JSON file")
    replay.add_argument("--engine", choices=ENGINES, default="hybrid",
                        help="replay engine; hybrid fast-forwards the steps "
                             "it can prove repeat, discrete steps through every "
                             "one, with byte-identical results (default: hybrid)")
    replay.set_defaults(func=_cmd_replay)

    hetero = sub.add_parser(
        "hetero", help="heterogeneous GPU fleet experiments"
    )
    hetero_sub = hetero.add_subparsers(dest="hetero_cmd", required=True)
    frontier = hetero_sub.add_parser(
        "frontier",
        help="homogeneous-vs-heterogeneous cost/availability frontier",
    )
    frontier.add_argument(
        "--fleets",
        default="",
        help=f"comma-separated fleet names (default: all of {list(FLEETS)})",
    )
    frontier.add_argument("--target", type=int, default=ReplayConfig().n_tar,
                          help="N_Tar in reference-replica units "
                               "(default: %(default)s)")
    frontier.add_argument("--seed", type=int, default=0)
    frontier.add_argument("--duration", type=float, default=None,
                          help="window the base trace to this many hours")
    frontier.add_argument("--workers", type=int, default=1,
                          help="process-pool size; output is identical for any value")
    frontier.add_argument("--json", help="write the byte-stable frontier JSON here")
    frontier.set_defaults(func=_cmd_hetero_frontier)

    trace = sub.add_parser("trace", help="inspect or export a trace")
    trace.add_argument("name", help="canned name or trace file")
    trace.add_argument("--out", help="write to .json or .csv")
    trace.set_defaults(func=_cmd_trace)

    analyze = sub.add_parser("analyze", help="correlation + search-space analysis")
    analyze.add_argument("--trace", default="aws3")
    analyze.add_argument("--threshold", type=int, default=1)
    analyze.set_defaults(func=_cmd_analyze)

    events = sub.add_parser(
        "events", help="print a JSONL telemetry log, one line per event")
    events.add_argument("log", help="JSONL file written by serve/replay --events")
    events.add_argument("--kind", help="only print events of this kind")
    events.set_defaults(func=_cmd_events)

    report = sub.add_parser(
        "report",
        help="render a run report: terminal dashboard + canonical JSON",
    )
    report.add_argument("log", help="JSONL event log (from serve/replay --events)")
    report.add_argument("--top-k", type=int, default=8,
                        help="hot phases shown in the dashboard")
    report.add_argument("--json", help="write the canonical report JSON here")
    report.add_argument("--no-dashboard", action="store_true",
                        help="suppress the terminal dashboard")
    report.set_defaults(func=_cmd_report)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection scenarios and the robustness matrix",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_list = chaos_sub.add_parser("list", help="list bundled scenarios")
    chaos_list.set_defaults(func=_cmd_chaos_list)

    chaos_show = chaos_sub.add_parser(
        "show", help="print a scenario as canonical JSON"
    )
    chaos_show.add_argument("scenario", help="bundled name or scenario JSON file")
    chaos_show.set_defaults(func=_cmd_chaos_show)

    chaos_run = chaos_sub.add_parser(
        "run",
        help="run the policy x scenario robustness matrix (parallel)",
    )
    chaos_run.add_argument("--trace", default="gcp1", help="canned name or trace file")
    chaos_run.add_argument("--scenarios", default="preemption-storm",
                           help="comma list of bundled names or scenario files")
    chaos_run.add_argument("--policies", default="SpotHedge,EvenSpread",
                           help="comma list of serving policies "
                                f"({','.join(POLICIES.names())})")
    _add_replay_options(chaos_run, grid=False)
    chaos_run.add_argument("--seed", type=int, default=0)
    chaos_run.add_argument("--workers", type=int, default=1,
                           help="process-pool size; output is identical for any value")
    chaos_run.add_argument("--progress", action="store_true",
                           help="print per-point progress to stderr")
    chaos_run.add_argument("--out", help="write the scorecard JSON here")
    chaos_run.set_defaults(func=_cmd_chaos_run)

    lint = sub.add_parser(
        "lint",
        help="determinism & simulation-hygiene static analysis",
    )
    from repro.devtools.lint.cli import add_lint_args

    add_lint_args(lint)
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``repro events log | head``).
        # Point stdout at devnull so interpreter shutdown doesn't raise
        # again while flushing, and exit with the conventional 128+SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
