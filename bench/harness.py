"""One benchmark repeat: build a workload, time its public call, check
and summarise what it returned.

``bench/run.py`` runs this file once per repeat, each time in a fresh
process, and reads the JSON object it prints on its last line::

    PYTHONPATH=src python bench/harness.py --workload serve_steady --seed 0 [--trace]

Only the public API is used: ``SkyService``, ``ControlPlane``,
``TraceReplayer``, the workload generators and the bundled traces and
configs.  The seed drives trace generation, workload generation and the
service/replayer seed; the simulated client is an open loop (arrivals
follow the workload's schedule whatever the service does, and latency
counts from each request's arrival time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
HOUR = 3600.0
#: Replay grid axes; every point runs serially on the default engine.
REPLAY_N_TARS = (2, 4, 8)
HETERO_N_TARS = (4, 8)
HETERO_TYPES = ("g5.48xlarge", "p4d.24xlarge")
#: A simulation's timed call is split into this many equal stretches of
#: simulated time; see :func:`_checkpoints`.
SEGMENTS = 24
#: (unit, better direction) of each outcome of the simulation itself.
#: They are deterministic per seed, so ``compare.py`` requires them to
#: be identical (any change counts).
SIM_UNITS = {
    "sim_failure_rate": ("share", "lower"),
    "sim_availability": ("share", "higher"),
    "sim_cost_usd": ("usd", "lower"),
    "sim_cost_rel": ("share", "lower"),
    "sim_ttft_p50_s": ("s", "lower"),
    "sim_ttft_p99_s": ("s", "lower"),
    "sim_latency_p50_s": ("s", "lower"),
    "sim_latency_p99_s": ("s", "lower"),
}

__all__ = ["WORKLOADS", "Prepared", "main"]


@dataclass
class Prepared:
    """A workload ready to run: the timed call and how to read its result."""

    call: Callable[[], Any]
    summarise: Callable[[Any], "Summary"]
    #: ``PhaseProfiler`` the replay loop fills when traced, else None.
    profiler: Any = None
    #: ``perf_counter()`` at each segment boundary inside the call.
    marks: list[float] = field(default_factory=list)


@dataclass
class Summary:
    """What one timed call produced."""

    #: Units of work done: requests resolved, or replay steps.
    work: int
    #: Operations attempted: requests sent, or replay steps.
    attempted: int
    #: Deterministic simulated outcomes (``sim_*`` metrics).
    sim: dict[str, float]
    #: Sample counts behind the percentile outcomes.
    samples: dict[str, int]
    #: sha256 of the canonical output.
    digest: str
    #: Failed output checks, as messages.
    failures: list[str] = field(default_factory=list)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _percentiles(prefix: str, samples: list[float]) -> dict[str, float]:
    from repro.sim.metrics import percentile

    return {f"{prefix}_p50_s": percentile(samples, 50), f"{prefix}_p99_s": percentile(samples, 99)}


def _od_hourly(accelerator: str, cloud: str = "aws") -> float:
    """On-demand $/h of the instance type a controller runs
    ``accelerator`` on in ``cloud`` (the cheapest spot type carrying it)."""
    from repro.cloud.catalog import default_catalog

    types = [t for t in default_catalog().with_accelerator(accelerator) if t.cloud == cloud]
    return min(types, key=lambda t: t.spot_hourly).on_demand_hourly


def _checkpoints(engine: Any, duration: float, marks: list[float]) -> None:
    """Stamp the host clock at every 1/SEGMENTS of simulated time.

    The stamps split one timed call into segments whose host time
    ``run.py`` compares across repeats, so a burst of machine noise in
    one repeat does not move the result.  They read the clock and touch
    no simulation state, so the simulated outcomes are unchanged.
    """
    for k in range(1, SEGMENTS):
        engine.call_at(duration * k / SEGMENTS, lambda: marks.append(time.perf_counter()))


def _check_clients(clients: dict[str, Any], failures: list[str]) -> None:
    """Every request ends exactly once: completed + failed + still open
    == sent, per client."""
    for name, client in clients.items():
        stats = client.stats()
        ended = stats.completed + stats.failed + client.spans.open_count
        if ended != len(client.workload):
            failures.append(
                f"{name}: completed+failed+open = {ended} != sent {len(client.workload)}"
            )


def _client_outcomes(clients: list[Any]) -> tuple[dict[str, float], dict[str, int], int, int]:
    latencies: list[float] = []
    ttfts: list[float] = []
    sent = resolved = failed = 0
    for client in clients:
        stats = client.stats()
        latencies += client.latencies.samples
        ttfts += client.ttfts.samples
        sent += len(client.workload)
        resolved += stats.completed + stats.failed
        failed += stats.failed
    sim = {"sim_failure_rate": failed / sent if sent else 0.0}
    sim.update(_percentiles("sim_ttft", ttfts))
    sim.update(_percentiles("sim_latency", latencies))
    samples = {"sent": sent, "latency": len(latencies), "ttft": len(ttfts)}
    return sim, samples, sent, resolved


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _service(trace: Any, workload: Any, duration: float, seed: int, scenario: Any) -> Prepared:
    """SkyService + SpotHedge over the §5.1 regions, Llama-2-70B, N_Tar 4."""
    from repro.core import spothedge
    from repro.experiments.endtoend import SKYSERVE_REGIONS, spot_zone_costs
    from repro.serving.inference import llama2_70b_profile
    from repro.serving.service import SkyService
    from repro.serving.spec import DomainFilter, ReplicaPolicyConfig, ResourceSpec, ServiceSpec

    zones = list(trace.zone_ids)
    policy = spothedge(zones, zone_costs=spot_zone_costs(zones, "A10G"))
    spec = ServiceSpec(
        name="bench",
        replica_policy=ReplicaPolicyConfig(fixed_target=4),
        resources=ResourceSpec(
            accelerator="A10G",
            any_of=tuple(
                DomainFilter(cloud=region.split(":")[0], region=region.split(":")[1])
                for region in SKYSERVE_REGIONS
            ),
        ),
        request_timeout=100.0,
    )
    service = SkyService(
        spec, policy, trace, profile=llama2_70b_profile(), seed=seed, scenario=scenario
    )
    marks: list[float] = []
    _checkpoints(service.engine, duration, marks)

    def summarise(report: Any) -> Summary:
        failures: list[str] = []
        _check_clients({"client": service.client}, failures)
        sim, samples, sent, resolved = _client_outcomes([service.client])
        n_tar = service.controller.autoscaler.n_tar
        sim.update(
            sim_availability=report.availability,
            sim_cost_usd=report.total_cost,
            sim_cost_rel=report.cost_relative_to_on_demand(_od_hourly("A10G"), n_tar),
        )
        return Summary(resolved, sent, sim, samples, _sha256(repr(report)), failures)

    return Prepared(lambda: service.run(workload, duration), summarise, marks=marks)


def serve_steady(seed: int, size: float, traced: bool) -> Prepared:
    from repro.experiments.endtoend import e2e_trace
    from repro.workloads import arena_workload

    duration = 24 * HOUR * size
    trace = e2e_trace("available", duration=duration, seed=seed)
    workload = arena_workload(
        duration,
        base_rate=1.0,
        diurnal_amplitude=0.4,
        burst_multiplier=1.8,
        max_output_tokens=800,
        seed=seed,
    )
    return _service(trace, workload, duration, seed, scenario=None)


def serve_churn(seed: int, size: float, traced: bool) -> Prepared:
    from repro.chaos import load_scenario
    from repro.experiments.endtoend import e2e_trace
    from repro.workloads import poisson_workload

    duration = 168 * HOUR * size
    trace = e2e_trace("volatile", duration=duration, seed=seed)
    workload = poisson_workload(duration, rate=0.05, seed=seed)
    scenario = load_scenario(str(ROOT / "configs" / "scenarios" / "kitchen-sink.json"))
    return _service(trace, workload, duration, seed, scenario=scenario)


def fleet_3tenant(seed: int, size: float, traced: bool) -> Prepared:
    from repro.cloud.traces import aws1
    from repro.control.plane import ControlPlane
    from repro.control.spec import load_deployment

    duration = 12 * HOUR * size
    deployment = load_deployment(ROOT / "configs" / "deployments" / "three-tenants.json")
    plane = ControlPlane(deployment, aws1(), seed=seed)
    marks: list[float] = []
    _checkpoints(plane.engine, duration, marks)

    def summarise(report: Any) -> Summary:
        failures: list[str] = []
        _check_clients(plane.clients, failures)
        tenant_total = sum(t.total_cost for t in report.tenants)
        if not math.isclose(tenant_total, report.fleet_total_cost, rel_tol=1e-9, abs_tol=1e-6):
            failures.append(
                f"tenant bills sum to {tenant_total!r}, fleet bill is {report.fleet_total_cost!r}"
            )
        sim, samples, sent, resolved = _client_outcomes(list(plane.clients.values()))
        baseline = sum(
            _od_hourly(tenant.service.resources.accelerator)
            * plane.controllers[tenant.name].autoscaler.n_tar
            * duration
            / HOUR
            for tenant in deployment.tenants
        )
        sim.update(
            sim_availability=min(t.availability for t in report.tenants),
            sim_cost_usd=report.fleet_total_cost,
            sim_cost_rel=report.fleet_total_cost / baseline,
        )
        return Summary(resolved, sent, sim, samples, _sha256(report.to_json()), failures)

    return Prepared(lambda: plane.run(duration), summarise, marks=marks)


def replay_grid(seed: int, size: float, traced: bool) -> Prepared:
    from repro.cloud.catalog import hetero_catalog
    from repro.cloud.gpus import (
        make_hetero_trace,
        pool_capacity_weights,
        pool_price_multipliers,
        pool_spot_costs,
    )
    from repro.cloud.pricing import PriceBook
    from repro.cloud.traces import aws1, aws2, aws3, gcp1
    from repro.core import (
        OnDemandOnlyPolicy,
        even_spread_policy,
        hetero_spothedge,
        round_robin_policy,
        spothedge,
    )
    from repro.experiments.replay import ReplayConfig, TraceReplayer
    from repro.telemetry.profile import PhaseProfiler

    def canned(make: Callable[[], Any]) -> Any:
        trace = make()
        return trace if size >= 1 else trace.window(0.0, trace.duration * size)

    factories = (spothedge, round_robin_policy, even_spread_policy, OnDemandOnlyPolicy)
    points: list[tuple[Any, Any, Callable[[], Any]]] = []
    for trace in (canned(aws1), canned(aws2), canned(aws3), canned(gcp1)):
        for factory in factories:
            for n_tar in REPLAY_N_TARS:
                points.append(
                    (trace, ReplayConfig(n_tar=n_tar), lambda f=factory, t=trace: f(t.zone_ids))
                )

    # aws3 expanded into (zone, instance type) pools, priced and weighted
    # in g5.48xlarge units, as in repro.experiments.hetero.
    catalog = hetero_catalog()
    book = PriceBook(catalog)
    reference = catalog.get(HETERO_TYPES[0])
    hetero = make_hetero_trace(canned(aws3), HETERO_TYPES, catalog, seed=seed)
    pools = list(hetero.zone_ids)
    costs = pool_spot_costs(pools, book, reference="A10G")
    weights = pool_capacity_weights(pools, catalog, reference="A10G")
    for n_tar in HETERO_N_TARS:
        config = ReplayConfig(
            n_tar=n_tar,
            k=reference.on_demand_hourly / reference.spot_hourly,
            zone_price_multipliers=pool_price_multipliers(
                pools, book, reference_price=reference.spot_hourly
            ),
            zone_capacity_weights=weights,
        )
        points.append(
            (
                hetero,
                config,
                lambda: hetero_spothedge(pools, pool_costs=costs, pool_weights=weights),
            )
        )

    profiler = PhaseProfiler() if traced else None
    marks: list[float] = []

    def call() -> list[Any]:
        results = []
        for trace, config, make_policy in points:
            results.append(
                TraceReplayer(trace, config, seed=seed, profiler=profiler).run(make_policy())
            )
            marks.append(time.perf_counter())
        return results

    def summarise(results: list[Any]) -> Summary:
        failures: list[str] = []
        rows = []
        steps = 0
        for (trace, _config, _make), result in zip(points, results):
            steps += trace.n_steps
            label = f"{result.policy}/{result.trace}/n_tar={result.n_tar}"
            if not 0.0 <= result.availability <= 1.0:
                failures.append(f"{label}: availability {result.availability!r} outside [0, 1]")
            if result.eff_availability is not None and not 0.0 <= result.eff_availability <= 1.0:
                failures.append(f"{label}: eff_availability {result.eff_availability!r}")
            for name in ("relative_cost", "spot_cost", "od_cost"):
                value = getattr(result, name)
                if not (math.isfinite(value) and value >= 0.0):
                    failures.append(f"{label}: {name} {value!r} not finite and >= 0")
            if len(result.ready_series) != trace.n_steps:
                failures.append(f"{label}: {len(result.ready_series)} ready samples")
            rows.append(
                (
                    result.policy,
                    result.trace,
                    result.n_tar,
                    result.availability,
                    result.relative_cost,
                    result.spot_cost,
                    result.od_cost,
                    result.preemptions,
                    result.launch_failures,
                    result.eff_availability,
                    hashlib.sha256(result.ready_series.astype("<i8").tobytes()).hexdigest(),
                )
            )
        sim = {
            "sim_availability": sum(r.availability for r in results) / len(results),
            "sim_cost_rel": sum(r.relative_cost for r in results) / len(results),
        }
        return Summary(steps, steps, sim, {"points": len(results)}, _sha256(repr(rows)), failures)

    return Prepared(call, summarise, profiler, marks)


#: Workload name -> ``(seed, size, traced) -> Prepared``.  ``size``
#: scales simulated duration (and the replay traces); 1.0 is the
#: benchmark, the harness tests use a small fraction.
WORKLOADS: dict[str, Callable[[int, float, bool], Prepared]] = {
    "serve_steady": serve_steady,
    "serve_churn": serve_churn,
    "fleet_3tenant": fleet_3tenant,
    "replay_grid": replay_grid,
}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced repeat
# ----------------------------------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Any, wall_s: float, summary: Summary, profiler: Any) -> dict[str, float]:
    """Per-layer metrics of one traced timed call (``trace.overhead`` is
    added by the parent, which has the untraced median)."""
    calls = tracer.calls
    self_s = tracer.self_s
    outcomes = tracer.outcomes
    layer_s = tracer.layer_self_s()
    events = sum(engine.events_processed for engine in tracer.engines.values())
    pending = sum(engine.pending_events for engine in tracer.engines.values())
    picks = calls["balancer.pick"]
    handles = calls["replica.handle"]
    launches = calls["cloud.request_instance"] + calls["cloud.reject_instance"]
    launch_failures = sum(c.launch_failures.value for c in tracer.clouds.values())
    denials = sum(sum(b.rejected.values()) for b in tracer.brokers.values())
    policy_calls = sum(n for name, n in calls.items() if name.startswith("policy."))
    metrics: dict[str, float] = {
        "engine.scheduled": tracer.scheduled,
        "engine.events": events,
        "engine.cancelled": tracer.scheduled - events - pending,
        "engine.useful_ratio": _ratio(events, tracer.scheduled),
        "controller.route.calls": calls["controller.route"],
        "controller.route.self_s": self_s["controller.route"],
        "controller.ready_replicas.calls": calls["controller.ready_replicas"],
        "controller.tick.calls": calls.get("controller.cb:_tick", 0),
        "balancer.pick.calls": picks,
        "balancer.pick.self_s": self_s["balancer.pick"],
        "balancer.candidates_mean": _ratio(outcomes["balancer.candidates"], picks),
        "balancer.none_share": _ratio(outcomes["balancer.none"], picks),
        "replica.handle.calls": handles,
        "replica.accept_ratio": _ratio(handles - outcomes["replica.shed"], handles),
        "inference.submit.calls": calls["inference.submit"],
        "client.start_s": tracer.total_s["client.start"],
        "client.attempts_per_request": _ratio(calls["controller.route"], summary.attempted),
        "policy.calls": policy_calls,
        "cloud.request_instance.calls": calls["cloud.request_instance"],
        "cloud.launch_fail_ratio": _ratio(launch_failures, launches),
        "broker.denials": denials,
    }
    for layer, seconds in layer_s.items():
        metrics[f"{layer}.self_s"] = seconds
    phases = profiler.stats() if profiler is not None else {}
    stride = profiler.stride if profiler is not None else 1
    phase_total = 0.0
    for phase in ("promote", "preempt", "policy", "reconcile", "accrue"):
        stats = phases.get(f"replay.{phase}")
        seconds = stats.total_s * stride if stats is not None else 0.0
        metrics[f"replay.{phase}_s"] = seconds
        phase_total += seconds
    replay_wall = tracer.total_s["replay.run"]
    metrics["replay.steps"] = summary.work if profiler is not None else 0
    metrics["replay.profile_conservation"] = _ratio(phase_total, replay_wall)
    unattributed = wall_s - tracer.attributed_s()
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.conservation"] = _ratio(sum(layer_s.values()) + unattributed, wall_s)
    return metrics


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(
    workload: str,
    seed: int,
    *,
    size: float = 1.0,
    traced: bool = False,
    spans: Optional[str] = None,
) -> dict[str, Any]:
    """Build, time and summarise one repeat in this process."""
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        prepared = WORKLOADS[workload](seed, size, traced)
        if tracer is not None:
            tracer.begin()
        timed_at = time.monotonic()
        start = time.perf_counter()
        result = prepared.call()
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = end - start
    bounds = [start, *prepared.marks, end]
    summary = prepared.summarise(result)
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "traced": traced,
        "timed_at": timed_at,
        "wall_s": wall_s,
        "segments_s": [b - a for a, b in zip(bounds, bounds[1:])],
        "work": summary.work,
        "attempted": summary.attempted,
        "sim": summary.sim,
        "samples": summary.samples,
        "output_sha256": summary.digest,
        "failures": summary.failures,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, wall_s, summary, prepared.profiler)
        if spans:
            tracer.write_span_log(spans)
    record["peak_rss_mb"] = _peak_rss_mb()
    return record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the sampled span log here (traced only)")
    args = parser.parse_args(argv)
    record = run_once(
        args.workload, args.seed, size=args.size, traced=args.trace, spans=args.spans
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
