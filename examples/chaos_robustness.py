"""Fault-injection scenarios and the robustness scorecard.

``repro.chaos`` (docs/CHAOS.md) turns "what happens to each policy
during one specific, nasty failure?" into a declarative scenario plus a
deterministic scorecard.  This example does both halves:

* **live injection** — run one SpotHedge ``SkyService`` through the
  bundled ``preemption-storm`` scenario with telemetry attached, and
  print the chaos events the injector emitted;
* **the matrix** — replay SpotHedge vs Even Spread against two
  scenarios with ``run_matrix`` and print the scorecard (availability
  under the storm, recovery time, SLO-violation minutes, cost
  overshoot vs each policy's own fault-free baseline).

Run:  python examples/chaos_robustness.py
"""

from repro.chaos import builtin_scenario, run_matrix
from repro.cloud import HOUR, aws2, gcp1
from repro.core import spothedge
from repro.serving import ReplicaPolicyConfig, ResourceSpec, ServiceSpec, SkyService
from repro.telemetry import EventBus, RingBufferSink
from repro.workloads import poisson_workload

SEED = 7


def live_injection() -> None:
    """One service, one storm, telemetry on."""
    trace = aws2()
    scenario = builtin_scenario("preemption-storm")
    spec = ServiceSpec(
        name="chaos-demo",
        replica_policy=ReplicaPolicyConfig(fixed_target=4, num_overprovision=2),
        resources=ResourceSpec(accelerator="V100"),
    )
    sink = RingBufferSink(capacity=100_000)
    service = SkyService(
        spec,
        spothedge(trace.zone_ids, num_overprovision=2),
        trace,
        seed=SEED,
        telemetry=EventBus([sink]),
        scenario=scenario,  # <- the whole opt-in
    )
    duration = 4 * HOUR
    report = service.run(poisson_workload(duration, rate=0.3, seed=SEED), duration)
    chaos_events = [e for e in sink.events if e.kind.startswith("chaos.")]
    print(f"live run: availability {report.availability:.1%}, "
          f"{report.preemptions} preemptions, "
          f"{len(chaos_events)} chaos events")
    for event in chaos_events[:8]:
        print(f"  t={event.time:7.0f}  {event.kind}")
    if len(chaos_events) > 8:
        print(f"  ... {len(chaos_events) - 8} more")


def robustness_matrix() -> None:
    """SpotHedge vs Even Spread across two scenarios."""
    trace = gcp1()
    scenarios = [
        builtin_scenario("preemption-storm"),
        builtin_scenario("capacity-blackout"),
    ]
    scorecard = run_matrix(
        trace,
        scenarios,
        ["SpotHedge", "EvenSpread"],
        seed=SEED,
    )
    print(f"\nscorecard on {trace.name} (baselines: {scorecard.baselines})")
    for score in scorecard.to_dict()["scores"]:
        under = score["availability_under_injection"]
        recovery = score["recovery_seconds"]
        print(
            f"  {score['scenario']:<18} {score['policy']:<11} "
            f"avail {score['availability']:6.1%}  "
            f"storm {under:6.1%}  "
            f"recovery {'never' if recovery is None else f'{recovery:.0f}s':>6}  "
            f"cost {score['cost_overshoot']:+.1%}  "
            f"OD peak {score['od_peak']}"
        )


if __name__ == "__main__":
    live_injection()
    robustness_matrix()
