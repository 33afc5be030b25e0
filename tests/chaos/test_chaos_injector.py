"""Live injection seams: warning gate, cold-start swap, surcharges,
network degradation, telemetry — and the zero-overhead contract."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import (
    ChaosInjector,
    ColdStartSpike,
    DegradedNetworkModel,
    NetworkDegradation,
    PriceSurge,
    ScenarioSpec,
    WarningDisruption,
    compile_scenario,
)
from repro.cloud import CloudConfig, SimCloud, SpotTrace, default_network
from repro.sim import SimulationEngine
from repro.telemetry import EventBus, RingBufferSink

REPO_ROOT = Path(__file__).resolve().parents[2]
STEP = 300.0


def small_trace(n_steps=48):
    zones = ["aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b"]
    capacity = np.full((2, n_steps), 4, dtype=np.int64)
    return SpotTrace("small", zones, STEP, capacity)


def armed(scenario, *, telemetry=None, config=None):
    engine = SimulationEngine(telemetry=telemetry)
    trace = small_trace()
    compiled = compile_scenario(scenario, trace, root_seed=0)
    cloud = SimCloud(engine, compiled.trace, config=config)
    injector = ChaosInjector(compiled, engine, cloud, root_seed=0)
    injector.arm()
    return engine, cloud, injector


class TestWarningGate:
    def test_suppresses_inside_window(self):
        scenario = ScenarioSpec(
            "w",
            (WarningDisruption(start=100.0, end=1000.0, suppress_prob=1.0),),
        )
        engine, cloud, _ = armed(scenario)
        assert cloud.warning_gate is not None
        engine.run_until(500.0)
        assert cloud.warning_gate("aws:us-west-2:us-west-2a", 600.0) is None

    def test_passes_outside_window(self):
        scenario = ScenarioSpec(
            "w",
            (WarningDisruption(start=100.0, end=1000.0, suppress_prob=1.0),),
        )
        engine, cloud, _ = armed(scenario)
        assert cloud.warning_gate("aws:us-west-2:us-west-2a", 50.0) == 0.0
        engine.run_until(2000.0)
        assert cloud.warning_gate("aws:us-west-2:us-west-2a", 2100.0) == 0.0

    def test_extra_delay_defers_exactly_once(self):
        scenario = ScenarioSpec(
            "w",
            (
                WarningDisruption(
                    start=0.0, end=1000.0, suppress_prob=0.0, extra_delay=45.0
                ),
            ),
        )
        engine, cloud, _ = armed(scenario)
        engine.run_until(100.0)
        key = ("aws:us-west-2:us-west-2a", 400.0)
        assert cloud.warning_gate(*key) == 45.0
        # The rescheduled delivery of the same warning passes through.
        assert cloud.warning_gate(*key) == 0.0
        # ... but a fresh warning is delayed again.
        assert cloud.warning_gate("aws:us-west-2:us-west-2a", 500.0) == 45.0

    def test_suppression_emits_telemetry(self):
        sink = RingBufferSink()
        scenario = ScenarioSpec(
            "w",
            (WarningDisruption(start=0.0, end=1000.0, suppress_prob=1.0),),
        )
        engine, cloud, _ = armed(scenario, telemetry=EventBus([sink]))
        engine.run_until(10.0)
        cloud.warning_gate("aws:us-west-2:us-west-2b", 100.0)
        suppressed = [
            e
            for e in sink.events
            if e.kind == "chaos.injected" and e.detail == "warning suppressed"
        ]
        assert len(suppressed) == 1
        assert suppressed[0].zones == ["aws:us-west-2:us-west-2b"]

    def test_no_disruption_leaves_gate_unset(self):
        scenario = ScenarioSpec(
            "p", (PriceSurge(start=0.0, end=100.0),)
        )
        _, cloud, _ = armed(scenario)
        assert cloud.warning_gate is None


class TestColdStartSwap:
    def test_config_scaled_inside_window_and_restored(self):
        base = CloudConfig(provision_delay_mean=60.0, setup_delay_mean=120.0)
        scenario = ScenarioSpec(
            "cs",
            (
                ColdStartSpike(start=1000.0, end=2000.0, factor=3.0),
                ColdStartSpike(start=1500.0, end=2500.0, factor=2.0),
            ),
        )
        engine, cloud, _ = armed(scenario, config=base)
        assert cloud.config is base
        engine.run_until(1200.0)
        assert cloud.config.provision_delay_mean == 180.0
        assert cloud.config.setup_delay_mean == 360.0
        engine.run_until(1700.0)  # overlap: 3 * 2
        assert cloud.config.provision_delay_mean == 360.0
        engine.run_until(2200.0)  # only the second spike remains
        assert cloud.config.provision_delay_mean == 120.0
        engine.run_until(3000.0)
        # Restored bit-for-bit: the original object, not a copy.
        assert cloud.config is base

    def test_other_config_fields_survive_the_swap(self):
        base = CloudConfig(preempt_warning=120.0, failure_detect_delay=7.0)
        scenario = ScenarioSpec(
            "cs", (ColdStartSpike(start=0.0, end=1000.0, factor=2.0),)
        )
        engine, cloud, _ = armed(scenario, config=base)
        engine.run_until(500.0)
        assert cloud.config.preempt_warning == 120.0
        assert cloud.config.failure_detect_delay == 7.0


class TestPriceSurge:
    def test_surcharge_windows_registered(self):
        trace = small_trace()
        scenario = ScenarioSpec(
            "p",
            (
                PriceSurge(
                    start=100.0, end=200.0, zones=(trace.zone_ids[0],),
                    multiplier=5.0,
                ),
                PriceSurge(start=300.0, end=400.0, multiplier=2.0),
            ),
        )
        _, cloud, _ = armed(scenario)
        assert cloud.billing._surcharges == [
            (100.0, 200.0, frozenset({trace.zone_ids[0]}), 5.0),
            (300.0, 400.0, frozenset(trace.zone_ids), 2.0),
        ]


class TestDegradedNetwork:
    def test_cross_region_pays_extra_inside_window(self):
        engine = SimulationEngine()
        model = DegradedNetworkModel(
            default_network(),
            engine,
            [NetworkDegradation(start=100.0, end=200.0, extra_rtt=0.25)],
        )
        base = default_network()
        a, b = "aws:us-west-2", "aws:eu-central-1"
        assert model.rtt(a, b) == base.rtt(a, b)  # t=0, inactive
        engine.run_until(150.0)
        assert model.rtt(a, b) == pytest.approx(base.rtt(a, b) + 0.25)
        # Same-region traffic is never degraded.
        assert model.rtt(a, a) == base.rtt(a, a)
        engine.run_until(250.0)
        assert model.rtt(a, b) == base.rtt(a, b)

    def test_region_scoping(self):
        engine = SimulationEngine()
        model = DegradedNetworkModel(
            default_network(),
            engine,
            [
                NetworkDegradation(
                    start=0.0, end=100.0, extra_rtt=0.5,
                    regions=("aws:ap-northeast-1",),
                )
            ],
        )
        base = default_network()
        engine.run_until(50.0)
        assert model.rtt("aws:us-west-2", "aws:ap-northeast-1") == pytest.approx(
            base.rtt("aws:us-west-2", "aws:ap-northeast-1") + 0.5
        )
        assert model.rtt("aws:us-west-2", "aws:eu-central-1") == base.rtt(
            "aws:us-west-2", "aws:eu-central-1"
        )

    def test_scoped_degradations_pin_rtts_inside_and_outside_windows(self):
        # Scopes by prefixed and by bare region name, plus an unscoped
        # window overlapping both; the penalties add in declaration order.
        engine = SimulationEngine()
        model = DegradedNetworkModel(
            default_network(),
            engine,
            [
                NetworkDegradation(
                    start=0.0, end=100.0, extra_rtt=0.5, regions=("aws:ap-northeast-1",)
                ),
                NetworkDegradation(
                    start=50.0, end=150.0, extra_rtt=0.25, regions=("eu-central-1",)
                ),
                NetworkDegradation(start=120.0, end=200.0, extra_rtt=0.1),
            ],
        )
        west, tokyo, frankfurt = "aws:us-west-2", "aws:ap-northeast-1", "aws:eu-central-1"
        gcp_tokyo = "gcp:ap-northeast-1"

        def rtts():
            return (
                model.rtt(west, tokyo),
                model.rtt(gcp_tokyo, west),
                model.rtt(west, frankfurt),
                model.rtt(west, west),
            )

        engine.run_until(10.0)  # only the Tokyo scope is active
        assert rtts() == (0.04 + 0.5, 0.04 + 0.5, 0.14, 0.002)
        engine.run_until(75.0)  # Tokyo and Frankfurt scopes
        assert rtts() == (0.04 + 0.5, 0.04 + 0.5, 0.14 + 0.25, 0.002)
        engine.run_until(130.0)  # Frankfurt scope and the unscoped window
        assert rtts() == (0.04 + 0.1, 0.04 + 0.1, 0.14 + 0.25 + 0.1, 0.002)
        engine.run_until(250.0)  # every window over
        assert rtts() == (0.04, 0.04, 0.14, 0.002)


class TestTelemetry:
    def test_scenario_lifecycle_events(self):
        sink = RingBufferSink()
        scenario = ScenarioSpec(
            "life",
            (
                PriceSurge(start=100.0, end=200.0),
                ColdStartSpike(start=100.0, end=300.0, factor=2.0),
            ),
        )
        engine, _, _ = armed(scenario, telemetry=EventBus([sink]))
        engine.run_until(1000.0)
        kinds = [e.kind for e in sink.events if e.kind.startswith("chaos.")]
        assert kinds[0] == "chaos.scenario_started"
        assert kinds[-1] == "chaos.scenario_ended"
        assert kinds.count("chaos.injected") == 2
        started = next(e for e in sink.events if e.kind == "chaos.scenario_started")
        assert started.scenario == "life"
        assert started.injections == 2
        ended = next(e for e in sink.events if e.kind == "chaos.scenario_ended")
        assert ended.time == 300.0

    def test_silent_bus_schedules_nothing(self):
        scenario = ScenarioSpec("p", (PriceSurge(start=0.0, end=100.0),))
        engine, _, _ = armed(scenario)  # NULL_BUS
        assert engine.pending_events == 0

    def test_double_arm_rejected(self):
        scenario = ScenarioSpec("p", (PriceSurge(start=0.0, end=100.0),))
        _, _, injector = armed(scenario)
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()


class TestZeroOverhead:
    def test_no_scenario_never_imports_chaos(self):
        """Running a full service without a scenario must not load the
        chaos subsystem at all."""
        code = (
            "import sys\n"
            "from repro.cloud import aws1\n"
            "from repro.core import spothedge\n"
            "from repro.serving import (ReplicaPolicyConfig, ResourceSpec,\n"
            "                           ServiceSpec, SkyService)\n"
            "from repro.workloads import poisson_workload\n"
            "trace = aws1()\n"
            "spec = ServiceSpec(name='plain',\n"
            "                   replica_policy=ReplicaPolicyConfig(fixed_target=2),\n"
            "                   resources=ResourceSpec(accelerator='V100'))\n"
            "service = SkyService(spec, spothedge(trace.zone_ids), trace, seed=1)\n"
            "service.run(poisson_workload(600.0, rate=0.1, seed=1), 600.0)\n"
            "chaos = [m for m in sys.modules if m.startswith('repro.chaos')]\n"
            "assert not chaos, chaos\n"
            "print('clean')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout


class TestNoScenarioRegression:
    def test_report_matches_recorded_fixture(self):
        """A no-scenario run reproduces the service report recorded
        before the chaos subsystem existed — the seams are free."""
        from repro.cloud import HOUR, aws1
        from repro.core import spothedge
        from repro.experiments import service_report_to_dict
        from repro.serving import (
            ReplicaPolicyConfig,
            ResourceSpec,
            ServiceSpec,
            SkyService,
        )
        from repro.workloads import poisson_workload

        trace = aws1()
        spec = ServiceSpec(
            name="regression-fixture",
            replica_policy=ReplicaPolicyConfig(
                fixed_target=3, num_overprovision=1
            ),
            resources=ResourceSpec(accelerator="V100"),
            request_timeout=100.0,
        )
        duration = 2 * HOUR
        service = SkyService(
            spec,
            spothedge(trace.zone_ids, num_overprovision=1),
            trace,
            seed=42,
        )
        report = service.run(
            poisson_workload(duration, rate=0.2, seed=42), duration
        )
        payload = service_report_to_dict(report)
        payload["latency_samples"] = list(report.latency_samples)
        recorded = json.loads(
            (REPO_ROOT / "tests" / "data" / "no_chaos_service_report.json")
            .read_text()
        )
        assert payload == recorded


class TestKitchenSinkRegression:
    """SkyService under the bundled kitchen-sink scenario (storm,
    blackout, cold-start spike, price surge, degraded WAN, suppressed
    warnings) with jittered client retries: the report is pinned to a
    recorded fixture, with telemetry off and on (the policy audit the
    service attaches under telemetry only observes)."""

    @staticmethod
    def run(telemetry):
        from repro.chaos import load_scenario
        from repro.cloud import HOUR
        from repro.core import spothedge
        from repro.experiments import service_report_to_dict
        from repro.experiments.endtoend import SKYSERVE_REGIONS, e2e_trace
        from repro.serving import (
            DomainFilter,
            ReplicaPolicyConfig,
            ResourceSpec,
            RetryPolicy,
            ServiceSpec,
            SkyService,
        )
        from repro.workloads import poisson_workload

        duration = 5 * HOUR
        trace = e2e_trace("volatile", duration=duration, seed=3)
        spec = ServiceSpec(
            name="kitchen-sink-fixture",
            replica_policy=ReplicaPolicyConfig(fixed_target=3, num_overprovision=2),
            resources=ResourceSpec(
                accelerator="A10G",
                any_of=tuple(
                    DomainFilter(cloud=r.split(":")[0], region=r.split(":")[1])
                    for r in SKYSERVE_REGIONS
                ),
            ),
            request_timeout=100.0,
        )
        service = SkyService(
            spec,
            spothedge(trace.zone_ids),
            trace,
            seed=3,
            scenario=load_scenario("kitchen-sink"),
            retry_policy=RetryPolicy(),
            telemetry=telemetry,
        )
        report = service.run(poisson_workload(duration, rate=0.1, seed=3), duration)
        payload = service_report_to_dict(report)
        payload["latency_samples"] = list(report.latency_samples)
        return payload

    @pytest.mark.parametrize("telemetry", [False, True], ids=["quiet", "telemetry"])
    def test_report_matches_recorded_fixture(self, telemetry):
        sink = RingBufferSink()
        payload = self.run(EventBus([sink]) if telemetry else None)
        recorded = json.loads(
            (REPO_ROOT / "tests" / "data" / "kitchen_sink_service_report.json")
            .read_text()
        )
        assert payload == recorded
        if telemetry:
            assert any(e.kind == "policy.decision" for e in sink.events)
