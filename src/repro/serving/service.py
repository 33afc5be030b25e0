"""SkyService: one-call wiring of cloud, controller, policy, and client.

This is the facade a downstream user interacts with (the programmatic
equivalent of ``sky serve up``): give it a service spec, a policy, a
model profile, a spot trace, and a workload; run it; read the report.

The engine → chaos → network → cloud → controller → client stack is
built by :class:`_ServiceStack`, which
:class:`~repro.control.plane.ControlPlane` shares: a one-tenant plane
and a :class:`SkyService` are wired by the same code.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.cloud.catalog import Catalog
from repro.cloud.network import NetworkModel, default_network
from repro.cloud.provider import CloudConfig, SimCloud
from repro.cloud.topology import Topology
from repro.cloud.traces import SpotTrace
from repro.serving.client import ClientStats, RetryPolicy, ServiceClient
from repro.serving.controller import ServiceController
from repro.serving.inference import ModelProfile, llama2_70b_profile
from repro.serving.policy import ServingPolicy
from repro.serving.spec import ServiceSpec
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import LatencySummary
from repro.sim.rng import RngRegistry
from repro.telemetry.audit import PolicyAuditLog
from repro.telemetry.events import CostSnapshot, EventBus
from repro.workloads.request import Workload

if TYPE_CHECKING:
    from repro.chaos.injector import ChaosInjector
    from repro.chaos.overlay import CompiledScenario
    from repro.chaos.spec import ScenarioSpec

__all__ = ["ServiceReport", "SkyService"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceReport:
    """Everything the paper reports per system per run."""

    system: str
    duration: float
    total_requests: int
    completed: int
    failed: int
    failure_rate: float
    latency: Optional[LatencySummary]
    #: Time-to-first-token distribution (§3.1 footnote): queueing +
    #: prefill + WAN round trip of the first successful attempt.
    ttft: Optional[LatencySummary]
    #: Raw per-request latencies of completed requests, for effective
    #: (failure-inclusive) percentile computations downstream.
    latency_samples: tuple[float, ...]
    spot_cost: float
    od_cost: float
    availability: float
    preemptions: int
    launch_failures: int

    @property
    def total_cost(self) -> float:
        return self.spot_cost + self.od_cost

    def latency_boxplot(self):
        """Fig. 9 box-plot stats of completed-request latency (10/90
        whiskers, 25/75 box, median line, mean marker); ``None`` when no
        requests completed."""
        from repro.sim.metrics import LatencyRecorder

        recorder = LatencyRecorder()
        recorder.extend(self.latency_samples)
        return recorder.boxplot()

    def effective_percentile(self, q: float, timeout: float) -> float:
        """Latency percentile with failed requests counted at the
        timeout — the client-experienced distribution, immune to the
        survivorship bias of completed-only percentiles when a system
        fails most of its requests."""
        samples = list(self.latency_samples) + [timeout] * self.failed
        if not samples:
            raise ValueError("no requests to take a percentile of")
        return float(np.percentile(samples, q))

    def cost_relative_to_on_demand(self, od_hourly: float, n_tar: int) -> float:
        """Cost as a fraction of running n_tar on-demand replicas for the
        whole experiment — the paper's cost normalisation."""
        baseline = od_hourly * n_tar * self.duration / 3600.0
        if baseline <= 0:
            raise ValueError("non-positive on-demand baseline")
        return self.total_cost / baseline


class _ServiceStack:
    """RNG registry, engine, chaos-compiled trace, network and one
    shared cloud, plus the controllers, clients and clock run on them:
    the wiring :class:`SkyService` and
    :class:`~repro.control.plane.ControlPlane` share.

    Construction order fixes event and billing-hook order, so results
    depend on it: this initialiser compiles the scenario, then builds the
    network and the cloud; the front end then wraps the cloud if it
    must (the control plane's broker replaces ``cloud.billing``), builds
    its controllers, and calls :meth:`_arm` last, because armed price
    surcharges land on whatever meter is installed at that moment.
    """

    def __init__(
        self,
        trace: SpotTrace,
        *,
        seed: int,
        telemetry: Optional[EventBus],
        scenario: Optional["ScenarioSpec"],
        network: Optional[NetworkModel],
        topology: Optional[Topology],
        catalog: Optional[Catalog],
        cloud_config: Optional[CloudConfig],
    ) -> None:
        self.seed = seed
        self.rng = RngRegistry(seed)
        self.engine = SimulationEngine(telemetry=telemetry)
        self.telemetry = self.engine.telemetry
        self._compiled: Optional["CompiledScenario"] = None
        if scenario is not None:
            # Chaos is lazy-imported: runs without a scenario never load
            # (or pay for) the chaos subsystem at all.
            from repro.chaos.overlay import compile_scenario

            self._compiled = compile_scenario(scenario, trace, root_seed=seed)
            trace = self._compiled.trace
        self.trace = trace
        self.network = network or default_network()
        if self._compiled is not None and self._compiled.network_degradations:
            from repro.chaos.injector import DegradedNetworkModel

            self.network = DegradedNetworkModel(
                self.network, self.engine, self._compiled.network_degradations
            )
        self.cloud = SimCloud(
            self.engine, trace, topology=topology, catalog=catalog, config=cloud_config,
            rng=self.rng,
        )
        self.injector: Optional["ChaosInjector"] = None
        self._replica_ids = itertools.count(1)

    def _controller(
        self,
        cloud: SimCloud,
        spec: ServiceSpec,
        policy: ServingPolicy,
        profile: ModelProfile,
        *,
        stream: str,
        client_region: str,
        adaptive_parallelism: bool = False,
    ) -> ServiceController:
        """A controller on ``cloud`` (or a tenant's view of it) whose
        inference draws from the RNG stream named ``stream``."""
        if self.telemetry.enabled and policy.audit is None:
            # Every Alg. 1 step lands in the audit log and, through the
            # bus, in whatever sinks the caller attached.  The log only
            # observes: reports are identical with telemetry on or off.
            policy.attach_audit(PolicyAuditLog(policy=policy.name, bus=self.telemetry))
        return ServiceController(
            self.engine, cloud, spec, policy, profile,
            network=self.network,
            rng=self.rng.stream(stream),
            client_region=client_region,
            adaptive_parallelism=adaptive_parallelism,
            replica_ids=self._replica_ids,
        )

    def _arm(self) -> None:
        """Arm the scenario's live injections against the shared cloud."""
        if self._compiled is not None:
            from repro.chaos.injector import ChaosInjector

            self.injector = ChaosInjector(
                self._compiled, self.engine, self.cloud, root_seed=self.seed
            )
            self.injector.arm()

    def _client(
        self,
        controller: ServiceController,
        workload: Workload,
        *,
        client_region: str,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> ServiceClient:
        """A client of ``controller``; the ``client`` RNG stream exists
        only when a retry policy draws backoff jitter from it."""
        return ServiceClient(
            controller, workload, client_region=client_region, backoff=retry_policy,
            rng=self.rng.stream("client") if retry_policy is not None else None,
        )

    def _serve(
        self,
        services: Iterable[tuple[ServiceController, ServiceClient]],
        duration: float,
    ) -> None:
        """Start each controller and then its client, in order, and run
        the shared clock to ``duration``."""
        for controller, client in services:
            controller.start()
            client.start()
        self.engine.run_until(duration)


class SkyService(_ServiceStack):
    """A deployed service: simulated cloud + controller + client."""

    def __init__(
        self,
        spec: ServiceSpec,
        policy: ServingPolicy,
        trace: SpotTrace,
        *,
        profile: Optional[ModelProfile] = None,
        topology: Optional[Topology] = None,
        catalog: Optional[Catalog] = None,
        cloud_config: Optional[CloudConfig] = None,
        network: Optional[NetworkModel] = None,
        client_region: str = "aws:us-west-2",
        seed: int = 0,
        adaptive_parallelism: bool = False,
        telemetry: Optional[EventBus] = None,
        scenario: Optional["ScenarioSpec"] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(
            trace, seed=seed, telemetry=telemetry, scenario=scenario, network=network,
            topology=topology, catalog=catalog, cloud_config=cloud_config,
        )
        self.spec = spec
        self.policy = policy
        self.scenario = scenario
        self.controller = self._controller(
            self.cloud, spec, policy, profile or llama2_70b_profile(),
            stream="inference",
            client_region=client_region,
            adaptive_parallelism=adaptive_parallelism,
        )
        self._arm()
        self.client: Optional[ServiceClient] = None
        self.client_region = client_region
        #: Client retry behaviour: None keeps the legacy fixed-interval
        #: retry; a RetryPolicy switches to seeded jittered backoff.
        self.retry_policy = retry_policy

    def run(self, workload: Workload, duration: float) -> ServiceReport:
        """Serve ``workload`` for ``duration`` seconds and report."""
        logger.info(
            "serving %d requests for %.0fs with %s",
            len(workload),
            duration,
            self.policy.name,
        )
        self.client = self._client(
            self.controller, workload, client_region=self.client_region,
            retry_policy=self.retry_policy,
        )
        self._serve([(self.controller, self.client)], duration)
        return self.report(duration)

    def down(self) -> None:
        """Tear the service down (``sky serve down``): terminate every
        replica's instances and stop billing accrual.  Each replica
        ends the way a scale-down does, with a ``replica.terminated``
        event (reason ``teardown``).

        The engine keeps running (other services may share it); this
        service simply stops holding resources.
        """
        self.controller.stop()
        for replica in list(self.controller.replicas):
            self.controller._destroy(replica)

    def report(self, duration: float) -> ServiceReport:
        if self.client is None:
            raise RuntimeError("run() must be called before report()")
        stats: ClientStats = self.client.stats()
        cost = self.cloud.billing.breakdown(self.engine.now)
        if self.telemetry.enabled:
            self.telemetry.emit(
                CostSnapshot(
                    time=self.engine.now,
                    spot=cost.spot,
                    on_demand=cost.on_demand,
                    total=cost.total,
                )
            )
        return ServiceReport(
            system=self.policy.name,
            duration=duration,
            total_requests=stats.total_requests,
            completed=stats.completed,
            failed=stats.failed,
            failure_rate=stats.failure_rate,
            latency=stats.latency,
            ttft=stats.ttft,
            latency_samples=tuple(self.client.latencies.samples),
            spot_cost=cost.spot,
            od_cost=cost.on_demand,
            availability=self.controller.availability(0.0, duration),
            preemptions=int(self.controller.preemption_count.value),
            launch_failures=int(self.controller.launch_failure_count.value),
        )
