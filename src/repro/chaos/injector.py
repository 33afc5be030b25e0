"""Live-simulation fault injection.

:class:`ChaosInjector` applies a :class:`~repro.chaos.overlay.CompiledScenario`
to a running :class:`~repro.cloud.provider.SimCloud` through existing
seams — the provider's swappable :class:`~repro.cloud.provider.CloudConfig`
(cold-start spikes), its ``warning_gate`` hook (warning suppression and
delay), and the billing meter's surcharge windows (price surges) — and
schedules ``Chaos*`` telemetry events for every concrete fault.
Capacity effects (storms, blackouts) never appear here: they are already
baked into the compiled trace the :class:`~repro.serving.service.SkyService`
was built on.

:class:`DegradedNetworkModel` is the network seam: a
:class:`~repro.cloud.network.NetworkModel` wrapper that adds a
scenario's extra RTT during active :class:`~repro.chaos.spec.NetworkDegradation`
windows, reading the engine clock on every lookup.

Zero-overhead contract: nothing in this module is touched unless a
scenario is attached; the seams themselves cost one ``None``/falsy
check on their respective paths.
"""

from __future__ import annotations

import dataclasses
import logging
from functools import partial
from typing import Optional

from repro.chaos.overlay import CompiledScenario, InjectionRecord
from repro.chaos.spec import NetworkDegradation
from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimCloud
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry
from repro.telemetry.events import (
    ChaosInjected,
    ChaosScenarioEnded,
    ChaosScenarioStarted,
)

__all__ = ["ChaosInjector", "DegradedNetworkModel"]

logger = logging.getLogger(__name__)


class DegradedNetworkModel(NetworkModel):
    """Adds scenario RTT penalties on top of a base network model.

    Cross-region round trips pay ``extra_rtt`` while a degradation
    window is active; same-region lookups are never degraded (the WAN
    is what breaks, not the rack).  A degradation listing ``regions``
    only applies to lookups touching one of them.
    """

    def __init__(
        self,
        base: NetworkModel,
        engine: SimulationEngine,
        degradations: list[NetworkDegradation],
    ) -> None:
        super().__init__()
        self._base = base
        self._engine = engine
        #: Each degradation with its bare region names (``None`` when
        #: it is not region-scoped), resolved once.
        self._degradations: list[tuple[NetworkDegradation, Optional[frozenset[str]]]] = [
            (
                degradation,
                frozenset(self._bare_region(r) for r in degradation.regions)
                if degradation.regions
                else None,
            )
            for degradation in degradations
        ]

    def rtt(self, region_a: str, region_b: str) -> float:
        rtt = self._base.rtt(region_a, region_b)
        a = self._bare_region(region_a)
        b = self._bare_region(region_b)
        if a == b:
            return rtt
        now = self._engine.now
        for degradation, scoped in self._degradations:
            if not degradation.active_at(now):
                continue
            if scoped is not None and a not in scoped and b not in scoped:
                continue
            rtt += degradation.extra_rtt
        return rtt


class ChaosInjector:
    """Arms a compiled scenario against a live simulation.

    Construction wires nothing; :meth:`arm` schedules every boundary
    callback and installs the provider/billing seams.  Stochastic
    decisions (per-warning suppression draws) consume the dedicated
    ``chaos:<scenario>:warning_gate`` stream so they never perturb the
    cloud's own victim-selection or jitter draws.
    """

    def __init__(
        self,
        compiled: CompiledScenario,
        engine: SimulationEngine,
        cloud: SimCloud,
        *,
        root_seed: int = 0,
    ) -> None:
        self.compiled = compiled
        self.engine = engine
        self.cloud = cloud
        self._registry = RngRegistry(root_seed)
        self._base_config = cloud.config
        self._armed = False
        #: (zone, kill_time) warnings already delayed once: the gate
        #: lets their rescheduled delivery through instead of deferring
        #: forever.
        self._deferred: set[tuple[str, float]] = set()

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Install seams and schedule every fault boundary."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        compiled = self.compiled
        engine = self.engine
        scenario = compiled.scenario
        logger.info(
            "arming chaos scenario %r (%d injections, %d concrete faults)",
            scenario.name,
            len(scenario.injections),
            len(compiled.injections_log),
        )

        # Telemetry: scheduled only when a sink is listening at arm
        # time, so a quiet run does not fill the event heap with no-ops.
        if engine.telemetry.enabled:
            engine.call_at(0.0, self._emit_started)
            for record in compiled.injections_log:
                engine.call_at(record.time, partial(self._emit_injected, record))
            engine.call_at(compiled.last_end, self._emit_ended)

        # Cold-start spikes: swap the provider config at every window
        # boundary; the active-factor product is recomputed from scratch
        # per boundary, so overlaps compose exactly and the base config
        # is restored bit-for-bit once the last window closes.
        for spike in compiled.cold_start_spikes:
            engine.call_at(spike.start, self._refresh_cold_start)
            engine.call_at(spike.end, self._refresh_cold_start)

        # Warning disruption: one gate serving every disruption window.
        if compiled.warning_disruptions:
            self._gate_rng = self._registry.stream(
                f"chaos:{scenario.name}:warning_gate"
            )
            self.cloud.warning_gate = self._warning_gate

        # Price surges: pure billing windows, registered up front.
        trace = compiled.trace
        for surge in compiled.price_surges:
            zones = (
                frozenset(surge.zones)
                if surge.zones
                else frozenset(trace.zone_ids)
            )
            self.cloud.billing.add_surcharge(
                surge.start, surge.end, zones, surge.multiplier
            )

    # ------------------------------------------------------------------
    # Seam callbacks
    # ------------------------------------------------------------------
    def _refresh_cold_start(self) -> None:
        now = self.engine.now
        factor = 1.0
        for spike in self.compiled.cold_start_spikes:
            if spike.active_at(now):
                factor *= spike.factor
        base = self._base_config
        if factor == 1.0:
            self.cloud.config = base
        else:
            self.cloud.config = dataclasses.replace(
                base,
                provision_delay_mean=base.provision_delay_mean * factor,
                setup_delay_mean=base.setup_delay_mean * factor,
            )

    def _warning_gate(self, zone_id: str, kill_time: float) -> Optional[float]:
        key = (zone_id, kill_time)
        if key in self._deferred:
            # A delayed warning coming back around: deliver it.
            self._deferred.discard(key)
            return 0.0
        now = self.engine.now
        active = None
        for disruption in self.compiled.warning_disruptions:
            if disruption.active_at(now):
                active = disruption
                break
        if active is None:
            return 0.0
        if self._gate_rng.random() < active.suppress_prob:
            bus = self.engine.telemetry
            if bus.enabled:
                bus.emit(
                    ChaosInjected(
                        now,
                        self.compiled.scenario.name,
                        active.kind,
                        [zone_id],
                        "warning suppressed",
                    )
                )
            return None
        if active.extra_delay > 0:
            self._deferred.add(key)
            return active.extra_delay
        return 0.0

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _emit_started(self) -> None:
        bus = self.engine.telemetry
        if bus.enabled:
            bus.emit(
                ChaosScenarioStarted(
                    self.engine.now,
                    self.compiled.scenario.name,
                    len(self.compiled.scenario.injections),
                )
            )

    def _emit_injected(self, record: InjectionRecord) -> None:
        bus = self.engine.telemetry
        if bus.enabled:
            bus.emit(
                ChaosInjected(
                    self.engine.now,
                    self.compiled.scenario.name,
                    record.kind,
                    list(record.zones),
                    record.detail,
                )
            )

    def _emit_ended(self) -> None:
        bus = self.engine.telemetry
        if bus.enabled:
            bus.emit(
                ChaosScenarioEnded(
                    self.engine.now,
                    self.compiled.scenario.name,
                    len(self.compiled.injections_log),
                )
            )
