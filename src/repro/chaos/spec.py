"""Declarative fault-injection scenarios.

SpotHedge's whole claim is graceful behaviour under hostile cloud
dynamics, yet a recorded :class:`~repro.cloud.traces.SpotTrace` bakes
every fault into the capacity grid: preemption *pattern* (burstiness,
correlation, warning lead time) cannot be varied independently of
preemption *rate*.  A :class:`ScenarioSpec` makes those knobs explicit:
it composes timed injections — correlated preemption storms, capacity
blackouts, cold-start spikes, preemption-warning disruption, price
surges, inter-region network degradation — into a named, validated,
JSON-round-trippable document that the injector layer
(:mod:`repro.chaos.overlay`, :mod:`repro.chaos.injector`) applies to a
trace or a live simulation.

Determinism: a scenario is pure data.  Stochastic injections (the
storm's correlated hit draws) consume RNG streams derived from the run
seed at *compile* time (:func:`repro.chaos.overlay.compile_scenario`),
never at definition time, so the same ``(scenario, trace, seed)``
triple always produces the same faults.  :meth:`ScenarioSpec.digest`
is a content hash of the canonical JSON form.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Mapping, Optional

__all__ = [
    "CapacityBlackout",
    "ColdStartSpike",
    "Injection",
    "NetworkDegradation",
    "PreemptionStorm",
    "PriceSurge",
    "ScenarioSpec",
    "WarningDisruption",
]


_INJECTION_TYPES: dict[str, type["Injection"]] = {}


def _register(cls: type["Injection"]) -> type["Injection"]:
    """Class decorator adding an injection type to the kind registry."""
    if cls.kind in _INJECTION_TYPES:
        raise ValueError(f"duplicate injection kind {cls.kind!r}")
    _INJECTION_TYPES[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class Injection:
    """Base injection: one fault applied over ``[start, end)`` seconds
    of simulated time, relative to the start of the run."""

    kind: ClassVar[str] = "injection"

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"{self.kind}: negative start {self.start!r}")
        if self.end <= self.start:
            raise ValueError(
                f"{self.kind}: empty window [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def active_at(self, time: float) -> bool:
        return self.start <= time < self.end

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON form, ``kind`` included; tuples become lists."""
        data: dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Injection":
        payload = dict(data)
        kind = payload.pop("kind", None)
        cls = _INJECTION_TYPES.get(kind)  # type: ignore[arg-type]
        if cls is None:
            raise ValueError(
                f"unknown injection kind {kind!r}: "
                f"expected one of {sorted(_INJECTION_TYPES)}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"{kind}: unknown fields {unknown}")
        for name, value in payload.items():
            if isinstance(value, list):
                payload[name] = tuple(value)
        return cls(**payload)


@_register
@dataclass(frozen=True)
class PreemptionStorm(Injection):
    """Correlated cross-zone preemption storm.

    Every ``pulse`` seconds inside the window, each affected zone is
    hit with probability ``hit_prob``; cross-zone dependence follows
    the common-shock Bernoulli mixture: with probability
    ``correlation`` the pulse is *systemic* and every zone shares one
    hit draw, otherwise zones draw independently.  Each zone's
    marginal hit probability is exactly ``hit_prob`` and the pairwise
    Pearson correlation of hit indicators is exactly ``correlation`` —
    the tunable counterpart of the Fig. 3 intra-region correlation
    measured by :func:`repro.analysis.correlation.preemption_correlation`.

    A hit multiplies the zone's capacity by ``1 − severity`` (floored),
    so ``severity=1.0`` reclaims everything in the zone for that pulse.
    ``zones`` empty means every zone of the target trace.
    """

    kind: ClassVar[str] = "preemption_storm"

    zones: tuple[str, ...] = ()
    hit_prob: float = 0.5
    correlation: float = 0.5
    severity: float = 1.0
    pulse: float = 300.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.hit_prob <= 1.0:
            raise ValueError(f"hit_prob {self.hit_prob} outside [0, 1]")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError(f"correlation {self.correlation} outside [0, 1]")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError(f"severity {self.severity} outside (0, 1]")
        if self.pulse <= 0:
            raise ValueError(f"non-positive pulse {self.pulse!r}")


@_register
@dataclass(frozen=True)
class CapacityBlackout(Injection):
    """Zone capacity blackout: launch failures / InsufficientCapacity.

    Caps the affected zones' launchable capacity at
    ``residual_capacity`` (default 0 — a full ICE window) for the whole
    window.  Deterministic; ``zones`` empty means every zone.
    """

    kind: ClassVar[str] = "capacity_blackout"

    zones: tuple[str, ...] = ()
    residual_capacity: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.residual_capacity < 0:
            raise ValueError(
                f"negative residual capacity {self.residual_capacity!r}"
            )


@_register
@dataclass(frozen=True)
class ColdStartSpike(Injection):
    """Provisioning/cold-start delay spike.

    Multiplies provisioning and setup delays (live simulation) or the
    replay cold start by ``factor`` for launches initiated inside the
    window — contended control planes and model-registry slowdowns.
    """

    kind: ClassVar[str] = "cold_start_spike"

    factor: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ValueError(f"cold-start factor {self.factor} below 1.0")


@_register
@dataclass(frozen=True)
class WarningDisruption(Injection):
    """Preemption-warning delay and/or suppression.

    Inside the window each best-effort termination notice is dropped
    with probability ``suppress_prob`` (the instance is then reclaimed
    unwarned) and otherwise delivered ``extra_delay`` seconds late (a
    warning delayed past its kill time is also lost).  Applies to the
    live simulation only — the replica-granularity replayer has no
    warning channel.
    """

    kind: ClassVar[str] = "warning_disruption"

    suppress_prob: float = 1.0
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.suppress_prob <= 1.0:
            raise ValueError(
                f"suppress_prob {self.suppress_prob} outside [0, 1]"
            )
        if self.extra_delay < 0:
            raise ValueError(f"negative extra_delay {self.extra_delay!r}")


@_register
@dataclass(frozen=True)
class PriceSurge(Injection):
    """Spot price surge: affected zones' spot unit price is multiplied
    by ``multiplier`` for the window.  ``zones`` empty means every
    zone; on-demand prices are unaffected (surges are a spot-market
    phenomenon)."""

    kind: ClassVar[str] = "price_surge"

    zones: tuple[str, ...] = ()
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.multiplier <= 0:
            raise ValueError(f"non-positive multiplier {self.multiplier!r}")


@_register
@dataclass(frozen=True)
class NetworkDegradation(Injection):
    """Inter-region network degradation: adds ``extra_rtt`` seconds to
    every cross-region round trip during the window.  ``regions``
    non-empty restricts the penalty to lookups touching one of the
    listed regions.  Live simulation only (replay has no WAN model)."""

    kind: ClassVar[str] = "network_degradation"

    extra_rtt: float = 0.1
    regions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_rtt <= 0:
            raise ValueError(f"non-positive extra_rtt {self.extra_rtt!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, ordered composition of injections.

    Injections may overlap; capacity effects compose in declaration
    order (storms reduce what blackouts left, and vice versa), delay
    and price factors multiply.  The spec is validated on construction
    and serialises to/from JSON losslessly.
    """

    name: str
    injections: tuple[Injection, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a non-empty name")
        if not self.injections:
            raise ValueError(f"scenario {self.name!r} has no injections")
        for injection in self.injections:
            if not isinstance(injection, Injection):
                raise TypeError(
                    f"scenario {self.name!r}: {injection!r} is not an Injection"
                )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def last_end(self) -> float:
        """End of the latest injection window."""
        return max(injection.end for injection in self.injections)

    def windows(self) -> list[tuple[float, float]]:
        """All injection windows, in declaration order."""
        return [(i.start, i.end) for i in self.injections]

    def of_kind(self, kind: str) -> list[Injection]:
        return [i for i in self.injections if i.kind == kind]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "injections": [i.to_dict() for i in self.injections],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            injections=tuple(
                Injection.from_dict(entry) for entry in data["injections"]
            ),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())

    def digest(self) -> str:
        """Content digest of the canonical JSON form: equal digests mean
        equal scenarios."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()
