"""Declarative multi-tenant deployment specs.

A *deployment* is the control-plane unit: a named set of tenants, each
wrapping one :class:`~repro.serving.spec.ServiceSpec` (the Listing 1
shape) with control-plane-only attributes — admission priority, a
fair-share weight, and a workload profile — plus the admission mode the
shared :class:`~repro.control.broker.CapacityBroker` runs in.  It
mirrors how the real SkyServe account hosts many ``sky serve up``
services against one pool of regional spot capacity.

Specs round-trip through plain dictionaries (the shape a YAML or JSON
deployment file parses into).  JSON always works; YAML needs the
optional ``pyyaml`` package and :func:`load_deployment` says so clearly
when it is missing rather than failing on import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from repro.serving.inference import MODEL_PROFILES
from repro.serving.registry import POLICIES
from repro.serving.spec import ServiceSpec
from repro.workloads.generators import WORKLOAD_KINDS

__all__ = [
    "ADMISSION_MODES",
    "DeploymentSpec",
    "TenantSpec",
    "load_deployment",
]

#: Admission modes of the capacity broker.
ADMISSION_MODES = ("fair_share", "strict_priority")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a service spec plus control-plane attributes.

    ``priority`` orders tenants for strict-priority admission (larger
    wins; ties never evict each other).  ``qps_share`` is the tenant's
    fair-share weight — shares are relative, so ``(1, 1, 2)`` gives the
    last tenant half of every contended zone.
    """

    service: ServiceSpec = field(default_factory=ServiceSpec)
    priority: int = 0
    qps_share: float = 1.0
    workload: str = "arena"
    rate: float = 0.5
    policy: str = "SpotHedge"
    profile: str = "llama2-70b"

    @property
    def name(self) -> str:
        return self.service.name

    def __post_init__(self) -> None:
        if self.qps_share <= 0:
            raise ValueError(
                f"tenant {self.name!r}: qps_share must be positive, "
                f"got {self.qps_share!r}"
            )
        if self.rate <= 0:
            raise ValueError(
                f"tenant {self.name!r}: rate must be positive, got {self.rate!r}"
            )
        if self.workload not in WORKLOAD_KINDS:
            raise ValueError(
                f"tenant {self.name!r}: unknown workload {self.workload!r}; "
                f"expected one of {WORKLOAD_KINDS}"
            )
        try:
            POLICIES.validate(self.policy)
        except ValueError as exc:
            raise ValueError(f"tenant {self.name!r}: {exc}") from None
        if self.profile not in MODEL_PROFILES:
            raise ValueError(
                f"tenant {self.name!r}: unknown profile {self.profile!r}; "
                f"expected one of {tuple(MODEL_PROFILES)}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "service": self.service.to_dict(),
            "priority": self.priority,
            "qps_share": self.qps_share,
            "workload": self.workload,
            "rate": self.rate,
            "policy": self.policy,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> TenantSpec:
        return cls(
            service=ServiceSpec.from_dict(data.get("service", {})),
            priority=int(data.get("priority", 0)),
            qps_share=float(data.get("qps_share", 1.0)),
            workload=data.get("workload", "arena"),
            rate=float(data.get("rate", 0.5)),
            policy=data.get("policy", "SpotHedge"),
            profile=data.get("profile", "llama2-70b"),
        )


@dataclass(frozen=True)
class DeploymentSpec:
    """A named set of tenants sharing one simulated multi-cloud."""

    name: str = "deployment"
    tenants: tuple[TenantSpec, ...] = ()
    admission: str = "fair_share"
    #: Bundled chaos scenario name or scenario JSON path; ``None`` runs
    #: the clean trace.  The scenario arms against the *shared* cloud,
    #: so every tenant feels it.
    scenario: Optional[str] = None
    hours: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("deployment needs a name")
        if not self.tenants:
            raise ValueError(f"deployment {self.name!r} has no tenants")
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"deployment {self.name!r}: duplicate tenant names {dupes}"
            )
        if self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"deployment {self.name!r}: unknown admission mode "
                f"{self.admission!r}; expected one of {ADMISSION_MODES}"
            )
        if self.hours <= 0:
            raise ValueError(f"deployment {self.name!r}: hours must be positive")

    @property
    def tenant_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tenants)

    def tenant(self, name: str) -> TenantSpec:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(
            f"no tenant {name!r} in deployment {self.name!r}; "
            f"tenants: {list(self.tenant_names)}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "tenants": [t.to_dict() for t in self.tenants],
            "admission": self.admission,
            "scenario": self.scenario,
            "hours": self.hours,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> DeploymentSpec:
        return cls(
            name=data.get("name", "deployment"),
            tenants=tuple(
                TenantSpec.from_dict(t) for t in data.get("tenants", [])
            ),
            admission=data.get("admission", "fair_share"),
            scenario=data.get("scenario"),
            hours=float(data.get("hours", 2.0)),
        )


def load_deployment(path: Union[str, Path]) -> DeploymentSpec:
    """Load a deployment spec from a ``.json`` or ``.yaml``/``.yml`` file.

    YAML support is optional (``pyyaml`` is not a project dependency);
    when the package is missing the error says to use the JSON form.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such deployment spec: {path}")
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
    elif path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise RuntimeError(
                f"loading {path} needs the optional 'pyyaml' package; "
                "install it or convert the deployment spec to JSON"
            ) from exc
        data = yaml.safe_load(text)
    else:
        raise ValueError(
            f"unsupported deployment spec type {path.suffix!r}: "
            "expected .json, .yaml, or .yml"
        )
    if not isinstance(data, dict):
        raise ValueError(f"deployment spec {path} is not a mapping")
    return DeploymentSpec.from_dict(data)
