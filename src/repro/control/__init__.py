"""Multi-tenant control plane (docs/CONTROL_PLANE.md).

N declarative services on one shared simulated multi-cloud: deployment
specs (:mod:`repro.control.spec`), capacity-metered admission across
tenants (:mod:`repro.control.broker`), the fleet runner and its
canonical cost/SLO report (:mod:`repro.control.plane`), and the
1-vs-N contention ablation (:mod:`repro.control.ablation`).
"""

from repro.control.ablation import AblationResult, run_contention_ablation
from repro.control.broker import CapacityBroker, SharedBillingMeter, TenantCloudView
from repro.control.plane import ControlPlane, FleetReport, TenantReport
from repro.control.spec import (
    ADMISSION_MODES,
    DeploymentSpec,
    TenantSpec,
    load_deployment,
)

__all__ = [
    "ADMISSION_MODES",
    "AblationResult",
    "CapacityBroker",
    "ControlPlane",
    "DeploymentSpec",
    "FleetReport",
    "SharedBillingMeter",
    "TenantCloudView",
    "TenantReport",
    "TenantSpec",
    "load_deployment",
    "run_contention_ablation",
]
