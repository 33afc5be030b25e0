"""The SkyServe serving system (§4): controller, replicas, balancers,
autoscaler, simulated inference engines, client, and service facade."""

from repro.serving.autoscaler import Autoscaler
from repro.serving.client import ClientStats, RetryPolicy, ServiceClient
from repro.serving.controller import ServiceController
from repro.serving.inference import (
    MODEL_PROFILES,
    InferenceServer,
    ModelProfile,
    llama2_70b_profile,
    opt_6_7b_profile,
    vicuna_13b_profile,
)
from repro.serving.load_balancer import (
    LeastLoadBalancer,
    LoadBalancer,
    LocalityAwareBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from repro.serving.policy import MixTarget, Observation, ServingPolicy, supports_fluid
from repro.serving.registry import (
    AUTOSCALE_MODES,
    BALANCERS,
    PLACERS,
    POLICIES,
    PolicyRegistry,
    load_entry_point_plugins,
)
from repro.serving.replica import Replica, ReplicaState
from repro.serving.service import ServiceReport, SkyService
from repro.serving.spec import (
    DomainFilter,
    ReplicaPolicyConfig,
    ResourceSpec,
    ServiceSpec,
)

__all__ = [
    "AUTOSCALE_MODES",
    "BALANCERS",
    "MODEL_PROFILES",
    "PLACERS",
    "POLICIES",
    "Autoscaler",
    "ClientStats",
    "DomainFilter",
    "InferenceServer",
    "LeastLoadBalancer",
    "LoadBalancer",
    "LocalityAwareBalancer",
    "MixTarget",
    "ModelProfile",
    "Observation",
    "PolicyRegistry",
    "Replica",
    "ReplicaPolicyConfig",
    "ReplicaState",
    "ResourceSpec",
    "RetryPolicy",
    "RoundRobinBalancer",
    "ServiceClient",
    "ServiceController",
    "ServiceReport",
    "ServiceSpec",
    "ServingPolicy",
    "SkyService",
    "make_balancer",
    "load_entry_point_plugins",
    "supports_fluid",
    "llama2_70b_profile",
    "opt_6_7b_profile",
    "vicuna_13b_profile",
]
