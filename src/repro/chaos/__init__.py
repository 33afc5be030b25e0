"""repro.chaos — fault-injection scenarios and a robustness harness.

Declarative :class:`~repro.chaos.spec.ScenarioSpec` fault scenarios
(correlated preemption storms, capacity blackouts, cold-start spikes,
warning disruption, price surges, network degradation), compiled onto a
:class:`~repro.cloud.traces.SpotTrace` by
:func:`~repro.chaos.overlay.compile_scenario`, applied to live
simulations by :class:`~repro.chaos.injector.ChaosInjector`, and scored
across a policy × scenario matrix by
:func:`~repro.chaos.harness.run_matrix`.

Everything is deterministic: injections draw from per-injection RNG
streams derived from the root seed, and the harness scorecard is
byte-identical across runs with the same inputs.  The subsystem is
strictly opt-in — no import or runtime cost unless a scenario is
attached.
"""

from repro.chaos.harness import (
    BASELINE,
    ChaosScorecard,
    run_matrix,
    score_run,
)
from repro.chaos.injector import ChaosInjector, DegradedNetworkModel
from repro.chaos.library import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    list_builtin,
    load_scenario,
)
from repro.chaos.overlay import CompiledScenario, InjectionRecord, compile_scenario
from repro.chaos.spec import (
    CapacityBlackout,
    ColdStartSpike,
    Injection,
    NetworkDegradation,
    PreemptionStorm,
    PriceSurge,
    ScenarioSpec,
    WarningDisruption,
)

__all__ = [
    "BASELINE",
    "BUILTIN_SCENARIOS",
    "CapacityBlackout",
    "ChaosInjector",
    "ChaosScorecard",
    "ColdStartSpike",
    "CompiledScenario",
    "DegradedNetworkModel",
    "Injection",
    "InjectionRecord",
    "NetworkDegradation",
    "PreemptionStorm",
    "PriceSurge",
    "ScenarioSpec",
    "WarningDisruption",
    "builtin_scenario",
    "compile_scenario",
    "list_builtin",
    "load_scenario",
    "run_matrix",
    "score_run",
]
