"""Interprocedural determinism analysis — ``repro lint --deep``.

Whole-program passes over a :class:`ProjectIndex` (symbol table + call
graph of the package):

* :class:`~repro.devtools.flow.rngflow.RngFlowPass` (``rng-taint``) —
  RNG-stream taint: untraceable draws, Generator escapes across
  closures and process boundaries, fixed-draw-count and draw-parity
  contracts (``REPRO-D100``–``D103``).
* :class:`~repro.devtools.flow.stationarity.StationarityPass`
  (``stationarity``) — verifies ``ServingPolicy.stationary_decisions``
  in both directions against reachable wall-clock/``obs.now``/mutation
  behaviour, with a ``stationary_state`` whitelist
  (``REPRO-D201``–``D203``).
* :class:`~repro.devtools.flow.parity.ParityPass` (``engine-parity``) —
  finds cross-function unordered iteration (``REPRO-D302``).

See ``docs/STATIC_ANALYSIS.md`` ("Interprocedural analysis") for the
workflow, and :mod:`repro.devtools.flow.runner` for suppression
semantics.
"""

from repro.devtools.flow.parity import ParityPass
from repro.devtools.flow.project import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
)
from repro.devtools.flow.rngflow import RngFlowPass
from repro.devtools.flow.runner import (
    ALL_DEEP_RULES,
    PASS_NAMES,
    make_passes,
    run_deep,
)
from repro.devtools.flow.stationarity import StationarityPass

__all__ = [
    "ALL_DEEP_RULES",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "PASS_NAMES",
    "ParityPass",
    "ProjectIndex",
    "RngFlowPass",
    "StationarityPass",
    "make_passes",
    "run_deep",
]
