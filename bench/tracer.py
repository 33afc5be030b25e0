"""Outside-in layer tracing for one benchmark repeat.

:class:`Tracer` monkeypatches the public boundaries of each layer with
timing wrappers, inside the traced child process only, and restores
every patched attribute on :meth:`Tracer.uninstall`:

* ``SimulationEngine.call_at``/``call_every``: every scheduled callback
  is wrapped in a span named after the module that defined it, so a
  dispatched event is charged to its owning layer;
* the public methods in :func:`_method_targets` (routing, balancing,
  replica admission, inference, cloud launches, policy decisions,
  autoscaling, request spans, time series, the capacity broker, the
  client's arrival scheduling, workload generators, the replay loop).

Callbacks handed across a boundary (``Replica.handle``'s completion
hooks, the ``InstanceCallbacks`` given to a launch) are wrapped at that
boundary too, so work a caller does in a callback is charged to the
caller's layer and not to the layer that invokes it.

Each wrapper pushes a frame on one stack; on return it adds its duration
to the parent's child time, so a span's *self* time is its duration
minus its children's.  Calls and outcomes (a pick returning ``None``, a
shed request) are counted at the same boundary.  Aggregates stay in
memory; every ``span_stride``-th span is kept for the span log.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import time
import types
from collections import Counter
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "Tracer", "layer_of"]

#: Module prefix -> layer, most specific first.  A layer is named after
#: the modules whose time it collects.
_MODULE_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.metrics", "metrics"),
    ("repro.serving.controller", "controller"),
    ("repro.serving.load_balancer", "balancer"),
    ("repro.serving.replica", "replica"),
    ("repro.serving.inference", "inference"),
    ("repro.serving.client", "client"),
    ("repro.serving.autoscaler", "autoscaler"),
    ("repro.serving.policy", "policy"),
    ("repro.core", "policy"),
    ("repro.baselines", "policy"),
    ("repro.cloud", "cloud"),
    ("repro.control.broker", "broker"),
    ("repro.chaos", "chaos"),
    ("repro.telemetry.spans", "spans"),
    ("repro.workloads", "workloads"),
    ("repro.experiments.replay", "replay"),
)

#: Every layer a self time is reported for; ``other`` collects code
#: outside the listed modules.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in _MODULE_LAYERS)) + (
    "other",
)

_POLICY_METHODS = (
    "target_mix",
    "select_spot_zone",
    "select_od_zone",
    "on_spot_ready",
    "on_spot_preempted",
    "on_spot_launch_failed",
)
_AUTOSCALER_METHODS = (
    "record_request",
    "request_rate",
    "record_ttft",
    "record_tpot",
    "slo_violation_rate",
    "candidate_target",
    "evaluate",
)
_GENERATORS = ("arena_workload", "maf_workload", "poisson_workload")
_FUNCTION_TYPES = (types.FunctionType, types.MethodType, functools.partial)


def layer_of(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _method_targets() -> list[tuple[Any, str, str, Optional[str]]]:
    """``(owner, attribute, span name, hook)`` for every public method
    the tracer wraps.  Importing here keeps the module importable before
    ``repro`` is on the path."""
    import repro.baselines  # noqa: F401  (registers the baseline policies)
    import repro.control.plane
    import repro.core  # noqa: F401  (registers the SpotHedge policies)
    import repro.workloads
    import repro.workloads.generators
    from repro.chaos.injector import DegradedNetworkModel
    from repro.cloud.billing import BillingMeter
    from repro.cloud.network import NetworkModel
    from repro.cloud.provider import SimCloud
    from repro.control.broker import CapacityBroker, SharedBillingMeter, TenantCloudView
    from repro.experiments.replay import TraceReplayer
    from repro.serving.autoscaler import Autoscaler
    from repro.serving.client import ServiceClient
    from repro.serving.controller import ServiceController
    from repro.serving.inference import InferenceServer
    from repro.serving.load_balancer import LoadBalancer
    from repro.serving.policy import ServingPolicy
    from repro.serving.replica import Replica
    from repro.sim.engine import SimulationEngine
    from repro.sim.metrics import TimeSeries
    from repro.telemetry.spans import SpanRecorder

    targets: list[tuple[Any, str, str, Optional[str]]] = [
        (SimulationEngine, "run_until", "engine.run_until", None),
        (ServiceController, "route", "controller.route", None),
        (ServiceController, "ready_replicas", "controller.ready_replicas", None),
        (ServiceController, "observe", "controller.observe", None),
        (Replica, "handle", "replica.handle", "handle"),
        (InferenceServer, "submit", "inference.submit", None),
        (SimCloud, "request_instance", "cloud.request_instance", "launch"),
        (SimCloud, "reject_instance", "cloud.reject_instance", "launch"),
        (SimCloud, "terminate", "cloud.terminate", None),
        (SimCloud, "reclaim", "cloud.reclaim", None),
        (NetworkModel, "rtt", "cloud.rtt", None),
        (DegradedNetworkModel, "rtt", "chaos.rtt", None),
        (BillingMeter, "track", "cloud.billing_track", None),
        (BillingMeter, "breakdown", "cloud.billing_breakdown", None),
        (SharedBillingMeter, "track", "broker.billing_track", None),
        (CapacityBroker, "request", "broker.request", "broker"),
        (CapacityBroker, "release", "broker.release", None),
        (CapacityBroker, "quotas", "broker.quotas", None),
        (TenantCloudView, "request_instance", "broker.view_request_instance", "launch"),
        (TenantCloudView, "terminate", "broker.view_terminate", None),
        (ServiceClient, "start", "client.start", None),
        (SpanRecorder, "open", "spans.open", None),
        (SpanRecorder, "get", "spans.get", None),
        (SpanRecorder, "complete", "spans.complete", None),
        (SpanRecorder, "fail", "spans.fail", None),
        (TimeSeries, "record", "metrics.record", None),
        (TraceReplayer, "run", "replay.run", None),
    ]
    targets += [(Autoscaler, m, f"autoscaler.{m}", None) for m in _AUTOSCALER_METHODS]
    for cls in _subclasses(LoadBalancer):
        pick = cls.__dict__.get("pick")
        if pick is not None and not getattr(pick, "__isabstractmethod__", False):
            targets.append((cls, "pick", "balancer.pick", "pick"))
    for cls in _subclasses(ServingPolicy):
        for method in _POLICY_METHODS:
            if isinstance(cls.__dict__.get(method), types.FunctionType):
                targets.append((cls, method, f"policy.{method}", None))
    for module in (repro.workloads.generators, repro.workloads, repro.control.plane):
        for name in _GENERATORS:
            if name in module.__dict__:
                targets.append((module, name, f"workloads.{name}", None))
    return targets


class Tracer:
    """Span stack, per-span-name aggregates and the installed patches."""

    def __init__(self, span_stride: int = 1024) -> None:
        self._clock = time.perf_counter
        #: Frames are ``[child seconds, span name, span id]``; the root
        #: frame collects the top-level spans.
        self._root: list[Any] = [0.0, None, 0]
        self._stack: list[list[Any]] = [self._root]
        self._ids = itertools.count(1)
        self._stride = span_stride
        self.self_s: dict[str, float] = {}
        #: Inclusive seconds per span name (children included).
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.layer: dict[str, str] = {}
        self.outcomes: Counter[str] = Counter()
        #: Events scheduled on any engine since install (set-up included,
        #: so it balances the engines' own processed/pending counters).
        self.scheduled = 0
        self.engines: dict[int, Any] = {}
        self.clouds: dict[int, Any] = {}
        self.brokers: dict[int, Any] = {}
        self.span_log: list[tuple[int, int, str, float, float]] = []
        self._callback_names: dict[Any, str] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._t_begin = 0.0
        self._instance_callbacks: Optional[type] = None
        #: Code shared by every span wrapper: a callback that is already
        #: a wrapper is not wrapped again when it crosses a second
        #: boundary.
        self._wrapper_code = self._span("", lambda: None).__code__

    # -- spans ------------------------------------------------------------
    def _register(self, name: str, layer: str) -> str:
        name = sys.intern(name)
        self.self_s.setdefault(name, 0.0)
        self.total_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        self.layer[name] = layer
        return name

    def _span(
        self,
        name: str,
        fn: Callable[..., Any],
        hook: Optional[Callable[[tuple, Any], None]] = None,
        wrap_args: bool = False,
    ) -> Callable[..., Any]:
        clock = self._clock
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        ids = self._ids
        stride = self._stride
        log = self.span_log
        wrap = self._wrap_value

        def traced(*args: Any, **kwargs: Any) -> Any:
            if wrap_args:
                args = tuple(wrap(a) for a in args)
                kwargs = {k: wrap(v) for k, v in kwargs.items()}
            parent = stack[-1]
            sid = next(ids)
            frame = [0.0, name, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                self_s[name] += elapsed - frame[0]
                total_s[name] += elapsed
                if sid % stride == 0:
                    log.append((sid, parent[2], name, start, end))
            if parent[1] is not name:
                calls[name] += 1
                if hook is not None:
                    hook(args, result)
            return result

        return traced

    def _callback_name(self, callback: Callable[..., Any]) -> str:
        target: Any = callback
        while isinstance(target, functools.partial):
            target = target.func
        func = getattr(target, "__func__", target)
        key = getattr(func, "__code__", func)
        name = self._callback_names.get(key)
        if name is None:
            layer = layer_of(getattr(func, "__module__", None) or "")
            label = getattr(func, "__name__", type(func).__name__)
            name = self._register(f"{layer}.cb:{label}", layer)
            self._callback_names[key] = name
        return name

    def _wrap_callback(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        if getattr(callback, "__code__", None) is self._wrapper_code:
            return callback
        return self._span(self._callback_name(callback), callback)

    def _wrap_value(self, value: Any) -> Any:
        """Wrap a callable handed across a boundary, or each hook of an
        ``InstanceCallbacks`` bundle; leave anything else alone."""
        if isinstance(value, _FUNCTION_TYPES):
            return self._wrap_callback(value)
        if type(value) is self._instance_callbacks:
            return dataclasses.replace(
                value,
                **{
                    f.name: self._wrap_callback(getattr(value, f.name))
                    for f in dataclasses.fields(value)
                    if getattr(value, f.name) is not None
                },
            )
        return value

    # -- hooks: outcomes counted where the call returns ------------------
    def _hooks(self) -> dict[str, Callable[[tuple, Any], None]]:
        outcomes = self.outcomes

        def pick(args: tuple, result: Any) -> None:
            outcomes["balancer.candidates"] += len(args[1])
            if result is None:
                outcomes["balancer.none"] += 1

        def handle(args: tuple, result: Any) -> None:
            if result is False:
                outcomes["replica.shed"] += 1

        def launch(args: tuple, result: Any) -> None:
            cloud = args[0]
            if hasattr(cloud, "launch_failures"):
                self.clouds[id(cloud)] = cloud

        def broker(args: tuple, result: Any) -> None:
            self.brokers[id(args[0])] = args[0]

        return {"pick": pick, "handle": handle, "launch": launch, "broker": broker}

    # -- install / restore -----------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every traced boundary.  Call before the workload is
        built, so events scheduled during set-up are attributed too."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.cloud.instance import InstanceCallbacks
        from repro.sim.engine import SimulationEngine

        self._instance_callbacks = InstanceCallbacks
        hooks = self._hooks()
        for owner, attr, name, hook in _method_targets():
            layer = name.split(".", 1)[0]
            self._patch(
                owner,
                attr,
                self._span(
                    self._register(name, layer),
                    owner.__dict__[attr],
                    hooks.get(hook or ""),
                    wrap_args=hook in ("handle", "launch", "broker"),
                ),
            )

        call_at = SimulationEngine.__dict__["call_at"]
        call_every = SimulationEngine.__dict__["call_every"]
        tracer = self

        def traced_call_at(engine: Any, when: float, callback: Callable[[], None]) -> Any:
            tracer.scheduled += 1
            tracer.engines[id(engine)] = engine
            return call_at(engine, when, tracer._wrap_callback(callback))

        def traced_call_every(
            engine: Any, interval: float, callback: Callable[[], None], **kwargs: Any
        ) -> Any:
            return call_every(engine, interval, tracer._wrap_callback(callback), **kwargs)

        self._patch(SimulationEngine, "call_at", traced_call_at)
        self._patch(SimulationEngine, "call_every", traced_call_every)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` for every installed patch."""
        return list(self._patches)

    # -- the timed window ---------------------------------------------------
    def begin(self) -> None:
        """Start the timed window: drop time and calls spent in set-up."""
        if len(self._stack) != 1:
            raise RuntimeError("span stack not empty at begin")
        self._root[0] = 0.0
        for name in self.self_s:
            self.self_s[name] = 0.0
            self.total_s[name] = 0.0
            self.calls[name] = 0
        self.outcomes.clear()
        self.span_log.clear()
        self._t_begin = self._clock()

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[self.layer[name]] += seconds
        return totals

    def attributed_s(self) -> float:
        """Time covered by top-level spans since :meth:`begin`."""
        if len(self._stack) != 1:
            raise RuntimeError("span stack not empty")
        return self._root[0]

    def write_span_log(self, path: str) -> None:
        """Write the sampled spans, times relative to :meth:`begin`."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.span_log:
                record = {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start_s": start - self._t_begin,
                    "end_s": end - self._t_begin,
                }
                handle.write(json.dumps(record) + "\n")
