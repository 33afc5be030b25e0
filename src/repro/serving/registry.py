"""Named policy registries — the plugin seam of the serving layer.

Placers, load balancers, and autoscale modes used to be validated
against hard-coded string tuples in ``serving/spec.py`` and constructed
by if-chains in their factory functions.  A :class:`PolicyRegistry`
replaces both: implementations register under a name (the
``SpotPlacer.REGISTRY`` idiom from the SkyPilot code base), spec
validation asks the registry, and factories instantiate by lookup — so
a third-party policy becomes available to every spec and CLI flag by
registering itself, with no edits to this repository.

Four registries ship:

* :data:`POLICIES` — serving policies keyed by the names the replay,
  sweep, report and chaos CLI flags, :func:`~repro.chaos.run_matrix`
  and a deployment's tenant ``policy`` accept (``factory(zones,
  replica_policy=None) -> ServingPolicy``; ``replica_policy`` is the
  service's :class:`~repro.serving.spec.ReplicaPolicyConfig`, ``None``
  meaning its defaults);
* :data:`PLACERS` — :class:`~repro.core.placement.SpotPlacer`
  subclasses, keyed by the spec's ``spot_placer`` name;
* :data:`BALANCERS` — balancer factories keyed by
  ``load_balancing_policy`` (signature of
  :func:`~repro.serving.load_balancer.make_balancer`'s per-policy
  branches: ``factory(client_region, network)``);
* :data:`AUTOSCALE_MODES` — candidate-target strategies keyed by
  ``autoscale_mode`` (``strategy(autoscaler, now, qps_candidate) ->
  int``, returning the unclamped candidate).

Built-in implementations live in :mod:`repro.core.spothedge`,
:mod:`repro.core.placement`, :mod:`repro.serving.load_balancer`, and
:mod:`repro.serving.autoscaler`; the registry imports them lazily on
first lookup so importing this module alone stays cheap and free of
cycles.

Third-party plugins register either imperatively::

    from repro.serving.registry import PLACERS

    @PLACERS.register("my_placer")
    class MyPlacer(SpotPlacer): ...

or through a ``repro.policies`` entry point, loaded explicitly with
:func:`load_entry_point_plugins` (never implicitly: simulation results
must not depend on what happens to be pip-installed).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, TypeVar

__all__ = [
    "AUTOSCALE_MODES",
    "BALANCERS",
    "PLACERS",
    "POLICIES",
    "PolicyRegistry",
    "load_entry_point_plugins",
]

_F = TypeVar("_F")

#: Entry-point group scanned by :func:`load_entry_point_plugins`.
ENTRY_POINT_GROUP = "repro.policies"


class PolicyRegistry:
    """A named registry of policy factories.

    ``kind`` is the human-readable noun used in error messages
    ("spot placer", "load balancing policy", ...).  Lookup failures
    always list the registered names, matching the long-standing
    ``make_balancer`` error-message idiom.
    """

    def __init__(
        self,
        kind: str,
        *,
        builtin_modules: tuple[str, ...] = (),
    ) -> None:
        self.kind = kind
        self._factories: dict[str, Any] = {}
        #: Modules whose import registers the built-in implementations.
        #: Imported lazily on first lookup to keep this module cycle-free.
        self._builtin_modules = builtin_modules
        self._builtins_loaded = not builtin_modules

    # -- registration --------------------------------------------------
    def register(
        self, name: str, factory: Optional[_F] = None
    ) -> Callable[[_F], _F] | _F:
        """Register ``factory`` under ``name``.

        Usable as a decorator (``@REGISTRY.register("name")``) or a
        plain call (``REGISTRY.register("name", factory)``).  Duplicate
        names are an error: silently shadowing a policy would make two
        runs of the same spec mean different things.
        """
        if factory is None:

            def decorator(obj: _F) -> _F:
                self.register(name, obj)
                return obj

            return decorator
        if not name or not isinstance(name, str):
            raise ValueError(f"invalid {self.kind} name {name!r}")
        if name in self._factories:
            raise ValueError(
                f"{self.kind} {name!r} is already registered "
                f"({self._factories[name]!r})"
            )
        self._factories[name] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove a registration (test hygiene for plugin round-trips)."""
        self._ensure_builtins()
        self._factories.pop(name, None)

    # -- lookup --------------------------------------------------------
    def _ensure_builtins(self) -> None:
        if self._builtins_loaded:
            return
        self._builtins_loaded = True
        import importlib

        for module in self._builtin_modules:
            importlib.import_module(module)

    def get(self, name: str) -> Any:
        """The factory registered under ``name``.

        Raises :class:`ValueError` naming the unknown entry and listing
        every registered name.
        """
        self._ensure_builtins()
        factory = self._factories.get(name)
        if factory is None:
            raise ValueError(
                f"unknown {self.kind} {name!r}: expected one of {self.names()}"
            )
        return factory

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        self._ensure_builtins()
        return tuple(sorted(self._factories))

    def __contains__(self, name: object) -> bool:
        self._ensure_builtins()
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_builtins()
        return len(self._factories)

    def validate(self, name: str) -> str:
        """Validate-and-return ``name`` (spec ``__post_init__`` helper)."""
        self.get(name)
        return name


#: Serving policies (CLI ``--policies``/``--policy``, tenant ``policy``).
POLICIES = PolicyRegistry(
    "serving policy", builtin_modules=("repro.core.spothedge",)
)

#: Spot placers (``replica_policy.spot_placer``).
PLACERS = PolicyRegistry(
    "spot placer", builtin_modules=("repro.core.placement",)
)

#: Load balancing policies (``load_balancing_policy``).
BALANCERS = PolicyRegistry(
    "load balancing policy", builtin_modules=("repro.serving.load_balancer",)
)

#: Autoscale candidate-target modes (``replica_policy.autoscale_mode``).
AUTOSCALE_MODES = PolicyRegistry(
    "autoscale mode", builtin_modules=("repro.serving.autoscaler",)
)


def load_entry_point_plugins(group: str = ENTRY_POINT_GROUP) -> list[str]:
    """Load third-party policy plugins from package entry points.

    Each entry point in ``group`` is loaded and, if callable, called
    with no arguments — the conventional hook shape is a module-level
    ``def register() -> None`` that calls ``POLICIES.register`` /
    ``PLACERS.register`` / ``BALANCERS.register`` /
    ``AUTOSCALE_MODES.register``.  Returns the
    names of the entry points loaded (sorted, for deterministic logs).

    Loading is explicit by design: a simulation's behaviour must be a
    function of its spec and seed, never of the site-packages contents,
    so nothing in the run path calls this implicitly.
    """
    from importlib import metadata

    loaded: list[str] = []
    try:
        entry_points = metadata.entry_points(group=group)
    except TypeError:  # pragma: no cover - Python < 3.10 select API
        entry_points = metadata.entry_points().get(group, ())  # type: ignore[call-arg]
    for entry in sorted(entry_points, key=lambda e: e.name):
        hook = entry.load()
        if callable(hook):
            hook()
        loaded.append(entry.name)
    return loaded
