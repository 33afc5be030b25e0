"""Engine-parity surface check (``REPRO-D301``/``D302``).

The discrete oracle (``experiments/replay.py``) and the hybrid data
plane (``experiments/fastpath.py``) promise byte-identical
``ReplayResult``s and telemetry streams.  The property tests check that
dynamically on sampled traces; this pass checks the *write surface*
statically, so a field or event added to one engine and forgotten in
the other is caught before any trace runs:

* **D301** — a result-type constructor field set by one engine path and
  never by another, or a telemetry event class emitted by one path
  only.
* **D302** — interprocedural ordered-iteration: a function whose return
  value is an unordered collection (set literal, ``set()``/
  ``frozenset()``, ``.keys()`` — propagated through returns of calls),
  iterated by an order-sensitive loop body at a call site in another
  function.  The per-file O001 rule catches the syntactic version; this
  catches the version hidden behind a function boundary, which only
  manifests as run-to-run drift under differing ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.devtools.flow.base import deep_diag, deep_rule
from repro.devtools.flow.project import (
    ModuleInfo,
    ProjectIndex,
    attr_chain,
)
from repro.devtools.lint.engine import Diagnostic
from repro.devtools.lint.rules import _body_order_sensitivity

__all__ = ["DEFAULT_SURFACES", "EngineSurface", "ParityPass", "RULES"]

SURFACE_RULE = deep_rule(
    "REPRO-D301",
    "engine-parity",
    "Discrete and hybrid replay paths must produce "
    "byte-identical ReplayResults and telemetry streams; a field or "
    "event written by only one path is a divergence the equivalence "
    "property tests can only catch after the fact, per trace.",
    "write the field/emit the event in every engine path (or fold the "
    "write into shared code both paths call)",
)
ORDER_RULE = deep_rule(
    "REPRO-D302",
    "cross-function-iteration-order",
    "A function returning a set hides the unordered iteration from the "
    "per-file rule; when a caller's loop body appends results, emits "
    "telemetry, or draws RNG, iteration order (hash-seed dependent for "
    "str elements) leaks into replay output.",
    "return a sorted list from the producer, or sort at the call site",
)

RULES = (SURFACE_RULE, ORDER_RULE)


@dataclass(frozen=True)
class EngineSurface:
    """One engine path: a name and the package-relative files it owns."""

    name: str
    prefixes: tuple[str, ...]


DEFAULT_SURFACES: tuple[EngineSurface, ...] = (
    EngineSurface("discrete", ("experiments/replay.py",)),
    EngineSurface("fastpath", ("experiments/fastpath.py",)),
)
DEFAULT_RESULT_CLASSES: tuple[str, ...] = ("ReplayResult",)

_EMIT_RECEIVER_TOKENS = ("bus", "telemetry")


class ParityPass:
    """Statically diff the write surfaces of the engine paths."""

    name = "engine-parity"
    rules = RULES

    def __init__(
        self,
        surfaces: Sequence[EngineSurface] = DEFAULT_SURFACES,
        result_classes: Sequence[str] = DEFAULT_RESULT_CLASSES,
    ) -> None:
        self.surfaces = tuple(surfaces)
        self.result_classes = tuple(result_classes)

    def run(self, index: ProjectIndex) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        out.extend(self._surface_diffs(index))
        out.extend(self._cross_function_order(index))
        return out

    # ------------------------------------------------------------------
    # D301: constructor-field and event-emission diffs
    # ------------------------------------------------------------------
    def _surface_modules(
        self, index: ProjectIndex, surface: EngineSurface
    ) -> list[ModuleInfo]:
        return [
            module
            for name, module in sorted(index.modules.items())
            if module.in_dir(*surface.prefixes)
        ]

    def _surface_diffs(self, index: ProjectIndex) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        # result-class ctor kwargs per surface
        for result_class in self.result_classes:
            fields: dict[str, set[str]] = {}
            anchor: dict[str, tuple[ModuleInfo, ast.Call]] = {}
            for surface in self.surfaces:
                for module in self._surface_modules(index, surface):
                    for node in ast.walk(module.tree):
                        if not isinstance(node, ast.Call):
                            continue
                        chain = attr_chain(node.func)
                        if not chain or chain[-1] != result_class:
                            continue
                        named = {
                            kw.arg for kw in node.keywords if kw.arg
                        }
                        fields.setdefault(surface.name, set()).update(named)
                        anchor.setdefault(surface.name, (module, node))
            if len(fields) < 2:
                continue
            union: set[str] = set().union(*fields.values())
            for surface_name in sorted(fields):
                missing = union - fields[surface_name]
                module, node = anchor[surface_name]
                for field_name in sorted(missing):
                    setters = ", ".join(
                        sorted(s for s in fields if field_name in fields[s])
                    )
                    out.append(
                        deep_diag(
                            SURFACE_RULE,
                            module,
                            node,
                            f"{result_class} field {field_name!r} is set "
                            f"by the {setters} path but never by the "
                            f"{surface_name} path",
                        )
                    )
        # event classes emitted per surface
        events: dict[str, set[str]] = {}
        event_anchor: dict[str, tuple[ModuleInfo, ast.Call]] = {}
        for surface in self.surfaces:
            for module in self._surface_modules(index, surface):
                for node in ast.walk(module.tree):
                    if not isinstance(node, ast.Call):
                        continue
                    chain = attr_chain(node.func)
                    if (
                        len(chain) < 2
                        or chain[-1] != "emit"
                        or not any(
                            token in part.lower()
                            for part in chain[:-1]
                            for token in _EMIT_RECEIVER_TOKENS
                        )
                    ):
                        continue
                    if not node.args or not isinstance(node.args[0], ast.Call):
                        continue
                    event_chain = attr_chain(node.args[0].func)
                    if not event_chain:
                        continue
                    events.setdefault(surface.name, set()).add(
                        event_chain[-1]
                    )
                    event_anchor.setdefault(surface.name, (module, node))
        if len(events) >= 2:
            union = set().union(*events.values())
            for surface_name in sorted(events):
                missing = union - events[surface_name]
                module, node = event_anchor[surface_name]
                for event_name in sorted(missing):
                    emitters = ", ".join(
                        sorted(s for s in events if event_name in events[s])
                    )
                    out.append(
                        deep_diag(
                            SURFACE_RULE,
                            module,
                            node,
                            f"telemetry event {event_name!r} is emitted by "
                            f"the {emitters} path but never by the "
                            f"{surface_name} path",
                        )
                    )
        return out

    # ------------------------------------------------------------------
    # D302: unordered returns iterated order-sensitively
    # ------------------------------------------------------------------
    @staticmethod
    def _unordered_return_reason(value: ast.expr) -> Optional[str]:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(value, ast.Call):
            chain = attr_chain(value.func)
            if chain in (["set"], ["frozenset"]):
                return f"{chain[0]}(...)"
            if chain and chain[-1] == "keys":
                return ".keys()"
        return None

    def _cross_function_order(self, index: ProjectIndex) -> list[Diagnostic]:
        unordered: dict[str, str] = {}
        for qname, fn in index.functions.items():
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    reason = self._unordered_return_reason(node.value)
                    if reason:
                        unordered[qname] = reason
                        break
        # propagate through functions that return another's result
        for _ in range(3):
            changed = False
            for qname, fn in index.functions.items():
                if qname in unordered:
                    continue
                for node in ast.walk(fn.node):
                    if not (
                        isinstance(node, ast.Return)
                        and isinstance(node.value, ast.Call)
                    ):
                        continue
                    site = index.resolve_call(fn, node.value)
                    hit = next(
                        (t for t in site.targets if t in unordered), None
                    )
                    if hit:
                        unordered[qname] = f"{unordered[hit]} (via {hit})"
                        changed = True
                        break
            if not changed:
                break
        if not unordered:
            return []
        out: list[Diagnostic] = []
        for qname in sorted(index.functions):
            fn = index.functions[qname]
            module = index.modules[fn.module]
            for node in ast.walk(fn.node):
                iters: list[tuple[ast.expr, Optional[Sequence[ast.stmt]], ast.AST]]
                if isinstance(node, ast.For):
                    iters = [(node.iter, node.body, node)]
                elif isinstance(node, ast.ListComp):
                    iters = [(g.iter, None, node) for g in node.generators]
                else:
                    continue
                for iter_expr, body, anchor_node in iters:
                    if not isinstance(iter_expr, ast.Call):
                        continue
                    site = index.resolve_call(fn, iter_expr)
                    hit = next(
                        (t for t in site.targets if t in unordered), None
                    )
                    if hit is None:
                        continue
                    if body is not None:
                        sensitivity = _body_order_sensitivity(body)
                        if sensitivity is None:
                            continue
                        message = (
                            f"{fn.name}() iterates over {hit}(), which "
                            f"returns {unordered[hit]}, and its body "
                            f"{sensitivity} — iteration order leaks into "
                            f"results across the call boundary"
                        )
                    else:
                        message = (
                            f"{fn.name}() builds a list from {hit}(), "
                            f"which returns {unordered[hit]} — element "
                            f"order is undefined across the call boundary"
                        )
                    out.append(
                        deep_diag(ORDER_RULE, module, anchor_node, message)
                    )
        return out
