"""Cross-function iteration-order check (``REPRO-D302``).

Part of the ``engine-parity`` pass: replay output must not depend on
the interpreter's hash seed, so this pass looks for unordered
iteration that the per-file O001 rule cannot see:

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
from typing import Optional, Sequence

from repro.devtools.flow.base import deep_diag, deep_rule
from repro.devtools.flow.project import ProjectIndex, attr_chain
from repro.devtools.lint.engine import Diagnostic
from repro.devtools.lint.rules import _body_order_sensitivity

__all__ = ["ParityPass", "RULES"]

ORDER_RULE = deep_rule(
    "REPRO-D302",
    "cross-function-iteration-order",
    "A function returning a set hides the unordered iteration from the "
    "per-file rule; when a caller's loop body appends results, emits "
    "telemetry, or draws RNG, iteration order (hash-seed dependent for "
    "str elements) leaks into replay output.",
    "return a sorted list from the producer, or sort at the call site",
)

RULES = (ORDER_RULE,)


class ParityPass:
    """Find unordered returns iterated order-sensitively across calls."""

    name = "engine-parity"
    rules = RULES

    def run(self, index: ProjectIndex) -> list[Diagnostic]:
        return self._cross_function_order(index)

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
