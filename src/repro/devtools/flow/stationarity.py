"""Stationarity verification (``REPRO-D201``/``D202``/``D203``).

``ServingPolicy.stationary_decisions = True`` is the contract the
hybrid replay engine (``repro.experiments.fastpath``) fast-forwards on:
across a quiescent trace window the policy would return the same
decisions every step, so the engine may skip consulting it.  The
service controller's settled ticks skip it on the same grounds while
the fleet is unchanged (``repro.serving.controller``).  The
declaration is trusted — this pass verifies it statically, in both
directions:

* **D201** — a policy *declared* stationary has a reachable wall-clock
  read, an unguarded ``obs.now`` use, a mutation of ``self`` outside
  its declared ``stationary_state`` whitelist, or a module-global
  write.  Reachability walks the call graph from the decision surface
  (``target_mix`` fully; ``select_*_zone`` for temporal checks only —
  the engine counts every launch-loop entry as activity, so per-call
  mutation there cannot leak across a fast-forwarded window), skips
  statements guarded by ``if self.audit is not None`` (the fastpath
  additionally requires ``audit is None``), and never descends into
  ``telemetry/`` (the sanctioned observability seam).
* **D202** — a policy declared *non*-stationary where the same analysis
  conclusively finds no time dependence and no non-whitelisted
  mutation: the declaration is stricter than the code, giving up
  fast-forwarding for nothing.  Reported only when every call from the
  decision surface resolved (an unresolvable call could hide state).
* **D203** — a ``stationary_state`` whitelist entry no reachable code
  mutates: stale grandfathered state that would mask a future real
  mutation under the same name.

The whitelist is a ``stationary_state: frozenset[str]`` class attribute
(on policies *and* their helper classes, e.g. placers), unioned through
the MRO; listed attributes may be mutated by decision code because the
mutation is idempotent under repeated identical observations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.devtools.flow.base import deep_diag, deep_rule
from repro.devtools.flow.project import (
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    attr_chain,
)
from repro.devtools.lint.engine import Diagnostic

__all__ = ["RULES", "StationarityPass"]

VIOLATION_RULE = deep_rule(
    "REPRO-D201",
    "stationarity-violation",
    "The hybrid engine fast-forwards quiescent windows without calling "
    "policies that declare stationary_decisions = True; reachable "
    "wall-clock access, obs.now dependence, or non-whitelisted state "
    "mutation means skipped calls would have changed behaviour — the "
    "fast engines silently diverge from the discrete oracle.",
    "remove the time/state dependence, whitelist the attribute in "
    "stationary_state if its mutation is idempotent under identical "
    "observations, or declare stationary_decisions = False",
)
UNDERDECLARED_RULE = deep_rule(
    "REPRO-D202",
    "stationarity-underdeclared",
    "A policy declared non-stationary forces the hybrid engine to "
    "replay every step discretely; when analysis proves the decision "
    "surface stationary the declaration wastes the fast path.",
    "declare stationary_decisions = True (and whitelist any idempotent "
    "state in stationary_state)",
)
STALE_WHITELIST_RULE = deep_rule(
    "REPRO-D203",
    "stationarity-whitelist",
    "A stationary_state entry nothing mutates is grandfathered trust: "
    "a future, genuinely non-stationary mutation of that attribute "
    "would be silently accepted.",
    "delete the unused stationary_state entry",
)

RULES = (VIOLATION_RULE, UNDERDECLARED_RULE, STALE_WHITELIST_RULE)

POLICY_BASE = "ServingPolicy"
WHITELIST_ATTR = "stationary_state"
FLAG_ATTR = "stationary_decisions"
DECISION_SURFACE_FULL = ("target_mix",)
DECISION_SURFACE_TEMPORAL = ("select_spot_zone", "select_od_zone")
TELEMETRY_DIRS = ("telemetry/",)

_TIME_FNS = frozenset(
    {"time", "monotonic", "monotonic_ns", "perf_counter",
     "perf_counter_ns", "process_time", "time_ns"}
)
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

_MUTATING_METHODS = frozenset(
    {"add", "append", "appendleft", "clear", "discard", "extend",
     "extendleft", "insert", "pop", "popitem", "popleft", "remove",
     "reverse", "rotate", "setdefault", "sort", "update"}
)

_SAFE_BUILTINS = frozenset(
    {"abs", "all", "any", "bool", "dict", "divmod", "enumerate", "filter",
     "float", "frozenset", "getattr", "hasattr", "int", "isinstance",
     "issubclass", "iter", "len", "list", "map", "max", "min", "next",
     "print", "range", "repr", "reversed", "round", "set", "sorted",
     "str", "sum", "tuple", "zip"}
)


def _mentions_audit(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "audit":
            return True
        if isinstance(node, ast.Name) and node.id == "audit":
            return True
    return False


def _iter_unguarded(node: ast.AST) -> Iterator[ast.AST]:
    """All descendant nodes, skipping bodies of ``if ...audit...:``
    statements (their ``else`` branches still run with audit off)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _mentions_audit(child.test):
            for stmt in child.orelse:
                yield stmt
                yield from _iter_unguarded(stmt)
            continue
        yield child
        yield from _iter_unguarded(child)


@dataclass
class _Violation:
    kind: str  # "temporal" | "mutation"
    node: ast.AST
    message: str


@dataclass
class _FunctionAnalysis:
    violations: list[_Violation]
    #: (declaring class qname, attr) whitelist entries this fn used
    whitelist_used: set[tuple[str, str]]
    conclusive: bool


class StationarityPass:
    """Cross-check ``stationary_decisions`` declarations both ways."""

    name = "stationarity"
    rules = RULES

    def run(self, index: ProjectIndex) -> list[Diagnostic]:
        self._index = index
        self._analyses: dict[str, _FunctionAnalysis] = {}
        out: list[Diagnostic] = []
        policies = self._policy_classes(index)
        used_whitelist: set[tuple[str, str]] = set()
        # function qname -> sorted policy names it serves, per check depth
        full_owners: dict[str, set[str]] = {}
        temporal_owners: dict[str, set[str]] = {}
        for cls, declared in policies:
            full, temporal = self._surface_reachability(cls)
            analyses = {
                q: self._analyze_function(q) for q in full | temporal
            }
            conclusive = all(a.conclusive for a in analyses.values())
            violations: list[tuple[str, _Violation]] = []
            for qname in sorted(full | temporal):
                analysis = analyses[qname]
                for violation in analysis.violations:
                    if violation.kind == "mutation" and qname not in full:
                        continue  # select surface: mutation-exempt
                    violations.append((qname, violation))
                if qname in full:
                    used_whitelist |= analysis.whitelist_used
            if declared:
                for qname in full:
                    full_owners.setdefault(qname, set()).add(cls.name)
                for qname in temporal - full:
                    temporal_owners.setdefault(qname, set()).add(cls.name)
            elif not violations and conclusive and (full or temporal):
                module = index.modules[cls.module]
                out.append(
                    deep_diag(
                        UNDERDECLARED_RULE,
                        module,
                        cls.node,
                        f"policy {cls.name} declares "
                        f"{FLAG_ATTR} = False but its decision surface "
                        f"is conclusively stationary (no time dependence "
                        f"or non-whitelisted mutation found)",
                    )
                )
        out.extend(self._emit_violations(full_owners, temporal_owners))
        out.extend(self._stale_whitelist(policies, used_whitelist))
        return out

    # ------------------------------------------------------------------
    # Policy discovery and reachability
    # ------------------------------------------------------------------
    def _policy_classes(
        self, index: ProjectIndex
    ) -> list[tuple[ClassInfo, bool]]:
        out = []
        for qname in sorted(index.classes):
            cls = index.classes[qname]
            if cls.name == POLICY_BASE:
                continue
            ancestry = index.mro(qname)
            if not any(
                base.rsplit(".", 1)[-1] == POLICY_BASE
                for info in ancestry
                for base in info.bases
            ):
                continue
            if index.lookup_method(qname, "target_mix") is None:
                continue  # abstract intermediate
            declared = False
            flag = index.class_attr(qname, FLAG_ATTR)
            if isinstance(flag, ast.Constant) and isinstance(flag.value, bool):
                declared = flag.value
            out.append((cls, declared))
        return out

    def _surface_reachability(
        self, cls: ClassInfo
    ) -> tuple[set[str], set[str]]:
        index = self._index
        full_entries = [
            m.qname
            for name in DECISION_SURFACE_FULL
            if (m := index.lookup_method(cls.qname, name)) is not None
        ]
        temporal_entries = [
            m.qname
            for name in DECISION_SURFACE_TEMPORAL
            if (m := index.lookup_method(cls.qname, name)) is not None
        ]
        full = self._guarded_reachable(full_entries)
        temporal = self._guarded_reachable(temporal_entries)
        return full, temporal

    def _guarded_reachable(self, entries: list[str]) -> set[str]:
        index = self._index
        seen: set[str] = set()
        queue = list(entries)
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            fn = index.functions.get(current)
            if fn is None:
                continue
            if index.modules[fn.module].in_dir(*TELEMETRY_DIRS):
                continue
            seen.add(current)
            for node in _iter_unguarded(fn.node):
                if isinstance(node, ast.Call):
                    site = index.resolve_call(fn, node)
                    queue.extend(t for t in site.targets if t not in seen)
        return seen

    # ------------------------------------------------------------------
    # Per-function analysis (cached: shared helpers analyzed once)
    # ------------------------------------------------------------------
    def _analyze_function(self, qname: str) -> _FunctionAnalysis:
        cached = self._analyses.get(qname)
        if cached is not None:
            return cached
        index = self._index
        fn = index.functions[qname]
        violations: list[_Violation] = []
        whitelist_used: set[tuple[str, str]] = set()
        conclusive = True
        whitelist = (
            self._effective_whitelist(fn.owner) if fn.owner else {}
        )
        obs_params = {
            p
            for p in fn.param_names
            if p == "obs"
            or (fn.param_types.get(p, "")).rsplit(".", 1)[-1] == "Observation"
        }
        module = index.modules[fn.module]
        for node in _iter_unguarded(fn.node):
            if isinstance(node, ast.Call):
                violations.extend(self._temporal_call(fn, node))
                mutation, ok = self._mutating_call(
                    fn, node, whitelist, whitelist_used
                )
                violations.extend(mutation)
                conclusive = conclusive and ok
            elif isinstance(node, ast.Attribute):
                if (
                    node.attr == "now"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in obs_params
                ):
                    violations.append(
                        _Violation(
                            "temporal",
                            node,
                            f"{fn.name}() reads obs.now outside an "
                            f"audit guard",
                        )
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                violations.extend(
                    self._mutating_assign(
                        fn, module, node, whitelist, whitelist_used
                    )
                )
            elif isinstance(node, ast.Global):
                violations.append(
                    _Violation(
                        "mutation",
                        node,
                        f"{fn.name}() declares global "
                        f"{', '.join(node.names)}",
                    )
                )
        analysis = _FunctionAnalysis(violations, whitelist_used, conclusive)
        self._analyses[qname] = analysis
        return analysis

    def _effective_whitelist(
        self, cls_qname: Optional[str]
    ) -> dict[str, str]:
        """attr -> declaring class qname, unioned through the MRO."""
        out: dict[str, str] = {}
        if cls_qname is None:
            return out
        for info in self._index.mro(cls_qname):
            expr = info.class_attrs.get(WHITELIST_ATTR)
            for attr in _parse_whitelist(expr):
                out.setdefault(attr, info.qname)
        return out

    def _temporal_call(
        self, fn: FunctionInfo, node: ast.Call
    ) -> list[_Violation]:
        chain = attr_chain(node.func)
        if len(chain) >= 2 and chain[-2] == "time" and chain[-1] in _TIME_FNS:
            return [
                _Violation(
                    "temporal",
                    node,
                    f"{fn.name}() reads the wall clock via "
                    f"{'.'.join(chain)}()",
                )
            ]
        if chain and chain[-1] in _DATETIME_FNS and any(
            part in ("datetime", "date") for part in chain[:-1]
        ):
            return [
                _Violation(
                    "temporal",
                    node,
                    f"{fn.name}() reads the wall clock via "
                    f"{'.'.join(chain)}()",
                )
            ]
        return []

    def _mutating_call(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        whitelist: dict[str, str],
        whitelist_used: set[tuple[str, str]],
    ) -> tuple[list[_Violation], bool]:
        chain = attr_chain(node.func)
        module = self._index.modules[fn.module]
        if not chain:
            return [], True
        if chain[0] == "self":
            if len(chain) == 2:
                resolved = (
                    fn.owner is not None
                    and self._index.lookup_method(fn.owner, chain[1])
                    is not None
                )
                return [], resolved
            if chain[-1] in _MUTATING_METHODS:
                attr = chain[1]
                if len(chain) == 3 and attr in whitelist:
                    whitelist_used.add((whitelist[attr], attr))
                    return [], True
                target = ".".join(chain[:-1])
                return [
                    _Violation(
                        "mutation",
                        node,
                        f"{fn.name}() mutates {target} via "
                        f".{chain[-1]}() (not in stationary_state)",
                    )
                ], True
            return [], True
        if len(chain) == 1:
            if chain[0] in _SAFE_BUILTINS:
                return [], True
            site = self._index.resolve_call(fn, node)
            local_env = fn.param_names
            resolved = bool(site.targets) or site.external is not None
            unresolved_local = (
                not resolved
                and chain[0] not in local_env
                and chain[0] not in module.defs
            )
            # unresolved locals (callbacks passed in, comprehension
            # vars) are opaque: mark inconclusive rather than guess
            return [], not unresolved_local or chain[0] in module.imports
        if chain[-1] in _MUTATING_METHODS and chain[0] in module.defs:
            value = module.module_assigns.get(chain[0])
            if value is not None and _is_mutable_module_value(value):
                return [
                    _Violation(
                        "mutation",
                        node,
                        f"{fn.name}() mutates module-global "
                        f"{chain[0]!r} via .{chain[-1]}()",
                    )
                ], True
        return [], True

    def _mutating_assign(
        self,
        fn: FunctionInfo,
        module,
        node: ast.Assign | ast.AugAssign | ast.AnnAssign,
        whitelist: dict[str, str],
        whitelist_used: set[tuple[str, str]],
    ) -> list[_Violation]:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            targets = [node.target]
        out: list[_Violation] = []
        for target in targets:
            base = target
            via_item = False
            while isinstance(base, ast.Subscript):
                base = base.value
                via_item = True
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                attr = base.attr
                if attr in whitelist:
                    whitelist_used.add((whitelist[attr], attr))
                    continue
                how = "an item of " if via_item else ""
                out.append(
                    _Violation(
                        "mutation",
                        node,
                        f"{fn.name}() writes {how}self.{attr} "
                        f"(not in stationary_state)",
                    )
                )
            elif (
                via_item
                and isinstance(base, ast.Name)
                and base.id in module.module_assigns
                and _is_mutable_module_value(module.module_assigns[base.id])
            ):
                out.append(
                    _Violation(
                        "mutation",
                        node,
                        f"{fn.name}() writes an item of module-global "
                        f"{base.id!r}",
                    )
                )
        return out

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit_violations(
        self,
        full_owners: dict[str, set[str]],
        temporal_owners: dict[str, set[str]],
    ) -> list[Diagnostic]:
        index = self._index
        out: list[Diagnostic] = []
        emitted: set[tuple[str, int, str]] = set()
        for owners_map, kinds in (
            (full_owners, ("temporal", "mutation")),
            (temporal_owners, ("temporal",)),
        ):
            for qname in sorted(owners_map):
                analysis = self._analyses[qname]
                fn = index.functions[qname]
                module = index.modules[fn.module]
                policies = ", ".join(sorted(owners_map[qname]))
                for violation in analysis.violations:
                    if violation.kind not in kinds:
                        continue
                    key = (
                        module.path,
                        getattr(violation.node, "lineno", 1),
                        violation.message,
                    )
                    if key in emitted:
                        continue
                    emitted.add(key)
                    out.append(
                        deep_diag(
                            VIOLATION_RULE,
                            module,
                            violation.node,
                            f"{violation.message} — reachable from "
                            f"stationary policy {policies}",
                        )
                    )
        return out

    def _stale_whitelist(
        self,
        policies: list[tuple[ClassInfo, bool]],
        used: set[tuple[str, str]],
    ) -> list[Diagnostic]:
        index = self._index
        out: list[Diagnostic] = []
        any_stationary = any(declared for _, declared in policies)
        for qname in sorted(index.classes):
            cls = index.classes[qname]
            expr = cls.class_attrs.get(WHITELIST_ATTR)
            if expr is None:
                continue
            for attr in sorted(_parse_whitelist(expr)):
                if (qname, attr) in used:
                    continue
                if not any_stationary:
                    continue  # nothing analyzed, usage unknowable
                module = index.modules[cls.module]
                out.append(
                    deep_diag(
                        STALE_WHITELIST_RULE,
                        module,
                        expr,
                        f"stationary_state entry {attr!r} on {cls.name} "
                        f"is never mutated by any reachable decision "
                        f"code — stale whitelist entry",
                    )
                )
        return out


def _parse_whitelist(expr: Optional[ast.expr]) -> set[str]:
    """Entries of a ``stationary_state = frozenset({...})`` literal."""
    if expr is None:
        return set()
    inner: Optional[ast.expr] = None
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        if chain == ["frozenset"]:
            inner = expr.args[0] if expr.args else None
    elif isinstance(expr, (ast.Set, ast.Tuple, ast.List)):
        inner = expr
    if inner is None:
        return set()
    if not isinstance(inner, (ast.Set, ast.Tuple, ast.List)):
        return set()
    return {
        e.value
        for e in inner.elts
        if isinstance(e, ast.Constant) and isinstance(e.value, str)
    }


def _is_mutable_module_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        chain = attr_chain(value.func)
        return bool(chain) and chain[-1] in (
            "dict", "list", "set", "bytearray", "deque", "defaultdict",
            "Counter", "OrderedDict",
        )
    return False
