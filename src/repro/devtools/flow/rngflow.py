"""RNG-stream taint analysis (``REPRO-D101``/``D102``/``D103``).

Three whole-program checks over how ``numpy.random.Generator`` objects
flow through the package:

* **D101 — untraceable draw.**  In the seeded directories every draw
  must trace, through parameters, locally-constructed streams
  (``default_rng(derive_seed(...))``, ``RngRegistry.stream``), or
  seeded instance attributes, back to a seeded stream.  Draws on
  module-global Generators (stream position shared by every caller) and
  on unseeded ``default_rng()`` values are flagged too.
* **D102 — Generator escape.**  A Generator captured by a closure that
  escapes the defining function (returned / stored on ``self`` or a
  container), or passed into a process boundary (``grid_sweep``,
  ``Executor.submit``/``map``) where pickling forks the stream state
  identically into every worker.
* **D103 — draw-count / draw-parity contract.**  Regions annotated
  ``# repro: fixed-draws: <reason>`` promise a data-independent number
  of draws per entry (the chaos-overlay pulse contract); the pass flags
  draws nested under data-dependent control flow and conditional early
  exits between draws.  Regions annotated
  ``# repro: draw-parity[group]: <reason>`` promise identical draw
  skeletons (method, arity, control context) across all group members —
  how the discrete and hybrid engines pin their victim-sampling
  equivalence statically.

Malformed, unattached, or stale directives are ``REPRO-D100``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.devtools.flow.base import deep_diag, deep_rule
from repro.devtools.flow.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    attr_chain,
)
from repro.devtools.lint.engine import Diagnostic, _comment_lines
from repro.devtools.lint.rules import _GENERATOR_DRAWS, SEEDED_DIRS

__all__ = ["RULES", "RngFlowPass"]

DIRECTIVE_RULE = deep_rule(
    "REPRO-D100",
    "flow-directive",
    "fixed-draws / draw-parity directives are load-bearing contracts; a "
    "malformed, unattached, or stale one silently stops guarding the "
    "draw-count invariant it was written for.",
    "attach the directive to a def/for/while line, give it a reason, "
    "and delete it when the guarded draws are gone",
)
TAINT_RULE = deep_rule(
    "REPRO-D101",
    "rng-taint",
    "Replay results are compared byte-for-byte across "
    "engines and sweep workers; a draw that does not trace back to a "
    "seeded named stream (via parameters, derive_seed construction, or "
    "RngRegistry.stream) makes output depend on hidden shared state.",
    "thread a seeded Generator parameter through, or construct the "
    "stream locally via np.random.default_rng(derive_seed(...))",
)
ESCAPE_RULE = deep_rule(
    "REPRO-D102",
    "rng-escape",
    "A Generator that escapes its defining scope (closure, attribute "
    "store) or crosses a process boundary is advanced out of program "
    "order — pickling into grid_sweep workers forks the same stream "
    "state into every worker, so all workers draw identical values.",
    "pass a seed across the boundary and construct the stream inside "
    "the worker (grid_sweep does this via derive_seed per point)",
)
CONTRACT_RULE = deep_rule(
    "REPRO-D103",
    "draw-contract",
    "Chaos injections and engine-parity regions declare fixed or "
    "matching RNG draw counts; a draw under data-dependent control "
    "flow shifts every subsequent stream position, silently breaking "
    "byte-identical replay equivalence.",
    "hoist draws out of conditionals (draw unconditionally, apply "
    "conditionally) or restructure so every entry draws equally",
)

RULES = (DIRECTIVE_RULE, TAINT_RULE, ESCAPE_RULE, CONTRACT_RULE)

#: Generator draw methods (superset of the shallow rule's set — any of
#: these consumes entropy and advances the stream).
DRAW_METHODS = frozenset(
    _GENERATOR_DRAWS
    | {
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "dirichlet",
        "gamma",
        "geometric",
        "gumbel",
        "laplace",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "pareto",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_t",
        "triangular",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)

_DIRECTIVE_RE = re.compile(
    r"#\s*repro:\s*(?P<kind>fixed-draws|draw-parity)"
    r"(?:\[(?P<arg>[A-Za-z0-9_.\-, ]+)\])?"
    r"(?:\s*:\s*(?P<reason>.*))?$"
)

_BOUNDARY_METHODS = frozenset({"submit", "map", "imap", "imap_unordered", "apply_async"})
_BOUNDARY_RECEIVER_TOKENS = ("pool", "executor")


def _is_generator_type(type_name: Optional[str]) -> bool:
    return type_name is not None and (
        type_name == "Generator" or type_name.endswith(".Generator")
    )


def _rng_like(name: str) -> bool:
    lowered = name.lower().lstrip("_")
    return lowered == "rng" or lowered.endswith("_rng") or lowered.startswith("rng")


def _classify_call(value: ast.Call) -> Optional[str]:
    """'seeded'/'unseeded' for stream-constructing calls, else None."""
    chain = attr_chain(value.func)
    if chain:
        tail = chain[-1]
    elif isinstance(value.func, ast.Attribute):
        # chain root is itself a call — ``RngRegistry(seed).stream(...)``
        tail = value.func.attr
    else:
        return None
    if tail == "default_rng":
        if not value.args and not value.keywords:
            return "unseeded"
        return "seeded"  # seed *quality* is REPRO-R001's job
    if tail in ("stream", "spawn"):
        return "seeded"  # RngRegistry.stream / Generator.spawn idioms
    return None


class RngFlowPass:
    """The RNG taint / escape / contract pass."""

    name = "rng-taint"
    rules = RULES

    def run(self, index: ProjectIndex) -> list[Diagnostic]:
        self._index = index
        self._attr_tags = self._class_attr_tags(index)
        out: list[Diagnostic] = []
        for module in index.modules.values():
            if module.in_dir("devtools/"):
                continue
            for fn in index.functions.values():
                if fn.module != module.name:
                    continue
                env = self._function_env(fn)
                out.extend(self._check_draws(module, fn, env))
                out.extend(self._check_escapes(module, fn, env))
        out.extend(self._check_directives(index))
        return out

    # ------------------------------------------------------------------
    # Taint classification
    # ------------------------------------------------------------------
    def _class_attr_tags(self, index: ProjectIndex) -> dict[str, dict[str, str]]:
        """Per-class ``self.attr`` RNG tags from assignments in any
        method (two rounds, so ``self._rng = rng`` chains resolve)."""
        tags: dict[str, dict[str, str]] = {c: {} for c in index.classes}
        for _ in range(2):
            for cls in index.classes.values():
                cls_tags = tags[cls.qname]
                for method in cls.methods.values():
                    param_env = {
                        p: "seeded"
                        for p in method.param_names
                        if _is_generator_type(method.param_types.get(p))
                        or _rng_like(p)
                    }
                    for node in ast.walk(method.node):
                        if not (
                            isinstance(node, ast.Assign)
                            and len(node.targets) == 1
                        ):
                            continue
                        target = node.targets[0]
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        tag = self._expr_tag_basic(
                            method, node.value, param_env, tags
                        )
                        if tag:
                            cls_tags.setdefault(target.attr, tag)
        return tags

    def _attr_tag(self, cls_qname: str, attr: str) -> Optional[str]:
        for info in self._index.mro(cls_qname):
            tag = self._attr_tags.get(info.qname, {}).get(attr)
            if tag:
                return tag
        return None

    def _expr_tag_basic(
        self,
        fn: FunctionInfo,
        value: ast.expr,
        env: dict[str, str],
        tags: dict[str, dict[str, str]],
    ) -> Optional[str]:
        if isinstance(value, ast.Call):
            return _classify_call(value)
        if isinstance(value, ast.Name):
            return env.get(value.id)
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
        ):
            head = value.value.id
            if head == "self" and fn.owner:
                for info in self._index.mro(fn.owner):
                    tag = tags.get(info.qname, {}).get(value.attr)
                    if tag:
                        return tag
                return None
            receiver_type = fn.param_types.get(head)
            if receiver_type and receiver_type in self._index.classes:
                for info in self._index.mro(receiver_type):
                    tag = tags.get(info.qname, {}).get(value.attr)
                    if tag:
                        return tag
        return None

    def _function_env(self, fn: FunctionInfo) -> dict[str, str]:
        """Name -> 'seeded'/'unseeded'/'global' inside ``fn``."""
        env: dict[str, str] = {}
        for param in fn.param_names:
            if _is_generator_type(fn.param_types.get(param)) or _rng_like(param):
                env[param] = "seeded"
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                tag = self._expr_tag(fn, node.value, env)
                if tag:
                    env.setdefault(node.targets[0].id, tag)
        return env

    def _expr_tag(
        self, fn: FunctionInfo, value: ast.expr, env: dict[str, str]
    ) -> Optional[str]:
        tag = self._expr_tag_basic(fn, value, env, self._attr_tags)
        if tag:
            return tag
        if isinstance(value, ast.Name):
            module = self._index.modules[fn.module]
            module_value = module.module_assigns.get(value.id)
            if module_value is not None and isinstance(module_value, ast.Call):
                if _classify_call(module_value) is not None:
                    return "global"
        return None

    # ------------------------------------------------------------------
    # D101: draws
    # ------------------------------------------------------------------
    def _check_draws(
        self, module: ModuleInfo, fn: FunctionInfo, env: dict[str, str]
    ) -> Iterator[Diagnostic]:
        if not module.in_dir(*SEEDED_DIRS):
            return
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if len(chain) < 2 or chain[-1] not in DRAW_METHODS:
                continue
            receiver = node.func
            assert isinstance(receiver, ast.Attribute)
            tag = self._expr_tag(fn, receiver.value, env)
            receiver_name = chain[-2]
            if tag == "global":
                yield deep_diag(
                    TAINT_RULE,
                    module,
                    node,
                    f"draw .{chain[-1]}() on module-global Generator "
                    f"{'.'.join(chain[:-1])!r} — stream position is shared "
                    f"by every caller and survives across runs in-process",
                )
            elif tag == "unseeded":
                yield deep_diag(
                    TAINT_RULE,
                    module,
                    node,
                    f"draw .{chain[-1]}() on an unseeded Generator "
                    f"({'.'.join(chain[:-1])!r} comes from default_rng() "
                    f"with OS entropy)",
                )
            elif tag is None and _rng_like(receiver_name):
                yield deep_diag(
                    TAINT_RULE,
                    module,
                    node,
                    f"draw .{chain[-1]}() on {'.'.join(chain[:-1])!r} "
                    f"cannot be traced to a seeded stream (no Generator "
                    f"parameter, derive_seed construction, or "
                    f"RngRegistry.stream reaches it)",
                )

    # ------------------------------------------------------------------
    # D102: escapes
    # ------------------------------------------------------------------
    def _check_escapes(
        self, module: ModuleInfo, fn: FunctionInfo, env: dict[str, str]
    ) -> Iterator[Diagnostic]:
        rng_names = set(env)
        if rng_names:
            capturing = self._capturing_closures(fn, rng_names)
            if capturing:
                yield from self._closure_escapes(module, fn, capturing)
        yield from self._boundary_crossings(module, fn, env)

    def _capturing_closures(
        self, fn: FunctionInfo, rng_names: set[str]
    ) -> dict[ast.AST, set[str]]:
        capturing: dict[ast.AST, set[str]] = {}
        for node in ast.walk(fn.node):
            if node is fn.node or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            params = {a.arg for a in [
                *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs
            ]}
            stored = {
                sub.id
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            }
            loaded = {
                sub.id
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            captured = (loaded - params - stored) & rng_names
            if captured:
                capturing[node] = captured
        return capturing

    def _closure_escapes(
        self,
        module: ModuleInfo,
        fn: FunctionInfo,
        capturing: dict[ast.AST, set[str]],
    ) -> Iterator[Diagnostic]:
        names = {
            node.name: caps
            for node, caps in capturing.items()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        lambdas = {
            node: caps
            for node, caps in capturing.items()
            if isinstance(node, ast.Lambda)
        }

        def escaping(expr: ast.expr) -> Optional[set[str]]:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name) and sub.id in names:
                    return names[sub.id]
                if isinstance(sub, ast.Lambda) and sub in lambdas:
                    return lambdas[sub]
            return None

        for node in ast.walk(fn.node):
            caps: Optional[set[str]] = None
            how = ""
            if isinstance(node, ast.Return) and node.value is not None:
                caps, how = escaping(node.value), "returned"
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ):
                    caps, how = escaping(node.value), "stored"
            if caps:
                captured = ", ".join(sorted(caps))
                yield deep_diag(
                    ESCAPE_RULE,
                    module,
                    node,
                    f"closure capturing Generator {captured!r} is {how} — "
                    f"the stream escapes {fn.name}() and its draws are no "
                    f"longer ordered by this function's control flow",
                )

    def _boundary_crossings(
        self, module: ModuleInfo, fn: FunctionInfo, env: dict[str, str]
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            site = self._index.resolve_call(fn, node)
            is_pool_method = (
                len(chain) >= 2
                and chain[-1] in _BOUNDARY_METHODS
                and any(
                    token in part.lower()
                    for part in chain[:-1]
                    for token in _BOUNDARY_RECEIVER_TOKENS
                )
            )
            is_sweep = any(
                target.endswith(".grid_sweep") for target in site.targets
            ) or (
                site.external is not None
                and site.external.endswith(".grid_sweep")
            )
            if not (is_pool_method or is_sweep):
                continue
            boundary = "Executor" if is_pool_method else "grid_sweep"
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                carried = sorted(
                    {
                        sub.id
                        for sub in ast.walk(arg)
                        if isinstance(sub, ast.Name) and sub.id in env
                    }
                )
                if carried:
                    yield deep_diag(
                        ESCAPE_RULE,
                        module,
                        node,
                        f"Generator {', '.join(repr(c) for c in carried)} "
                        f"passed across the {boundary} process boundary — "
                        f"pickling forks identical stream state into every "
                        f"worker",
                    )

    # ------------------------------------------------------------------
    # D100/D103: draw-count and draw-parity directives
    # ------------------------------------------------------------------
    def _check_directives(self, index: ProjectIndex) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        parity_groups: dict[str, list[tuple[ModuleInfo, ast.stmt, list]]] = {}
        for module in index.modules.values():
            for lineno, comment in sorted(_comment_lines(module.source).items()):
                match = _DIRECTIVE_RE.search(comment)
                if match is None:
                    continue
                kind = match.group("kind")
                arg = (match.group("arg") or "").strip()
                reason = (match.group("reason") or "").strip()
                stmt = self._attached_stmt(module, lineno)
                if stmt is None:
                    out.append(
                        deep_diag(
                            DIRECTIVE_RULE,
                            module,
                            None,
                            f"{kind} directive on line {lineno} is not "
                            f"attached to a def/for/while statement",
                        )
                    )
                    continue
                if not reason:
                    out.append(
                        deep_diag(
                            DIRECTIVE_RULE,
                            module,
                            stmt,
                            f"{kind} directive without a reason",
                        )
                    )
                if kind == "fixed-draws":
                    out.extend(self._check_fixed_draws(module, stmt))
                else:
                    if not arg:
                        out.append(
                            deep_diag(
                                DIRECTIVE_RULE,
                                module,
                                stmt,
                                "draw-parity directive without a [group]",
                            )
                        )
                        continue
                    skeleton = self._draw_skeleton(stmt)
                    parity_groups.setdefault(arg, []).append(
                        (module, stmt, skeleton)
                    )
        for group, members in sorted(parity_groups.items()):
            out.extend(self._check_parity_group(group, members))
        return out

    @staticmethod
    def _attached_stmt(
        module: ModuleInfo, lineno: int
    ) -> Optional[ast.stmt]:
        for node in ast.walk(module.tree):
            if (
                isinstance(
                    node,
                    (ast.For, ast.While, ast.FunctionDef, ast.AsyncFunctionDef),
                )
                and node.lineno == lineno
            ):
                return node
        return None

    @classmethod
    def _region_body(cls, stmt: ast.stmt) -> list[ast.stmt]:
        return list(getattr(stmt, "body", []))

    @classmethod
    def _is_draw_call(cls, node: ast.Call) -> bool:
        chain = attr_chain(node.func)
        return (
            len(chain) >= 2
            and chain[-1] in DRAW_METHODS
            and (_rng_like(chain[-2]) or _rng_like(chain[0]))
        )

    @classmethod
    def _collect_draws(
        cls, body: list[ast.stmt], context: tuple[str, ...]
    ) -> list[tuple[ast.Call, tuple[str, ...]]]:
        """Draw calls with their control context within a region."""
        out: list[tuple[ast.Call, tuple[str, ...]]] = []
        for stmt in body:
            if isinstance(stmt, ast.If):
                out.extend(cls._expr_draws(stmt.test, context))
                out.extend(cls._collect_draws(stmt.body, (*context, "if")))
                out.extend(cls._collect_draws(stmt.orelse, (*context, "else")))
            elif isinstance(stmt, (ast.For, ast.While)):
                tag = "for" if isinstance(stmt, ast.For) else "while"
                if isinstance(stmt, ast.For):
                    out.extend(cls._expr_draws(stmt.iter, context))
                else:
                    out.extend(cls._expr_draws(stmt.test, context))
                out.extend(cls._collect_draws(stmt.body, (*context, tag)))
                out.extend(cls._collect_draws(stmt.orelse, (*context, tag)))
            elif isinstance(stmt, ast.Try):
                for part in (stmt.body, stmt.orelse, stmt.finalbody):
                    out.extend(cls._collect_draws(part, (*context, "try")))
                for handler in stmt.handlers:
                    out.extend(
                        cls._collect_draws(handler.body, (*context, "try"))
                    )
            elif isinstance(stmt, ast.With):
                out.extend(cls._collect_draws(stmt.body, context))
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes run on their own schedule
            else:
                for value in ast.iter_child_nodes(stmt):
                    if isinstance(value, ast.expr):
                        out.extend(cls._expr_draws(value, context))
        return out

    @classmethod
    def _expr_draws(
        cls, expr: ast.expr, context: tuple[str, ...]
    ) -> list[tuple[ast.Call, tuple[str, ...]]]:
        out: list[tuple[ast.Call, tuple[str, ...]]] = []
        if isinstance(expr, ast.Call) and cls._is_draw_call(expr):
            out.append((expr, context))
        extended: tuple[str, ...] = context
        if isinstance(expr, ast.IfExp):
            extended = (*context, "ifexp")
        elif isinstance(expr, ast.BoolOp):
            extended = (*context, "boolop")
        elif isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            extended = (*context, "comp")
        elif isinstance(expr, ast.Lambda):
            return out  # deferred execution: not part of this region
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out.extend(cls._expr_draws(child, extended))
            # comprehension clauses are not exprs; recurse explicitly
            elif isinstance(child, ast.comprehension):
                for sub in ast.walk(child):
                    if isinstance(sub, ast.Call) and cls._is_draw_call(sub):
                        out.append((sub, (*context, "comp")))
        return out

    def _check_fixed_draws(
        self, module: ModuleInfo, stmt: ast.stmt
    ) -> Iterator[Diagnostic]:
        body = self._region_body(stmt)
        draws = self._collect_draws(body, ())
        if not draws:
            yield deep_diag(
                DIRECTIVE_RULE,
                module,
                stmt,
                "fixed-draws region contains no RNG draws — stale directive",
            )
            return
        for call, context in draws:
            if context:
                yield deep_diag(
                    CONTRACT_RULE,
                    module,
                    call,
                    f"draw under data-dependent control flow "
                    f"({' > '.join(context)}) inside a fixed-draws region — "
                    f"the per-entry draw count can vary with input data",
                )
        exits = [
            node
            for s in body
            for node in ast.walk(s)
            if isinstance(node, (ast.Break, ast.Continue, ast.Return))
        ]
        unconditional = {id(s) for s in body}
        for exit_node in exits:
            # only *conditional* exits vary the count; an exit that is a
            # direct child of the region body ends every entry equally
            if id(exit_node) in unconditional:
                continue
            later = [c for c, _ in draws if c.lineno > exit_node.lineno]
            if later:
                yield deep_diag(
                    CONTRACT_RULE,
                    module,
                    exit_node,
                    "conditional early exit before later draws in a "
                    "fixed-draws region — entries that exit here consume "
                    "fewer draws",
                )
                break

    def _draw_skeleton(self, stmt: ast.stmt) -> list[tuple[str, int, tuple[str, ...]]]:
        body = self._region_body(stmt)
        skeleton = []
        for call, context in self._collect_draws(body, ()):
            chain = attr_chain(call.func)
            arity = len(call.args) + len(call.keywords)
            skeleton.append((chain[-1], arity, context))
        return skeleton

    def _check_parity_group(
        self,
        group: str,
        members: list[tuple[ModuleInfo, ast.stmt, list]],
    ) -> Iterator[Diagnostic]:
        if len(members) < 2:
            module, stmt, _ = members[0]
            yield deep_diag(
                DIRECTIVE_RULE,
                module,
                stmt,
                f"draw-parity group {group!r} has a single member — "
                f"nothing to compare against",
            )
            return
        reference_module, _, reference = members[0]
        for module, stmt, skeleton in members[1:]:
            if skeleton != reference:
                def _fmt(sk: list) -> str:
                    return (
                        "; ".join(
                            f"{m}/{n}args@{'>'.join(c) or 'top'}"
                            for m, n, c in sk
                        )
                        or "<no draws>"
                    )

                yield deep_diag(
                    CONTRACT_RULE,
                    module,
                    stmt,
                    f"draw-parity group {group!r} mismatch: this region "
                    f"draws [{_fmt(skeleton)}] but "
                    f"{reference_module.relpath} draws [{_fmt(reference)}]",
                )
