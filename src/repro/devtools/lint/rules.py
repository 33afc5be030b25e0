"""The determinism & simulation-hygiene rule pack.

Each rule encodes one invariant the reproduction's guarantees rest on
(see ``docs/STATIC_ANALYSIS.md`` for the full rationale of each):

========  ====================  ==================================================
id        name                  invariant protected
========  ====================  ==================================================
R001      rng-discipline        every random draw comes from a seeded, named
                                stream (seeded replays, parallel equivalence)
T001      no-wall-clock         simulated code never reads real time (results
                                must be a function of trace + config + seed)
O001      ordered-iteration     no order-sensitive work driven by unordered
                                collections (set iteration order varies per run)
F001      float-equality        no ``==``/``!=`` on money/latency floats
M001      mutable-default       no mutable default arguments (state leaks
                                across calls and across experiments)
E001      raw-event             all engine events go through call_at/call_after/
                                call_every (FIFO tie-break is part of the API)
X001      swallowed-exception   sim loops never silently eat errors (a dropped
                                callback silently skews every metric after it)
J001      telemetry-json        telemetry payloads are JSON-serialisable (JSONL
                                sinks and the events CLI must round-trip them)
========  ====================  ==================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.devtools.lint.engine import Diagnostic, FileContext, Rule

__all__ = ["ALL_RULES", "rules_by_id"]

#: Directories whose randomness must be threaded through
#: ``repro.sim.rng.derive_seed`` — the replay / policy / experiment
#: code whose outputs are compared across runs, plus the
#: telemetry layer (metric aggregation must never perturb or depend on
#: global RNG state).
SEEDED_DIRS = (
    "cloud/",
    "core/",
    "sim/",
    "baselines/",
    "experiments/",
    "chaos/",
    "control/",
    "telemetry/",
    "serving/",
    "workloads/",
)

#: ``numpy.random`` module-level convenience functions: all of them
#: draw from the hidden global RNG.
_NP_GLOBAL_FNS = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "choice",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "get_state",
        "gumbel",
        "laplace",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "normal",
        "pareto",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)

#: ``numpy.random.Generator`` draw methods — used to recognise RNG use
#: inside unordered-iteration bodies.
_GENERATOR_DRAWS = frozenset(
    {
        "choice",
        "exponential",
        "integers",
        "normal",
        "permutation",
        "poisson",
        "random",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _identifier_tokens(node: ast.AST) -> Iterator[str]:
    """Every identifier (Name id / Attribute attr) inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


class RngDisciplineRule(Rule):
    """R001: all randomness flows through seeded, named streams."""

    id = "REPRO-R001"
    name = "rng-discipline"
    rationale = (
        "Replay results must be a pure function of (trace, policy, config, "
        "seed), and parallel sweeps are asserted byte-identical to serial "
        "runs; any draw from the stdlib `random` module or numpy's hidden "
        "global RNG makes results depend on process-global state instead."
    )
    fix_hint = (
        "draw from RngRegistry.stream(name) or call "
        "np.random.default_rng(derive_seed(root_seed, name))"
    )
    interests = (ast.Import, ast.ImportFrom, ast.Call)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Diagnostic]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield self.diag(
                        ctx, node, "import of the stdlib `random` module"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield self.diag(
                    ctx, node, "import from the stdlib `random` module"
                )
            elif node.module in ("numpy.random", "numpy.random.mtrand"):
                for alias in node.names:
                    if alias.name in _NP_GLOBAL_FNS:
                        yield self.diag(
                            ctx,
                            node,
                            f"import of global-state numpy.random.{alias.name}",
                        )
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if (
                len(chain) >= 3
                and chain[-2] == "random"
                and chain[0] in ("np", "numpy")
                and chain[-1] in _NP_GLOBAL_FNS
            ):
                yield self.diag(
                    ctx,
                    node,
                    f"call to numpy.random.{chain[-1]} (hidden global RNG)",
                )
            elif chain and chain[-1] == "default_rng":
                yield from self._check_default_rng(node, ctx)

    def _check_default_rng(
        self, node: ast.Call, ctx: FileContext
    ) -> Iterator[Diagnostic]:
        # Seed-derivation is only mandated in the replay/policy/
        # experiment code whose outputs are compared across runs.
        if not ctx.in_dir(*SEEDED_DIRS):
            return
        if not node.args:
            yield self.diag(
                ctx,
                node,
                "default_rng() without a seed (OS entropy: "
                "non-reproducible)",
            )
            return
        seed = node.args[0]
        if isinstance(seed, ast.Call):
            seed_chain = _attr_chain(seed.func)
            if seed_chain and seed_chain[-1] == "derive_seed":
                return
        yield self.diag(
            ctx,
            node,
            "default_rng() seed is not derived via "
            "repro.sim.rng.derive_seed (streams may collide or correlate)",
        )


class NoWallClockRule(Rule):
    """T001: simulated code never reads the wall clock."""

    id = "REPRO-T001"
    name = "no-wall-clock"
    rationale = (
        "Replay results must be a pure function of (trace, config, seed) "
        "so they can be compared across runs; a wall-clock read makes "
        "output depend on when the experiment ran.  Wall time is only "
        "legitimate at the observability edge (telemetry/ timestamps, "
        "CLI progress)."
    )
    fix_hint = (
        "use SimulationEngine.now for simulated time, or "
        "repro.telemetry.clock for wall-clock timestamps at the "
        "observability edge"
    )
    interests = (ast.Call, ast.ImportFrom)
    exclude = ("telemetry/", "cli.py", "devtools/")

    _TIME_FNS = frozenset(
        {"time", "monotonic", "monotonic_ns", "perf_counter",
         "perf_counter_ns", "process_time", "time_ns"}
    )
    _DATETIME_FNS = frozenset({"now", "utcnow", "today"})

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Diagnostic]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in self._TIME_FNS:
                        yield self.diag(
                            ctx, node, f"import of wall-clock time.{alias.name}"
                        )
            return
        assert isinstance(node, ast.Call)
        chain = _attr_chain(node.func)
        if len(chain) < 2:
            return
        if chain[-2] == "time" and chain[-1] in self._TIME_FNS:
            yield self.diag(
                ctx, node, f"wall-clock read time.{chain[-1]}()"
            )
        elif chain[-1] in self._DATETIME_FNS and any(
            part in ("datetime", "date") for part in chain[:-1]
        ):
            yield self.diag(
                ctx, node, f"wall-clock read {'.'.join(chain)}()"
            )


def _is_unordered_iterable(node: ast.AST) -> Optional[str]:
    """A description of why ``node`` iterates in undefined order, or
    ``None`` if it is order-safe."""
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return "a set literal"
    if isinstance(node, ast.Call):
        chain = _attr_chain(node.func)
        if chain and chain[-1] in ("set", "frozenset") and len(chain) == 1:
            return f"{chain[-1]}(...)"
        if chain and chain[-1] == "keys":
            return ".keys()"
    return None


def _body_order_sensitivity(body: Sequence[ast.stmt]) -> Optional[str]:
    """Why the loop body makes iteration order observable, or ``None``."""
    for stmt in body:
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            chain = _attr_chain(sub.func)
            if not chain:
                continue
            tail = chain[-1]
            if tail in ("append", "appendleft", "extend"):
                return f"appends to a result list via .{tail}()"
            if tail in ("emit", "record", "observe"):
                return f"emits telemetry via .{tail}()"
            if tail in _GENERATOR_DRAWS and any(
                "rng" in part.lower() for part in chain[:-1]
            ):
                return f"consumes RNG draws via .{tail}()"
    return None


class OrderedIterationRule(Rule):
    """O001: no order-sensitive work driven by unordered collections."""

    id = "REPRO-O001"
    name = "ordered-iteration"
    rationale = (
        "Set iteration order depends on insertion history and per-process "
        "hash randomisation for str keys; when the loop body consumes RNG "
        "draws, builds result lists, or emits telemetry, that order leaks "
        "into replay output and breaks run-to-run and parallel-vs-serial "
        "equivalence."
    )
    fix_hint = "iterate over sorted(...) or an explicitly ordered list"
    interests = (ast.For, ast.ListComp)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Diagnostic]:
        if isinstance(node, ast.For):
            why_unordered = _is_unordered_iterable(node.iter)
            if why_unordered is None:
                return
            why_sensitive = _body_order_sensitivity(node.body)
            if why_sensitive is None:
                return
            yield self.diag(
                ctx,
                node,
                f"iteration over {why_unordered} whose body "
                f"{why_sensitive} — order leaks into results",
            )
        elif isinstance(node, ast.ListComp):
            for gen in node.generators:
                why_unordered = _is_unordered_iterable(gen.iter)
                if why_unordered is not None:
                    yield self.diag(
                        ctx,
                        node,
                        f"list built from {why_unordered} — element order "
                        "is undefined",
                    )
                    return


class FloatEqualityRule(Rule):
    """F001: no exact equality on money/latency quantities."""

    id = "REPRO-F001"
    name = "float-equality"
    rationale = (
        "Costs, prices, and latencies are accumulated floats; exact "
        "==/!= on them flips on the last ulp and turns a benign "
        "refactor (summation order, vectorisation) into a behaviour "
        "change the replay-equivalence tests then chase for hours."
    )
    fix_hint = "use math.isclose / an explicit tolerance, or compare ints"
    interests = (ast.Compare,)

    _TOKENS = ("cost", "price", "latency")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Diagnostic]:
        assert isinstance(node, ast.Compare)
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        sides = [node.left, *node.comparators]
        # String/None comparisons are identity-ish, not numeric.
        for side in sides:
            if isinstance(side, ast.Constant) and isinstance(
                side.value, (str, bytes, type(None))
            ):
                return
        for side in sides:
            for token in _identifier_tokens(side):
                lowered = token.lower()
                if any(t in lowered for t in self._TOKENS):
                    yield self.diag(
                        ctx,
                        node,
                        f"exact ==/!= involving float-bearing name "
                        f"{token!r}",
                    )
                    return


class MutableDefaultRule(Rule):
    """M001: no mutable default arguments."""

    id = "REPRO-M001"
    name = "mutable-default"
    rationale = (
        "A mutable default is created once per process and shared by "
        "every call — state from one experiment leaks into the next, "
        "and a parallel sweep worker sees different state than the "
        "serial run."
    )
    fix_hint = "default to None and construct inside, or use frozenset()"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque",
                                "defaultdict", "Counter", "OrderedDict"})

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Diagnostic]:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            bad: Optional[str] = None
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ):
                bad = "a mutable literal"
            elif isinstance(default, ast.Call):
                chain = _attr_chain(default.func)
                if chain and chain[-1] in self._MUTABLE_CALLS:
                    bad = f"a {chain[-1]}() call"
            if bad is not None:
                name = getattr(node, "name", "<lambda>")
                yield self.diag(
                    ctx,
                    default,
                    f"default argument of {name}() is {bad}, shared "
                    "across calls",
                )


class RawEventRule(Rule):
    """E001: engine events only via the scheduling API."""

    id = "REPRO-E001"
    name = "raw-event"
    rationale = (
        "SimulationEngine orders simultaneous events by scheduling "
        "sequence number and keeps a live pending-event counter; "
        "constructing _ScheduledEvent or touching the engine's _queue "
        "directly bypasses both, corrupting FIFO tie-breaks and O(1) "
        "pending counts that replay determinism relies on."
    )
    fix_hint = "schedule via engine.call_at / call_after / call_every"
    interests = (ast.Call, ast.Attribute)
    exclude = ("sim/engine.py",)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Diagnostic]:
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain and chain[-1] == "_ScheduledEvent":
                yield self.diag(
                    ctx,
                    node,
                    "direct _ScheduledEvent construction bypasses the "
                    "engine's enqueue API",
                )
        elif isinstance(node, ast.Attribute) and node.attr == "_queue":
            # Only the *engine's* heap is protected; components are free
            # to keep their own request queues under the same name.
            owner = _attr_chain(node.value)
            if owner and owner[-1] in ("engine", "_engine", "sim"):
                yield self.diag(
                    ctx,
                    node,
                    "direct access to the engine's _queue heap",
                )


class SwallowedExceptionRule(Rule):
    """X001: simulation loops never silently eat errors."""

    id = "REPRO-X001"
    name = "swallowed-exception"
    rationale = (
        "A dropped exception inside a sim/reconcile loop silently skips "
        "a callback; every metric after it is subtly wrong and no test "
        "fails loudly.  Bare `except:` additionally traps "
        "KeyboardInterrupt/SystemExit."
    )
    fix_hint = (
        "catch the narrowest exception type and at minimum log or "
        "re-raise; never `except: pass`"
    )
    interests = (ast.ExceptHandler,)

    _BROAD_DIRS = ("sim/", "serving/", "experiments/", "core/", "baselines/")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Diagnostic]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield self.diag(
                ctx, node, "bare `except:` (traps SystemExit and "
                "KeyboardInterrupt too)"
            )
            return
        if not ctx.in_dir(*self._BROAD_DIRS):
            return
        if not self._is_broad(node.type):
            return
        if all(self._is_noop(stmt) for stmt in node.body):
            yield self.diag(
                ctx,
                node,
                "broad exception handler silently swallows the error",
            )

    @staticmethod
    def _is_broad(type_node: ast.expr) -> bool:
        names: list[ast.expr] = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        for name in names:
            chain = _attr_chain(name)
            if chain and chain[-1] in ("Exception", "BaseException"):
                return True
        return False

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            return True
        return isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        )


class TelemetryJsonRule(Rule):
    """J001: telemetry payloads must be JSON-serialisable."""

    id = "REPRO-J001"
    name = "telemetry-json"
    rationale = (
        "Events flow to JsonlSink and back through `repro report`, and "
        "metric observations land in canonical report JSON; a payload "
        "holding a set, generator, lambda, or bytes either crashes the "
        "sink mid-experiment or (sets) serialises in nondeterministic "
        "order, breaking event-log and report diffs between runs."
    )
    fix_hint = (
        "pass JSON-native values: sort sets into lists, materialise "
        "generators, drop callables"
    )
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Diagnostic]:
        assert isinstance(node, ast.Call)
        chain = _attr_chain(node.func)
        if not chain or chain[-1] not in ("emit", "record", "observe"):
            return
        values = [*node.args, *(kw.value for kw in node.keywords)]
        for value in values:
            bad: Optional[str] = None
            if isinstance(value, (ast.Set, ast.SetComp)):
                bad = "a set (unordered, not JSON-serialisable)"
            elif isinstance(value, ast.GeneratorExp):
                bad = "a generator expression"
            elif isinstance(value, ast.Lambda):
                bad = "a lambda"
            elif isinstance(value, ast.Constant) and isinstance(
                value.value, bytes
            ):
                bad = "a bytes literal"
            elif isinstance(value, ast.Call):
                value_chain = _attr_chain(value.func)
                if value_chain == ["set"] or value_chain == ["frozenset"]:
                    bad = f"a {value_chain[0]}(...) value"
            if bad is not None:
                yield self.diag(
                    ctx,
                    value,
                    f"telemetry payload argument is {bad}",
                )


#: The default rule pack, in id order.
ALL_RULES: tuple[Rule, ...] = (
    RngDisciplineRule(),
    NoWallClockRule(),
    OrderedIterationRule(),
    FloatEqualityRule(),
    MutableDefaultRule(),
    RawEventRule(),
    SwallowedExceptionRule(),
    TelemetryJsonRule(),
)


def rules_by_id(ids: Sequence[str]) -> tuple[Rule, ...]:
    """Resolve rule ids (exact, e.g. ``REPRO-F001``) or names
    (``float-equality``) to rule instances."""
    table = {rule.id: rule for rule in ALL_RULES}
    table.update({rule.name: rule for rule in ALL_RULES})
    selected = []
    for rule_id in ids:
        rule = table.get(rule_id)
        if rule is None:
            known = ", ".join(r.id for r in ALL_RULES)
            raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")
        if rule not in selected:
            selected.append(rule)
    return tuple(selected)
