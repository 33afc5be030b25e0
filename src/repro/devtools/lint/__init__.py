"""``repro lint`` — the repository's determinism & simulation-hygiene linter.

The simulator's headline guarantees — parallel sweeps byte-identical to
serial runs, replay results a pure function of ``(trace, policy,
config, seed)``, policy comparisons against identical preemption
realisations — all rest on source-level discipline that Python does not
enforce: no unseeded randomness, no wall-clock reads in simulated code,
no order-sensitive iteration over unordered collections.  This package
encodes those invariants as AST rules so a violation fails CI instead
of silently skewing a figure.

Public surface:

* :class:`~repro.devtools.lint.engine.Diagnostic`,
  :class:`~repro.devtools.lint.engine.LintReport`,
  :class:`~repro.devtools.lint.engine.Rule` — the rule engine;
* :func:`~repro.devtools.lint.engine.lint_file` /
  :func:`~repro.devtools.lint.engine.lint_source` /
  :func:`~repro.devtools.lint.engine.lint_paths` — entry points;
* :data:`~repro.devtools.lint.rules.ALL_RULES` — the default rule pack;
* :func:`~repro.devtools.lint.cli.run` — the ``repro lint`` command.

The whole-program layer — ``repro lint --deep``, which checks the
*interprocedural* contracts (RNG-stream taint, policy stationarity,
engine write-surface parity) over a package call graph — lives in
:mod:`repro.devtools.flow` and reuses this package's ``Diagnostic`` /
``LintReport`` / baseline machinery.
"""

from repro.devtools.lint.engine import (
    Diagnostic,
    LintReport,
    Rule,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.devtools.lint.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "LintReport",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_source",
]
