"""Deep runner: suppression interop, pass selection, payload stability,
and the ``--deep`` CLI surface.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import build_parser
from repro.devtools.flow import PASS_NAMES, ProjectIndex, make_passes, run_deep
from repro.devtools.lint.engine import UNUSED_SUPPRESSION_ID

LEAK = """
import numpy as np

def sample(n):
    rng = np.random.default_rng()
    return rng.random(n)
"""


def _index(**modules: str) -> ProjectIndex:
    return ProjectIndex.from_sources(
        {name: textwrap.dedent(source) for name, source in modules.items()}
    )


def run_lint(argv: list[str], capsys: pytest.CaptureFixture) -> tuple[int, str]:
    args = build_parser().parse_args(["lint", *argv])
    code = args.func(args)
    return code, capsys.readouterr().out


# ----------------------------------------------------------------------
# Suppression interop
# ----------------------------------------------------------------------
def test_named_deep_suppression_silences_the_finding() -> None:
    report = run_deep(
        _index(
            **{
                "repro.core.leak": """
                import numpy as np

                def sample(n):
                    rng = np.random.default_rng()
                    return rng.random(n)  # repro: noqa[REPRO-D101]: fixture entropy is deliberate
                """
            }
        )
    )
    assert report.unsuppressed == []
    assert [d.rule for d in report.diagnostics if d.suppressed] == [
        "REPRO-D101"
    ]


def test_bare_noqa_does_not_silence_deep_findings() -> None:
    report = run_deep(
        _index(
            **{
                "repro.core.leak": """
                import numpy as np

                def sample(n):
                    rng = np.random.default_rng()
                    return rng.random(n)  # repro: noqa
                """
            }
        )
    )
    assert [d.rule for d in report.unsuppressed] == ["REPRO-D101"]


def test_mixed_deep_and_shallow_marker_is_d000() -> None:
    report = run_deep(
        _index(
            **{
                "repro.core.leak": """
                import numpy as np

                def sample(n):
                    rng = np.random.default_rng()
                    return rng.random(n)  # repro: noqa[REPRO-D101, REPRO-R001]: mixed
                """
            }
        )
    )
    rules = sorted(d.rule for d in report.unsuppressed)
    assert rules == ["REPRO-D000"]
    assert "split into one marker per layer" in report.unsuppressed[0].message


def test_stale_deep_marker_is_reported() -> None:
    report = run_deep(
        _index(
            **{
                "repro.core.fine": """
                def add(a, b):
                    return a + b  # repro: noqa[REPRO-D102]: nothing escapes here
                """
            }
        )
    )
    assert [d.rule for d in report.unsuppressed] == [UNUSED_SUPPRESSION_ID]
    assert "matches no deep diagnostic" in report.unsuppressed[0].message


# ----------------------------------------------------------------------
# Pass selection
# ----------------------------------------------------------------------
def test_pass_selection_limits_rules() -> None:
    index = _index(**{"repro.core.leak": LEAK})
    taint_only = run_deep(index, ["rng-taint"])
    assert [d.rule for d in taint_only.unsuppressed] == ["REPRO-D101"]
    stationarity_only = run_deep(index, ["stationarity"])
    assert stationarity_only.diagnostics == []


def test_unknown_pass_name_raises_with_vocabulary() -> None:
    with pytest.raises(KeyError, match="rng-taint"):
        make_passes(["no-such-pass"])


def test_pass_names_are_the_documented_vocabulary() -> None:
    assert PASS_NAMES == ("rng-taint", "stationarity", "engine-parity")


# ----------------------------------------------------------------------
# Pinned JSON payload (the ``--deep --format json`` contract)
# ----------------------------------------------------------------------
EXPECTED_DEEP_JSON = """\
{
  "counts": {
    "suppressed": 0,
    "unsuppressed": 1
  },
  "deep": {
    "modules_indexed": 1,
    "passes": [
      "engine-parity",
      "rng-taint",
      "stationarity"
    ]
  },
  "diagnostics": [
    {
      "col": 11,
      "fix_hint": "thread a seeded Generator parameter through, or construct the stream locally via np.random.default_rng(derive_seed(...))",
      "line": 6,
      "message": "draw .random() on an unseeded Generator ('rng' comes from default_rng() with OS entropy)",
      "path": "core/leak.py",
      "rule": "REPRO-D101",
      "suppressed": false
    }
  ],
  "files_checked": 1,
  "rules": {},
  "version": 1
}"""


def test_deep_json_payload_is_pinned() -> None:
    index = _index(**{"repro.core.leak": LEAK})
    report = run_deep(index)
    payload = report.to_json(
        rules=(),
        extra={
            "deep": {
                "passes": sorted(PASS_NAMES),
                "modules_indexed": len(index.modules),
            }
        },
    )
    assert payload == EXPECTED_DEEP_JSON


def test_to_json_without_extra_is_unchanged() -> None:
    index = _index(**{"repro.core.leak": LEAK})
    report = run_deep(index)
    payload = json.loads(report.to_json())
    assert sorted(payload) == [
        "counts",
        "diagnostics",
        "files_checked",
        "rules",
        "version",
    ]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_deep_cli_runs_clean_over_the_package(
    capsys: pytest.CaptureFixture,
) -> None:
    code, out = run_lint(["--deep"], capsys)
    assert code == 0
    assert "0 diagnostic(s)" in out


def test_deep_json_includes_deep_section_and_rules(
    capsys: pytest.CaptureFixture,
) -> None:
    code, out = run_lint(["--deep", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["deep"]["passes"] == sorted(PASS_NAMES)
    assert payload["deep"]["modules_indexed"] == payload["files_checked"]
    assert "REPRO-D101" in payload["rules"]
    assert "REPRO-D302" in payload["rules"]


def test_deep_pass_selection_via_cli(capsys: pytest.CaptureFixture) -> None:
    code, out = run_lint(
        ["--deep", "--pass", "stationarity", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["deep"]["passes"] == ["stationarity"]


def test_deep_rejects_incompatible_flags(
    capsys: pytest.CaptureFixture,
) -> None:
    with pytest.raises(SystemExit, match="whole package"):
        run_lint(["--deep", "somefile.py"], capsys)
    with pytest.raises(SystemExit, match="--changed"):
        run_lint(["--deep", "--changed"], capsys)
    with pytest.raises(SystemExit, match="--rule"):
        run_lint(["--deep", "--rule", "REPRO-F001"], capsys)
    with pytest.raises(SystemExit, match="--pass requires --deep"):
        run_lint(["--pass", "rng-taint"], capsys)
    with pytest.raises(SystemExit, match="unknown flow pass"):
        run_lint(["--deep", "--pass", "bogus"], capsys)


def test_deep_list_rules_includes_deep_pack(
    capsys: pytest.CaptureFixture,
) -> None:
    code, out = run_lint(["--deep", "--list-rules"], capsys)
    assert code == 0
    for rule_id in (
        "REPRO-D000",
        "REPRO-D100",
        "REPRO-D101",
        "REPRO-D102",
        "REPRO-D103",
        "REPRO-D201",
        "REPRO-D202",
        "REPRO-D203",
        "REPRO-D302",
    ):
        assert rule_id in out
