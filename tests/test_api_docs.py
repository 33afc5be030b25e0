"""docs/API.md names only what its modules export.

Every ``## `repro.X` `` section lists its public items in tables; each
backticked name in a table's first column must resolve as an attribute
(dotted names as an attribute chain) of that module.  ``repro.devtools``
lists submodule paths and ``repro.cli`` lists subcommands, so both are
skipped.
"""

import importlib
import re
from pathlib import Path

import pytest

API_MD = Path(__file__).resolve().parents[1] / "docs" / "API.md"
SKIPPED = {"repro.devtools", "repro.cli"}
_SECTION = re.compile(r"^## `(repro(?:\.\w+)*)`", re.MULTILINE)
_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")
_MISSING = object()


def documented_names() -> dict[str, list[str]]:
    """Module → backticked names in its section's first table column."""
    text = API_MD.read_text(encoding="utf-8")
    matches = list(_SECTION.finditer(text))
    sections: dict[str, list[str]] = {}
    for match, nxt in zip(matches, matches[1:] + [None]):
        module = match.group(1)
        if module in SKIPPED:
            continue
        body = text[match.end() : nxt.start() if nxt else len(text)]
        names: list[str] = []
        for line in body.splitlines():
            cells = line.split("|")
            if not line.startswith("|") or len(cells) < 3:
                continue
            first = cells[1].strip()
            if first == "item" or set(first) <= {"-"}:
                continue  # header or separator row
            names += _NAME.findall(first)
        sections[module] = names
    return sections


SECTIONS = documented_names()


def test_sections_found():
    assert "repro.core" in SECTIONS
    assert "repro.telemetry" in SECTIONS
    assert all(SECTIONS.values())


@pytest.mark.parametrize("module_name", sorted(SECTIONS))
def test_documented_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name in SECTIONS[module_name]:
        target = module
        for part in name.split("."):
            target = getattr(target, part, _MISSING)
            if target is _MISSING:
                missing.append(name)
                break
    assert missing == [], f"docs/API.md lists names {module_name} lacks"
