"""Engine-parity pass (``REPRO-D302``) on fixture modules."""

from __future__ import annotations

import textwrap

from repro.devtools.flow import ParityPass, ProjectIndex


def _findings(**modules: str) -> list:
    index = ProjectIndex.from_sources(
        {name: textwrap.dedent(source) for name, source in modules.items()}
    )
    return ParityPass().run(index)


def _rules(found: list) -> list[str]:
    return [d.rule for d in found]


def test_cross_function_unordered_iteration_is_flagged() -> None:
    found = _findings(
        **{
            "repro.experiments.replay": """
            def active_zones(fleet):
                return {inst.zone for inst in fleet}

            def run(fleet, out):
                for zone in active_zones(fleet):
                    out.append(zone)
            """,
        }
    )
    assert _rules(found) == ["REPRO-D302"]
    assert "active_zones" in found[0].message


def test_unordered_return_propagates_through_wrappers() -> None:
    found = _findings(
        **{
            "repro.experiments.replay": """
            def raw_zones(fleet):
                return set(fleet)

            def zones(fleet):
                return raw_zones(fleet)

            def run(fleet, out):
                for zone in zones(fleet):
                    out.append(zone)
            """,
        }
    )
    assert _rules(found) == ["REPRO-D302"]
    assert "raw_zones" in found[0].message


def test_sorted_iteration_over_set_return_is_clean() -> None:
    found = _findings(
        **{
            "repro.experiments.replay": """
            def active_zones(fleet):
                return {inst.zone for inst in fleet}

            def run(fleet, out):
                for zone in sorted(active_zones(fleet)):
                    out.append(zone)
            """,
        }
    )
    assert _rules(found) == []
