"""The ``repro chaos`` subcommand family."""

import json

import pytest

from repro.chaos import builtin_scenario, list_builtin
from repro.cli import build_parser, main


class TestParser:
    def test_chaos_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["chaos", "run"])
        assert args.trace == "gcp1"
        assert args.scenarios == "preemption-storm"
        assert args.policies == "SpotHedge,EvenSpread"
        assert args.target == 4
        assert args.seed == 0


class TestListShow:
    def test_list_names_every_builtin(self, capsys):
        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in list_builtin():
            assert name in out

    def test_show_prints_canonical_json(self, capsys):
        assert main(["chaos", "show", "kitchen-sink"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["name"] == "kitchen-sink"
        assert out.strip() == builtin_scenario("kitchen-sink").to_json()

    def test_show_unknown_scenario_fails(self):
        with pytest.raises(SystemExit):
            main(["chaos", "show", "not-a-scenario"])


class TestRun:
    def test_run_prints_matrix_and_saves(self, tmp_path, capsys):
        out_path = tmp_path / "scorecard.json"
        assert main([
            "chaos", "run",
            "--trace", "gcp1",
            "--scenarios", "capacity-blackout",
            "--policies", "SpotHedge",
            "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "capacity-blackout" in out
        assert "SpotHedge" in out
        card = json.loads(out_path.read_text())
        assert card["trace"] == "GCP 1"
        assert card["scenarios"] == ["capacity-blackout"]
        assert [s["policy"] for s in card["scores"]] == ["SpotHedge"]

    def test_run_accepts_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "mine.json"
        builtin_scenario("price-surge").save(path)
        assert main([
            "chaos", "run",
            "--trace", "gcp1",
            "--scenarios", str(path),
            "--policies", "OnDemand",
        ]) == 0
        assert "price-surge" in capsys.readouterr().out

    def test_run_unknown_policy_fails(self):
        with pytest.raises(SystemExit):
            main([
                "chaos", "run",
                "--trace", "gcp1",
                "--scenarios", "price-surge",
                "--policies", "Nope",
                ])

    def test_run_unknown_scenario_fails(self):
        with pytest.raises(SystemExit):
            main(["chaos", "run", "--scenarios", "not-real"])
