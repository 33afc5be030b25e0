"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.cloud import aws1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.trace == "aws1"
        assert args.workload == "arena"
        assert args.target == 4

    def test_compare_scenario_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare"])
        args = build_parser().parse_args(["compare", "volatile"])
        assert args.scenario == "volatile"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy"])


class TestReplayCommand:
    def test_replay_prints_all_policies(self, capsys):
        assert main(["replay", "--trace", "aws1", "--target", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("SpotHedge", "RoundRobin", "EvenSpread", "OnDemand"):
            assert name in out
        assert "availability" in out

    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main(["replay", "--trace", "aws1", "--target", "2",
                     "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data["experiments"]["replay"]) == {
            "SpotHedge", "RoundRobin", "EvenSpread", "OnDemand",
        }
        assert data["metadata"]["n_tar"] == 2

    def test_deterministic_output(self, capsys):
        main(["replay", "--trace", "aws1", "--target", "2"])
        first = capsys.readouterr().out
        main(["replay", "--trace", "aws1", "--target", "2"])
        second = capsys.readouterr().out
        assert first == second


class TestTraceCommand:
    def test_summary(self, capsys):
        assert main(["trace", "aws1"]) == 0
        out = capsys.readouterr().out
        assert "AWS 1" in out
        assert "us-west-2a" in out

    def test_export_json_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert main(["trace", "aws1", "--out", str(out_path)]) == 0
        from repro.cloud import SpotTrace

        restored = SpotTrace.load(out_path)
        assert restored.zone_ids == aws1().zone_ids

    def test_export_csv(self, tmp_path):
        out_path = tmp_path / "t.csv"
        assert main(["trace", "gcp1", "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("zone,time,capacity")

    def test_unknown_trace_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "azure9"])

    def test_loading_exported_trace_file(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        main(["trace", "aws1", "--out", str(out_path)])
        assert main(["trace", str(out_path)]) == 0
        assert "AWS 1" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_analyze_prints_correlation_and_curve(self, capsys):
        assert main(["analyze", "--trace", "gcp1"]) == 0
        out = capsys.readouterr().out
        assert "intra-region" in out
        assert "search space" in out


class TestServeCommand:
    def test_serve_short_run(self, capsys):
        assert main([
            "serve", "--trace", "aws1", "--hours", "0.5",
            "--workload", "poisson", "--rate", "0.1", "--target", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "availability:" in out
        assert "final replica status:" in out

    def test_serve_with_spec_file(self, tmp_path, capsys):
        spec = {
            "name": "from-file",
            "replica_policy": {"fixed_target": 2, "num_overprovision": 1},
            "resources": {"accelerator": "V100"},
            "request_timeout": 60.0,
        }
        spec_path = tmp_path / "svc.json"
        spec_path.write_text(json.dumps(spec))
        assert main([
            "serve", "--trace", "aws1", "--spec", str(spec_path),
            "--hours", "0.5", "--workload", "poisson", "--rate", "0.1",
        ]) == 0
        assert "from-file" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_short_run(self, capsys):
        assert main([
            "compare", "volatile", "--hours", "0.5", "--rate", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        for name in ("SkyServe", "ASG", "AWSSpot", "MArk"):
            assert name in out
        assert "cost vs OD" in out

    def test_compare_json_export(self, tmp_path, capsys):
        out_path = tmp_path / "cmp.json"
        assert main([
            "compare", "available", "--hours", "0.5", "--rate", "0.3",
            "--json", str(out_path),
        ]) == 0
        data = json.loads(out_path.read_text())
        assert set(data["experiments"]["compare"]) == {
            "SkyServe", "ASG", "AWSSpot", "MArk",
        }
        assert data["metadata"]["scenario"] == "available"


class TestEventsCommand:
    def _serve_with_events(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main([
            "serve", "--trace", "aws1", "--hours", "0.3", "--rate", "0.2",
            "--events", str(log),
        ]) == 0
        capsys.readouterr()  # discard the serve report
        return log

    def test_serve_then_summarize(self, tmp_path, capsys):
        log = self._serve_with_events(tmp_path, capsys)
        assert log.exists()
        assert main(["events", str(log)]) == 0
        out = capsys.readouterr().out
        assert "events by kind:" in out
        assert "replica timeline:" in out
        assert "request spans:" in out

    def test_timeline_and_kind_filter(self, tmp_path, capsys):
        log = self._serve_with_events(tmp_path, capsys)
        assert main(["events", str(log), "--timeline",
                     "--kind", "replica.launch"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines
        assert all("replica.launch" in line for line in lines)

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["events", str(tmp_path / "nope.jsonl")])

    def test_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        assert main([
            "serve", "--trace", "aws1", "--hours", "0.3", "--rate", "0.2",
            "--metrics-out", str(metrics),
        ]) == 0
        text = metrics.read_text()
        assert "# TYPE repro_events_total counter" in text
        assert "repro_events_total{" in text

    def test_log_level_flag_accepted(self, capsys):
        assert main([
            "--log-level", "ERROR",
            "serve", "--trace", "aws1", "--hours", "0.2", "--rate", "0.2",
        ]) == 0


class TestReportCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["report", "--replay"])
        assert args.replay
        assert args.trace == "gcp1"
        assert args.policy == "SpotHedge"
        assert args.top_k == 8

    def test_requires_log_or_replay(self):
        with pytest.raises(SystemExit, match="--replay"):
            main(["report"])

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no such event log"):
            main(["report", str(tmp_path / "nope.jsonl")])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit, match="unknown serving policy 'Nope'"):
            main(["report", "--replay", "--policy", "Nope"])

    def test_replay_dashboard(self, capsys):
        assert main(["report", "--replay", "--trace", "aws1",
                     "--target", "2"]) == 0
        out = capsys.readouterr().out
        assert "SpotHedge@AWS 1 seed=0" in out
        assert "fleet" in out
        assert "cost" in out

    def test_replay_json_byte_identical_across_invocations(
        self, tmp_path, capsys
    ):
        argv = ["report", "--replay", "--trace", "aws1", "--target", "2",
                "--no-dashboard"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--json", str(a)]) == 0
        assert main(argv + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["schema"] == "repro.report/v1"
        assert data["label"] == "SpotHedge@AWS 1 seed=0"

    def test_report_from_serve_event_log(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main([
            "serve", "--trace", "aws1", "--hours", "0.3", "--rate", "0.2",
            "--events", str(log),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert log.name in out
        assert "latency" in out


class TestSweepCommand:
    def _env(self, monkeypatch, tmp_path):
        from repro.experiments import ReplayCache

        monkeypatch.setenv(ReplayCache.ENV_VAR, str(tmp_path / "cache"))

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.trace == "gcp1"
        assert args.workers == 1
        assert args.policies == "SpotHedge"
        assert not args.no_cache

    def test_workers_default_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 4

    def test_sweep_populates_and_reuses_cache(self, tmp_path, monkeypatch, capsys):
        self._env(monkeypatch, tmp_path)
        argv = ["sweep", "--trace", "aws1", "--n-tar", "2,3",
                "--cold-start", "0,120"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 points" in first
        assert "4 new, 0 reused" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 new, 4 reused" in second

    def test_no_cache_skips_cache(self, tmp_path, monkeypatch, capsys):
        self._env(monkeypatch, tmp_path)
        assert main(["sweep", "--trace", "aws1", "--n-tar", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache" not in out
        assert not (tmp_path / "cache").exists()

    def test_clear_cache(self, tmp_path, monkeypatch, capsys):
        self._env(monkeypatch, tmp_path)
        main(["sweep", "--trace", "aws1", "--n-tar", "2,3"])
        capsys.readouterr()
        assert main(["sweep", "--clear-cache"]) == 0
        assert "cleared 2 cached" in capsys.readouterr().out

    def test_parallel_sweep_matches_serial_output(
        self, tmp_path, monkeypatch, capsys
    ):
        self._env(monkeypatch, tmp_path)
        argv = ["sweep", "--trace", "aws1", "--n-tar", "2,3", "--no-cache"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        # Identical except for the reported worker count.
        assert serial.replace("workers=1", "") == parallel.replace("workers=2", "")

    def test_progress_written_to_stderr(self, tmp_path, monkeypatch, capsys):
        self._env(monkeypatch, tmp_path)
        assert main(["sweep", "--trace", "aws1", "--n-tar", "2,3",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err
        assert "[2/2]" in err
        assert "ok" in err

    def test_json_export(self, tmp_path, monkeypatch, capsys):
        self._env(monkeypatch, tmp_path)
        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "--trace", "aws1", "--n-tar", "2,3",
                     "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        labels = set(data["experiments"]["sweep"])
        assert labels == {
            "policy=SpotHedge,n_tar=2,cold_start=180.0,k=3.0",
            "policy=SpotHedge,n_tar=3,cold_start=180.0,k=3.0",
        }
        assert data["metadata"]["trace"] == "AWS 1"

    def test_unknown_policy_rejected(self, tmp_path, monkeypatch):
        self._env(monkeypatch, tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--policies", "Nope"])

    def test_bad_axis_value_rejected(self, tmp_path, monkeypatch):
        self._env(monkeypatch, tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--n-tar", "two"])
