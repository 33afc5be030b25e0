"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.cloud import aws1
from repro.experiments import ReplayConfig, TraceReplayer


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

    @pytest.mark.parametrize("command", [["replay"], ["chaos", "run"]])
    def test_replay_defaults_are_replay_config(self, command):
        args = build_parser().parse_args(command)
        config = ReplayConfig()
        assert (args.target, args.cold_start, args.k) == (
            config.n_tar, config.cold_start, config.k
        )

    def test_sweep_command_removed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])


def _refuse_replays(*args, **kwargs):
    raise AssertionError("a replay ran despite bad input")


REPLAY = ["replay", "--trace", "aws1"]
CHAOS_RUN = ["chaos", "run", "--trace", "aws1"]
FRONTIER = ["hetero", "frontier", "--duration", "1"]


@pytest.mark.parametrize(
    "argv,option",
    [
        (REPLAY + ["--target", "0"], "--target"),
        (REPLAY + ["--target", "2,0"], "--target"),
        (REPLAY + ["--target", ","], "--target"),
        (REPLAY + ["--target", "two"], "--target"),
        (REPLAY + ["--cold-start", "-1"], "--cold-start"),
        (REPLAY + ["--k", "-1"], "--k"),
        (REPLAY + ["--workers", "0"], "--workers"),
        (REPLAY + ["--policies", ""], "--policies"),
        (CHAOS_RUN + ["--target", "0"], "--target"),
        (CHAOS_RUN + ["--k", "0"], "--k"),
        (CHAOS_RUN + ["--workers", "0"], "--workers"),
        (FRONTIER + ["--target", "0"], "--target"),
        (FRONTIER + ["--workers", "0"], "--workers"),
    ],
)
def test_bad_replay_input_exits_with_one_line(argv, option, monkeypatch):
    """A bad replay parameter exits non-zero with one line naming the
    option, before any replay runs."""
    monkeypatch.setattr(TraceReplayer, "run", _refuse_replays)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str)
    assert option in message
    assert "\n" not in message


def _by_worker_count(axes, tmp_path, capsys):
    """stdout and ``--json`` bytes of a replay under ``--workers`` 1 and 2."""
    outputs = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}.json"
        assert main(["replay", "--trace", "aws1", *axes,
                     "--policies", "SpotHedge,EvenSpread",
                     "--workers", workers, "--json", str(path)]) == 0
        stdout = capsys.readouterr().out.replace(str(path), "<json>")
        outputs.append((stdout, path.read_bytes()))
    return outputs


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

    def test_grid_points_equal_single_point_runs(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        assert main(["replay", "--trace", "aws1", "--target", "2,3",
                     "--policies", "SpotHedge,RoundRobin",
                     "--json", str(grid)]) == 0
        points = json.loads(grid.read_text())["experiments"]["replay"]
        assert len(points) == 4
        for n_tar in (2, 3):
            for policy in ("SpotHedge", "RoundRobin"):
                single = tmp_path / f"{policy}-{n_tar}.json"
                assert main(["replay", "--trace", "aws1", "--target", str(n_tar),
                             "--policies", policy, "--json", str(single)]) == 0
                label = f"policy={policy},n_tar={n_tar},cold_start=180.0,k=3.0"
                data = json.loads(single.read_text())["experiments"]["replay"]
                assert points[label] == data[policy]

    def test_output_identical_for_any_worker_count(self, tmp_path, capsys):
        one, two = _by_worker_count(["--target", "2"], tmp_path, capsys)
        assert one == two

    @pytest.mark.parametrize("axes", [
        ["--policies", "SpotHedge,RoundRobin"],
        ["--policies", "SpotHedge", "--target", "2,3"],
        ["--policies", "SpotHedge", "--k", "3,4"],
    ])
    def test_events_needs_one_point(self, axes, tmp_path):
        log = tmp_path / "r.jsonl"
        with pytest.raises(SystemExit, match="--events records one replay"):
            main(["replay", "--trace", "aws1", *axes, "--events", str(log)])
        assert not log.exists()


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
        lines = capsys.readouterr().out.splitlines()
        # One line per logged event, in log order.
        assert len(lines) == len(log.read_text().splitlines())
        assert lines[0].startswith("t=")
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "replicas (" in out
        assert "leg.queue" in out

    def test_timeline_and_kind_filter(self, tmp_path, capsys):
        log = self._serve_with_events(tmp_path, capsys)
        assert main(["events", str(log), "--kind", "replica.launch"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines
        assert all("replica.launch" in line for line in lines)

    def test_summary_flags_removed(self, tmp_path):
        for flag in (["--timeline"], ["--replica-limit", "5"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["events", "x.jsonl", *flag])

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
        assert "# TYPE events_total counter" in text
        assert "events_total{" in text

    def test_log_level_flag_accepted(self, capsys):
        assert main([
            "--log-level", "ERROR",
            "serve", "--trace", "aws1", "--hours", "0.2", "--rate", "0.2",
        ]) == 0


class TestReportCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["report", "run.jsonl"])
        assert args.log == "run.jsonl"
        assert args.top_k == 8
        assert args.json is None
        assert not args.no_dashboard

    def test_requires_log(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_replay_options_removed(self):
        # Reports read logs only: replay with --events, then report.
        for flag in ("--replay", "--policy", "--trace", "--target", "--k", "--seed"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["report", "run.jsonl", flag, "1"])

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no such event log"):
            main(["report", str(tmp_path / "nope.jsonl")])

    def _replay_with_events(self, tmp_path, capsys):
        log = tmp_path / "replay.jsonl"
        assert main(["replay", "--trace", "aws1", "--target", "2",
                     "--policies", "SpotHedge", "--events", str(log)]) == 0
        capsys.readouterr()
        return log

    def test_report_from_replay_event_log(self, tmp_path, capsys):
        log = self._replay_with_events(tmp_path, capsys)
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "replay.jsonl" in out
        assert "fleet" in out
        assert "cost" in out

    def test_replay_log_report_byte_identical(self, tmp_path, capsys):
        from repro.core import spothedge
        from repro.telemetry import EventBus, RingBufferSink, build_report, read_events

        log = self._replay_with_events(tmp_path, capsys)
        argv = ["report", str(log), "--no-dashboard"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--json", str(a)]) == 0
        assert main(argv + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["schema"] == "repro.report/v1"
        assert data["label"] == "replay.jsonl"
        assert data["replicas"]
        # The log is a lossless copy of the run: reading it back builds
        # the same report as the run's in-memory events.
        trace = aws1()
        sink = RingBufferSink()
        TraceReplayer(
            trace, ReplayConfig(n_tar=2), seed=0, telemetry=EventBus([sink])
        ).run(spothedge(trace.zone_ids))
        from_log = build_report(read_events(log), label="x").to_json()
        assert from_log == build_report(sink.events, label="x").to_json()

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
    """Sweeps: ``repro replay`` with more than one value on an axis."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.trace == "gcp1"
        assert args.workers == 1
        assert args.policies == "SpotHedge,RoundRobin,EvenSpread,OnDemand"

    def test_no_cache_skips_cache(self, capsys):
        assert main(["replay", "--trace", "aws1", "--target", "2"]) == 0
        assert "cache" not in capsys.readouterr().out

    def test_parallel_sweep_matches_serial_output(self, tmp_path, capsys):
        one, two = _by_worker_count(["--target", "2,3"], tmp_path, capsys)
        assert one == two

    def test_progress_written_to_stderr(self, capsys):
        assert main(["replay", "--trace", "aws1", "--target", "2,3",
                     "--policies", "SpotHedge", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err
        assert "[2/2]" in err
        assert "ok" in err

    def test_json_export(self, tmp_path, capsys):
        out_path = tmp_path / "grid.json"
        assert main(["replay", "--trace", "aws1", "--target", "2,3",
                     "--policies", "SpotHedge", "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        labels = set(data["experiments"]["replay"])
        assert labels == {
            "policy=SpotHedge,n_tar=2,cold_start=180.0,k=3.0",
            "policy=SpotHedge,n_tar=3,cold_start=180.0,k=3.0",
        }
        assert data["metadata"]["trace"] == "AWS 1"

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["replay", "--policies", "Nope"])

    def test_bad_axis_value_rejected(self):
        with pytest.raises(SystemExit, match="--target"):
            main(["replay", "--target", "two"])


class TestReplaysWriteNothing:
    def test_replay_front_ends_leave_home_untouched(self, tmp_path, monkeypatch, capsys):
        """Replays, chaos matrices and the hetero frontier recompute every
        replay: none of them writes a result cache under $HOME or
        $REPRO_CACHE_DIR (or anywhere in the working directory)."""
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(home / "cache"))
        monkeypatch.chdir(tmp_path)
        assert main(["replay", "--trace", "aws1", "--target", "2"]) == 0
        assert main(["chaos", "run", "--trace", "aws1",
                     "--policies", "SpotHedge"]) == 0
        assert main(["hetero", "frontier", "--duration", "1",
                     "--fleets", "A10G"]) == 0
        capsys.readouterr()
        assert list(home.rglob("*")) == []
        assert [p.name for p in tmp_path.iterdir()] == ["home"]
