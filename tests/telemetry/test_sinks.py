"""Unit tests for event sinks, JSONL round-trips and the Prometheus
snapshot."""

import io

import pytest

from repro.telemetry import (
    CostSnapshot,
    JsonlSink,
    MetricRegistry,
    MetricsSink,
    ReplicaLaunch,
    ReplicaPreempted,
    ReplicaReady,
    RingBufferSink,
    read_events,
)


def _event(i):
    return ReplicaReady(time=float(i), replica_id=i, zone="aws:z:a", spot=True)


class TestRingBufferSink:
    def test_unbounded_keeps_everything(self):
        sink = RingBufferSink()
        for i in range(100):
            sink.accept(_event(i))
        assert len(sink) == 100
        assert sink.dropped == 0

    def test_bounded_drops_oldest(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.accept(_event(i))
        assert [e.replica_id for e in sink.events] == [2, 3, 4]
        assert sink.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_clear(self):
        sink = RingBufferSink(capacity=1)
        sink.accept(_event(0))
        sink.accept(_event(1))
        sink.clear()
        assert len(sink) == 0
        assert sink.dropped == 0

    def test_dropped_total_counts_every_overwrite(self):
        sink = RingBufferSink(capacity=2)
        for i in range(7):
            sink.accept(_event(i))
        assert sink.dropped_total == 5
        assert sink.dropped == sink.dropped_total  # legacy alias
        assert sink.capacity == 2

    def test_drop_event_packages_the_loss(self):
        sink = RingBufferSink(capacity=2)
        assert sink.drop_event() is None  # nothing dropped yet
        for i in range(5):
            sink.accept(_event(i))
        marker = sink.drop_event()
        assert marker is not None
        assert marker.kind == "telemetry.dropped"
        assert marker.dropped_total == 3
        assert marker.capacity == 2
        assert marker.time == 4.0  # last buffered event's timestamp

    def test_unbounded_never_produces_drop_event(self):
        sink = RingBufferSink()
        for i in range(10):
            sink.accept(_event(i))
        assert sink.dropped_total == 0
        assert sink.capacity == 0
        assert sink.drop_event() is None


class TestJsonlSink:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            ReplicaLaunch(time=0.0, replica_id=1, zone="aws:z:a", spot=True),
            ReplicaReady(time=5.0, replica_id=1, zone="aws:z:a", spot=True),
            ReplicaPreempted(
                time=9.0, replica_id=1, zone="aws:z:a", spot=True, warned=True
            ),
        ]
        with JsonlSink(path) as sink:
            for event in events:
                sink.accept(event)
            assert sink.count == 3
        restored = read_events(path)
        assert restored == events
        assert [type(e) for e in restored] == [type(e) for e in events]

    def test_stream_target_not_closed(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.accept(_event(0))
        sink.close()
        assert not stream.closed
        assert stream.getvalue().count("\n") == 1

    def test_blank_lines_skipped_on_read(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "replica.ready", "time": 1.0, '
                        '"replica_id": 1, "zone": "z", "spot": true}\n\n')
        assert len(read_events(path)) == 1


def _snapshot(*events):
    sink = MetricsSink()
    for event in events:
        sink.accept(event)
    return sink.registry.render_prometheus()


class TestPrometheusSnapshot:
    """The Prometheus text snapshot ``repro serve --metrics-out`` writes:
    a :class:`MetricsSink`'s registry rendered by ``render_prometheus``."""

    def test_counts_by_kind_and_zone(self):
        text = _snapshot(
            _event(1),
            ReplicaLaunch(time=2.0, replica_id=2, zone="aws:z:a", spot=True),
            ReplicaLaunch(time=3.0, replica_id=3, zone="aws:z:a", spot=True),
            ReplicaLaunch(time=4.0, replica_id=4, zone="aws:z:b", spot=True),
        )
        assert 'events_total{kind="replica.launch"} 3.0' in text
        assert 'events_total{kind="replica.ready"} 1.0' in text
        assert 'replica_launches_total{zone="aws:z:a"} 2.0' in text
        assert 'replica_launches_total{zone="aws:z:b"} 1.0' in text

    def test_render_text_format(self):
        text = _snapshot(_event(1))
        assert "# TYPE events_total counter" in text
        assert 'events_total{kind="replica.ready"} 1.0' in text
        assert text.endswith("\n")

    def test_gauges_sampled_at_render_time(self):
        sink = MetricsSink()
        sink.accept(CostSnapshot(time=1.0, spot=1.0, on_demand=0.0, total=1.0))
        sink.accept(CostSnapshot(time=2.0, spot=2.5, on_demand=0.0, total=2.5))
        text = sink.registry.render_prometheus()
        assert "# TYPE cost_accrued_dollars gauge" in text
        assert 'cost_accrued_dollars{market="spot"} 2.5' in text

    def test_label_escaping(self):
        text = _snapshot(ReplicaLaunch(time=0.0, replica_id=1, zone='z"1', spot=True))
        assert 'zone="z\\"1"' in text

    def test_label_escaping_backslash_and_newline(self):
        # Exposition format: \ -> \\, " -> \", newline -> \n, in that
        # escape order (a backslash introduced by the quote escape must
        # not be doubled).
        text = _snapshot(
            ReplicaLaunch(time=0.0, replica_id=1, zone='a\\b"c\nd', spot=True)
        )
        assert 'zone="a\\\\b\\"c\\nd"' in text

    def test_gauge_label_values_escaped(self):
        reg = MetricRegistry()
        reg.gauge("cost_dollars", "Accrued cost.", ("zone",)).labels('z"1\n').set(0.0, 1.0)
        assert 'cost_dollars{zone="z\\"1\\n"} 1.0' in reg.render_prometheus()

    def test_help_text_escaped(self):
        # HELP lines escape backslash and newline (quotes are legal).
        reg = MetricRegistry()
        reg.counter("cost_total", 'Accrued "cost"\nwith a \\ backslash.').labels().inc()
        text = reg.render_prometheus()
        assert '# HELP cost_total Accrued "cost"\\nwith a \\\\ backslash.' in text
        # The exposition stays one-metric-per-line despite the newline.
        assert all(
            line.startswith(("#", "cost_total"))
            for line in text.strip().split("\n")
        )
