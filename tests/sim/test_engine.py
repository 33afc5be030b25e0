"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import EventHandle, SimulationEngine, SimulationError


class TestScheduling:
    def test_starts_at_zero(self):
        engine = SimulationEngine()
        assert engine.now == 0.0

    def test_custom_start_time(self):
        engine = SimulationEngine(start_time=100.0)
        assert engine.now == 100.0

    def test_call_at_runs_at_time(self):
        engine = SimulationEngine()
        times = []
        engine.call_at(5.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [5.0]

    def test_call_after_relative(self):
        engine = SimulationEngine()
        engine.call_at(3.0, lambda: engine.call_after(2.0, lambda: seen.append(engine.now)))
        seen = []
        engine.run()
        assert seen == [5.0]

    def test_cannot_schedule_in_past(self):
        engine = SimulationEngine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.call_after(-1.0, lambda: None)

    def test_events_ordered_by_time(self):
        engine = SimulationEngine()
        order = []
        engine.call_at(3.0, lambda: order.append("c"))
        engine.call_at(1.0, lambda: order.append("a"))
        engine.call_at(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        engine = SimulationEngine()
        order = []
        for label in "abcde":
            engine.call_at(1.0, lambda l=label: order.append(l))
        engine.run()
        assert order == list("abcde")

    def test_same_time_fifo_from_inside_callbacks(self):
        """Events scheduled for the current instant from inside a
        callback fire after everything already queued for it, in the
        order they were scheduled."""
        engine = SimulationEngine()
        order = []

        def spawn(label):
            order.append(label)
            for child in "xyz":
                engine.call_at(1.0, lambda c=label + child: order.append(c))

        engine.call_at(1.0, lambda: spawn("a"))
        engine.call_at(1.0, lambda: spawn("b"))
        engine.call_at(1.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c", "ax", "ay", "az", "bx", "by", "bz"]

    def test_handle_is_the_scheduled_event(self):
        engine = SimulationEngine()
        handle = engine.call_at(4, lambda: None)
        assert isinstance(handle, EventHandle)
        assert handle.time == 4.0 and isinstance(handle.time, float)
        assert not handle.cancelled

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        for i in range(5):
            engine.call_at(float(i), lambda: None)
        engine.run()
        assert engine.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.call_at(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        engine = SimulationEngine()
        handle = engine.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_events_excludes_cancelled(self):
        engine = SimulationEngine()
        engine.call_at(1.0, lambda: None)
        handle = engine.call_at(2.0, lambda: None)
        handle.cancel()
        assert engine.pending_events == 1

    def test_cancelled_event_does_not_advance_clock(self):
        engine = SimulationEngine()
        handle = engine.call_at(1.0, lambda: None)
        handle.cancel()
        engine.call_at(2.0, lambda: None)
        engine.step()
        assert engine.now == 2.0


class TestRunUntil:
    def test_clock_lands_exactly_on_end(self):
        engine = SimulationEngine()
        engine.call_at(1.0, lambda: None)
        engine.run_until(7.5)
        assert engine.now == 7.5

    def test_events_at_end_time_execute(self):
        engine = SimulationEngine()
        fired = []
        engine.call_at(5.0, lambda: fired.append(1))
        engine.run_until(5.0)
        assert fired == [1]

    def test_events_after_end_survive(self):
        engine = SimulationEngine()
        fired = []
        engine.call_at(10.0, lambda: fired.append(1))
        engine.run_until(5.0)
        assert fired == []
        engine.run_until(15.0)
        assert fired == [1]

    def test_run_until_past_rejected(self):
        engine = SimulationEngine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.run_until(5.0)

    def test_step_returns_false_when_empty(self):
        engine = SimulationEngine()
        assert engine.step() is False


class TestRecurring:
    def test_call_every_fires_repeatedly(self):
        engine = SimulationEngine()
        ticks = []
        engine.call_every(10.0, lambda: ticks.append(engine.now))
        engine.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_start_delay_controls_first_firing(self):
        engine = SimulationEngine()
        ticks = []
        engine.call_every(10.0, lambda: ticks.append(engine.now), start_delay=0.0)
        engine.run_until(25.0)
        assert ticks == [0.0, 10.0, 20.0]

    def test_cancel_stops_recurrence(self):
        engine = SimulationEngine()
        ticks = []
        handle = engine.call_every(10.0, lambda: ticks.append(engine.now))
        engine.call_at(25.0, handle.cancel)
        engine.run_until(100.0)
        assert ticks == [10.0, 20.0]

    def test_handle_tracks_the_queued_tick(self):
        engine = SimulationEngine()
        handle = engine.call_every(10.0, lambda: None, start_delay=5.0)
        assert isinstance(handle, EventHandle)
        assert handle.time == 5.0
        engine.run_until(6.0)
        assert handle.time == 15.0
        assert not handle.cancelled

    def test_cancel_from_inside_the_callback(self):
        engine = SimulationEngine()
        ticks = []
        handle = None

        def tick():
            ticks.append(engine.now)
            if len(ticks) == 2:
                handle.cancel()

        handle = engine.call_every(10.0, tick)
        engine.run_until(100.0)
        assert ticks == [10.0, 20.0]
        assert handle.cancelled
        assert engine.pending_events == 0

    def test_non_positive_interval_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.call_every(0.0, lambda: None)


class TestNestedScheduling:
    def test_callback_can_schedule_more_events(self):
        engine = SimulationEngine()
        seen = []

        def chain(depth):
            seen.append(engine.now)
            if depth > 0:
                engine.call_after(1.0, lambda: chain(depth - 1))

        engine.call_at(0.0, lambda: chain(3))
        engine.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_zero_delay_event_runs_same_timestamp(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(1.0, lambda: engine.call_after(0.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [1.0]


class TestPendingCounter:
    """pending_events is a live O(1) counter — every schedule/cancel/fire
    path must keep it exact (PR 2 replaced the O(n) heap walk)."""

    def test_starts_at_zero(self):
        assert SimulationEngine().pending_events == 0

    def test_counts_scheduled_events(self):
        engine = SimulationEngine()
        for i in range(5):
            engine.call_at(float(i), lambda: None)
        assert engine.pending_events == 5

    def test_firing_decrements(self):
        engine = SimulationEngine()
        engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        engine.step()
        assert engine.pending_events == 1
        engine.run()
        assert engine.pending_events == 0

    def test_cancel_decrements_exactly_once(self):
        engine = SimulationEngine()
        handle = engine.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()  # idempotent: no double decrement
        assert engine.pending_events == 0
        engine.run()  # skipping the cancelled entry must not decrement again
        assert engine.pending_events == 0

    def test_cancel_after_fire_is_noop(self):
        engine = SimulationEngine()
        handle = engine.call_at(1.0, lambda: None)
        engine.run()
        assert engine.pending_events == 0
        handle.cancel()
        assert engine.pending_events == 0

    def test_cancel_after_fire_leaves_other_events_counted(self):
        engine = SimulationEngine()
        fired = engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        engine.call_at(3.0, lambda: None)
        engine.step()
        assert engine.pending_events == 2
        fired.cancel()
        fired.cancel()
        assert fired.cancelled
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0
        assert engine.events_processed == 3

    def test_run_until_leaves_future_events_pending(self):
        engine = SimulationEngine()
        engine.call_at(1.0, lambda: None)
        engine.call_at(10.0, lambda: None)
        engine.run_until(5.0)
        assert engine.pending_events == 1

    def test_nested_scheduling_tracked(self):
        engine = SimulationEngine()
        engine.call_at(1.0, lambda: engine.call_after(1.0, lambda: None))
        engine.run_until(1.0)
        assert engine.pending_events == 1

    def test_recurring_timer_keeps_one_pending(self):
        engine = SimulationEngine()
        engine.call_every(10.0, lambda: None)
        engine.run_until(35.0)
        assert engine.pending_events == 1  # the next queued tick

    def test_cancelled_recurring_timer_reaches_zero(self):
        engine = SimulationEngine()
        handle = engine.call_every(10.0, lambda: None)
        engine.call_at(25.0, handle.cancel)
        engine.run_until(100.0)
        assert engine.pending_events == 0

    def test_counter_matches_heap_scan(self):
        """Cross-check against the old O(n) definition on a mixed workload."""
        engine = SimulationEngine()
        handles = [engine.call_at(float(i), lambda: None) for i in range(20)]
        for handle in handles[::3]:
            handle.cancel()
        expected = sum(
            1 for _time, _seq, e in engine._queue if not e.cancelled
        )
        assert engine.pending_events == expected
        engine.run_until(9.5)
        expected = sum(1 for _time, _seq, e in engine._queue if not e.cancelled)
        assert engine.pending_events == expected
