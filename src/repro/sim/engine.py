"""Discrete-event simulation engine.

The engine is a priority queue of timestamped callbacks with a simulated
clock measured in float seconds.  Every component of the reproduced system
(cloud providers, replicas, load balancers, autoscalers, clients) schedules
work on a shared :class:`SimulationEngine` instead of touching wall-clock
time, which makes multi-hour paper experiments run in milliseconds and makes
every run exactly reproducible.

Two scheduling styles are supported:

* one-shot callbacks via :meth:`SimulationEngine.call_at` /
  :meth:`SimulationEngine.call_after`, and
* recurring timers via :meth:`SimulationEngine.call_every`, used for
  control loops such as the service controller's reconciliation tick.

Events scheduled for the same timestamp fire in scheduling order (FIFO),
which keeps control-loop interleavings deterministic.

The queue is a binary heap of ``(time, seq, event)`` tuples.  ``seq`` is
a per-engine counter taken at scheduling time, unique, so tuple
comparison settles on ``(time, seq)`` — which is the FIFO rule above —
and never reaches the event object.  The event object is itself the
:class:`EventHandle` returned to the caller, so one scheduled callback
costs one small allocation plus its tuple.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.events import EventBus

__all__ = ["EventHandle", "SimulationEngine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid engine usage (e.g. scheduling in the past)."""


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    ``time`` is the simulated time at which the event fires (or would
    have fired); ``cancelled`` says whether :meth:`cancel` was called.
    Cancellation is lazy: the heap entry stays in the queue but is
    skipped when popped.
    """

    __slots__ = ()

    time: float
    cancelled: bool

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        raise NotImplementedError


class _ScheduledEvent(EventHandle):
    """One scheduled callback: the heap tuple's payload and its handle.

    The entry participates in the engine's live pending-event count:
    cancellation decrements the counter exactly once, and only while
    the entry is still queued (``engine`` is cleared when the entry
    leaves the heap), so :attr:`SimulationEngine.pending_events` never
    has to walk the heap.
    """

    __slots__ = ("time", "callback", "cancelled", "engine")

    def __init__(
        self, time: float, callback: Callable[[], None], engine: SimulationEngine
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        #: The owning engine while queued; None once popped.
        self.engine: Optional[SimulationEngine] = engine

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self.engine is not None:
                self.engine._pending -= 1


class _RecurringHandle(EventHandle):
    """A :meth:`SimulationEngine.call_every` timer.

    Each tick re-schedules the next one through ``call_after``; the
    handle follows the currently queued tick, so cancelling it stops the
    whole timer, including from inside the callback.
    """

    __slots__ = ("time", "cancelled", "_engine", "_interval", "_callback", "_event")

    def __init__(
        self,
        engine: SimulationEngine,
        interval: float,
        callback: Callable[[], None],
        first_delay: float,
    ) -> None:
        self.cancelled = False
        self._engine = engine
        self._interval = interval
        self._callback = callback
        self._arm(first_delay)

    def _arm(self, delay: float) -> None:
        self._event = self._engine.call_after(delay, self._fire)
        self.time = self._event.time

    def _fire(self) -> None:
        self._callback()
        if not self.cancelled:
            self._arm(self._interval)

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._event.cancel()


class SimulationEngine:
    """A deterministic discrete-event loop with a float-seconds clock."""

    def __init__(
        self,
        start_time: float = 0.0,
        *,
        telemetry: Optional[EventBus] = None,
    ) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, _ScheduledEvent]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._pending = 0
        if telemetry is None:
            # Local import: telemetry depends on sim.metrics, so a
            # module-level import would be circular.
            from repro.telemetry.events import NULL_BUS

            telemetry = NULL_BUS
        #: Telemetry bus shared by every component scheduling on this
        #: engine.  Disabled (the shared null bus) unless a configured
        #: :class:`~repro.telemetry.events.EventBus` is passed in —
        #: publishers guard with ``if engine.telemetry.enabled``.
        self.telemetry = telemetry

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of queued, not-cancelled events.

        Maintained as a live counter (incremented on schedule,
        decremented on cancel or execution) so controller-loop
        assertions cost O(1) instead of walking the heap.
        """
        return self._pending

    def call_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulated ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.3f}, now is t={self._now:.3f}"
            )
        time = float(time)
        event = _ScheduledEvent(time, callback, self)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        self._pending += 1
        return event

    def call_after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback)

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start_delay: Optional[float] = None,
    ) -> EventHandle:
        """Schedule ``callback`` every ``interval`` seconds.

        The returned handle cancels the *whole* recurring timer.  The first
        invocation happens after ``start_delay`` (default: ``interval``).
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        first_delay = interval if start_delay is None else start_delay
        return _RecurringHandle(self, interval, callback, first_delay)

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``False`` when the queue is empty.  Cancelled events are
        skipped without advancing the clock.
        """
        queue = self._queue
        while queue:
            time, _, event = heapq.heappop(queue)
            event.engine = None
            if event.cancelled:
                continue  # counter already adjusted at cancel time
            self._pending -= 1
            self._now = time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events until the clock would pass ``end_time``.

        The clock is left exactly at ``end_time`` so that metrics windows
        line up across runs; events scheduled at exactly ``end_time`` are
        executed.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time:.3f} is before now {self._now:.3f}"
            )
        queue = self._queue
        heappop = heapq.heappop
        while queue and queue[0][0] <= end_time:
            time, _, event = heappop(queue)
            event.engine = None
            if event.cancelled:
                continue  # counter already adjusted at cancel time
            self._pending -= 1
            self._now = time
            self._events_processed += 1
            event.callback()
        self._now = end_time

    def run(self) -> None:
        """Run until the event queue drains completely."""
        while self.step():
            pass
