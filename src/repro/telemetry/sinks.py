"""Event sinks: in-memory ring buffer and JSONL file.

A sink is anything with ``accept(event)`` (and optionally ``close()``).
Two are provided here:

* :class:`RingBufferSink` — bounded in-memory buffer, the default for
  tests and interactive use;
* :class:`JsonlSink` — one JSON object per line, the durable format the
  ``repro report`` and ``repro events`` CLI subcommands read back.

Prometheus text export is
:meth:`~repro.telemetry.metrics.MetricRegistry.render_prometheus` over a
:class:`~repro.telemetry.metrics.MetricsSink`'s registry.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Iterator, Optional, TextIO, Union

from repro.telemetry.events import EventsDropped, TelemetryEvent, event_from_dict

__all__ = [
    "JsonlSink",
    "RingBufferSink",
    "iter_events",
    "read_events",
]


class RingBufferSink:
    """Keeps the last ``capacity`` events in memory (all, when ``None``).

    Bounded buffers overwrite oldest-first; every overwrite increments
    ``dropped_total`` so the loss is observable (``repro report`` prints
    it, and :meth:`drop_event` packages it as a
    :class:`~repro.telemetry.events.EventsDropped` event for logs).
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self._events: deque[TelemetryEvent] = deque(maxlen=capacity)
        self.dropped_total = 0
        if capacity is None:
            # Unbounded buffers never drop, so accept can be the bound
            # deque.append itself — no Python frame per event.
            self.accept = self._events.append  # type: ignore[method-assign]

    def accept(self, event: TelemetryEvent) -> None:
        if self._events.maxlen is not None and len(self._events) == self._events.maxlen:
            self.dropped_total += 1
        self._events.append(event)

    @property
    def dropped(self) -> int:
        """Backwards-compatible alias for ``dropped_total``."""
        return self.dropped_total

    @property
    def events(self) -> list[TelemetryEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def capacity(self) -> int:
        """The buffer bound (0 when unbounded)."""
        return self._events.maxlen or 0

    def drop_event(self) -> Optional[EventsDropped]:
        """An :class:`EventsDropped` event describing the current loss,
        or ``None`` when nothing was dropped.  ``time`` is the last
        buffered event's timestamp (the drop horizon)."""
        if not self.dropped_total:
            return None
        last_time = self._events[-1].time if self._events else float("nan")
        return EventsDropped(last_time, self.dropped_total, self.capacity)

    def clear(self) -> None:
        self._events.clear()
        self.dropped_total = 0


class JsonlSink:
    """Writes each event as one JSON line to a file (or open stream)."""

    def __init__(self, target: Union[str, Path, TextIO]) -> None:
        if isinstance(target, (str, Path)):
            self._file: TextIO = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.count = 0

    def accept(self, event: TelemetryEvent) -> None:
        self._file.write(json.dumps(event.to_dict(), sort_keys=True))
        self._file.write("\n")
        self.count += 1

    def close(self) -> None:
        self._file.flush()
        if self._owns_file and not self._file.closed:
            self._file.close()

    def __enter__(self) -> JsonlSink:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def iter_events(path: Union[str, Path]) -> Iterator[TelemetryEvent]:
    """Stream typed events back from a JSONL log."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            yield event_from_dict(json.loads(line))


def read_events(path: Union[str, Path]) -> list[TelemetryEvent]:
    """Load a whole JSONL event log into typed events."""
    return list(iter_events(path))
