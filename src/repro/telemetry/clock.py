"""The sanctioned wall-clock accessors.

Simulated code must never read real time — replay results are required
to be a pure function of ``(trace, config, seed)`` so they can be
compared byte for byte across engines and across serial and parallel
runs.  ``repro lint`` (rule ``REPRO-T001``)
bans ``time.time`` / ``time.monotonic`` / ``datetime.now`` everywhere
outside ``telemetry/`` and the CLI.

Code at the observability edge — progress events, log timestamps,
throughput accounting — *does* legitimately need wall time.  It calls
these helpers instead of the ``time`` module directly, which keeps
every wall-clock read in the codebase behind one grep-able, lintable
seam (and makes the distinction between simulated and real time
explicit at each call site).
"""

from __future__ import annotations

import time

__all__ = ["wall_monotonic", "wall_time"]


def wall_monotonic() -> float:
    """Monotonic wall-clock seconds — for durations and progress
    timestamps that must never jump backwards (e.g.
    :class:`~repro.telemetry.events.SweepProgress`)."""
    return time.monotonic()


def wall_time() -> float:
    """Epoch wall-clock seconds — only for labelling artifacts with a
    real-world timestamp, never for simulation logic."""
    return time.time()
