"""Workload replay client.

Replays a :class:`~repro.workloads.request.Workload` against a service,
reproducing the §5.1 client behaviour:

* every request has a hard timeout (100 s for Llama-2-70B, 20 s for
  OPT-6.7B); a request that has not completed by its deadline counts as
  a *failure* (timeouts capture both queueing overload and downtime);
* when no replica is ready — or admission control sheds the request —
  the client retries until the deadline, either at a fixed interval
  (the legacy behaviour) or with seeded jittered exponential backoff
  when a :class:`RetryPolicy` is attached;
* when a replica is preempted mid-request, the client resends the
  request to another replica immediately, and the lost time stays inside
  the end-to-end latency ("all requests that fail due to spot preemption
  will be retried by the client, with the failure time included");
* the measured latency includes the WAN round trip to whichever region
  served the request;
* time-to-first-token (TTFT, the §3.1 footnote's metric) is recorded
  separately: queueing + prefill on the replica plus the WAN round
  trip — the quantity §6's locality-aware routing optimises.  TTFT and
  time-per-output-token (TPOT) samples are also fed back to the
  controller as the SLO-aware autoscaler's violation signal.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional

import numpy as np

from repro.serving.controller import ServiceController
from repro.serving.replica import Replica
from repro.sim.engine import EventHandle, SimulationError
from repro.sim.metrics import Counter, LatencyRecorder, LatencySummary
from repro.telemetry.spans import SpanRecorder
from repro.workloads.request import Request, Workload

__all__ = ["ClientStats", "RetryPolicy", "ServiceClient"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for client retries.

    The n-th backoff for one request sleeps
    ``min(base * multiplier**n, cap)`` seconds, scaled by a uniform
    jitter draw from ``[1 - jitter, 1 + jitter]`` (seeded through the
    client's RNG stream, so replays are deterministic).  Retries after a
    replica *abort* (preemption) stay immediate — backoff applies to
    capacity signals: no ready replica, or a shed by admission control.
    """

    base: float = 2.0
    multiplier: float = 2.0
    cap: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError("base must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.cap < self.base:
            raise ValueError("cap must be >= base")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter outside [0, 1)")

    def delay(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        raw = min(self.base * self.multiplier**attempt, self.cap)
        if rng is not None and self.jitter > 0:
            raw *= float(rng.uniform(1 - self.jitter, 1 + self.jitter))
        return raw


@dataclass(frozen=True)
class ClientStats:
    """Aggregate client-side results of one replay."""

    total_requests: int
    completed: int
    failed: int
    retries: int
    latency: LatencySummary | None
    ttft: LatencySummary | None
    #: Admission-control rejections observed (each is also a retry).
    shed: int = 0

    @property
    def failure_rate(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.failed / self.total_requests


class ServiceClient:
    """Replays a workload through a service controller.

    Arrivals are fed to the engine lazily: :meth:`start` schedules the
    first one, and each arrival schedules the next before it is
    handled, so at most one arrival of the workload is pending at any
    time.  Deadlines use one engine event per client: the timeout is
    fixed and arrivals are sorted, so deadlines are monotone, and a
    single timer at the oldest open request's deadline fails every
    request whose ``arrival + timeout`` has passed (at exactly that
    time), skips requests that already ended, and re-arms itself.
    """

    def __init__(
        self,
        controller: ServiceController,
        workload: Workload,
        *,
        client_region: str = "aws:us-west-2",
        retry_interval: float = 2.0,
        backoff: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if retry_interval <= 0:
            raise ValueError("retry_interval must be positive")
        self.controller = controller
        self.engine = controller.engine
        self.workload = workload
        self.client_region = client_region
        self.retry_interval = retry_interval
        self.backoff = backoff
        self._rng = rng
        self.timeout = controller.spec.request_timeout
        self.latencies = LatencyRecorder()
        self.ttfts = LatencyRecorder("ttft")
        self.failures = Counter("failed_requests")
        self.retries = Counter("request_retries")
        self.sheds = Counter("request_sheds")
        #: Per-request span breakdown (queue/prefill/decode/wan legs);
        #: spans publish onto the engine's telemetry bus when enabled.
        self.spans = SpanRecorder(bus=self.engine.telemetry)
        self._completed: set[int] = set()
        self._failed: set[int] = set()
        self._ttft_seen: set[int] = set()
        #: Backoff count per request id (capacity retries only).
        self._backoffs: dict[int, int] = {}
        self._scheduled = False
        #: Arrivals not yet scheduled; each arrival schedules the next.
        self._feed: Iterator[Request] = iter(workload)
        #: Arrived requests in arrival order, trimmed lazily by the
        #: deadline timer once they end.
        self._open: deque[Request] = deque()
        #: The one pending deadline event, at the oldest open request's
        #: deadline (None while no request is open).
        self._expiry: Optional[EventHandle] = None

    def start(self) -> None:
        """Schedule the first workload arrival.  Call once before running.

        Raises :class:`~repro.sim.engine.SimulationError` when the first
        arrival is already in the past: arrivals are sorted, so that
        check covers the whole workload before anything runs.
        """
        if self._scheduled:
            raise RuntimeError("client already started")
        self._scheduled = True
        first = next(self._feed, None)
        if first is None:
            return
        if first.arrival_time < self.engine.now:
            raise SimulationError(
                f"workload {self.workload.name!r} starts at "
                f"t={first.arrival_time:.3f}, before now t={self.engine.now:.3f}"
            )
        self.engine.call_at(first.arrival_time, partial(self._arrive, first))

    # ------------------------------------------------------------------
    # Per-request state machine
    # ------------------------------------------------------------------
    def _arrive(self, request: Request) -> None:
        upcoming = next(self._feed, None)
        if upcoming is not None:
            self.engine.call_at(upcoming.arrival_time, partial(self._arrive, upcoming))
        deadline = request.arrival_time + self.timeout
        self.spans.open(request.request_id, request.arrival_time)
        self._open.append(request)
        if self._expiry is None:
            self._expiry = self.engine.call_at(deadline, self._expire)
        self._attempt(request, deadline)

    def _expire(self) -> None:
        """The deadline timer: fail every open request whose deadline
        has passed, in arrival order, then re-arm for the oldest request
        still open.  Requests that already ended are dropped."""
        self._expiry = None
        now = self.engine.now
        open_requests = self._open
        while open_requests:
            request = open_requests[0]
            request_id = request.request_id
            if request_id in self._completed or request_id in self._failed:
                open_requests.popleft()
                continue
            deadline = request.arrival_time + self.timeout
            if deadline > now:
                self._expiry = self.engine.call_at(deadline, self._expire)
                return
            open_requests.popleft()
            self._fail(request_id)
            logger.debug("t=%.1f request %d timed out", now, request_id)

    def _fail(self, request_id: int) -> None:
        self._failed.add(request_id)
        self.failures.add()
        self._backoffs.pop(request_id, None)
        self.spans.fail(request_id, self.engine.now)

    def _retry_later(self, request: Request, deadline: float) -> None:
        """Schedule the next attempt after a capacity signal (no ready
        replica, or shed by admission control)."""
        if self.backoff is None:
            delay = self.retry_interval
        else:
            attempt = self._backoffs.get(request.request_id, 0)
            self._backoffs[request.request_id] = attempt + 1
            delay = self.backoff.delay(attempt, self._rng)
        if self.engine.now + delay < deadline:
            self.engine.call_after(delay, lambda: self._attempt(request, deadline))

    def _attempt(self, request: Request, deadline: float) -> None:
        if request.request_id in self._failed or request.request_id in self._completed:
            return
        replica = self.controller.route(request)
        if replica is None:
            self._retry_later(request, deadline)
            return
        span = self.spans.get(request.request_id)
        if span is not None:
            span.note_attempt(replica.id, replica.zone_id)
        accepted = replica.handle(
            request,
            on_complete=lambda r, rep=replica: self._complete(r, rep),
            on_abort=lambda r: self._aborted(r, deadline),
            on_first_token=lambda r, rep=replica: self._first_token(r, rep),
            span=span,
        )
        if not accepted:
            # Shed by admission control: back off and try again.
            self.sheds.add()
            self.retries.add()
            self._retry_later(request, deadline)

    def _aborted(self, request: Request, deadline: float) -> None:
        """Replica died (preemption or scale-down): client retries."""
        if request.request_id in self._failed or request.request_id in self._completed:
            return
        self.retries.add()
        span = self.spans.get(request.request_id)
        if span is not None:
            span.note_abort()
        self._attempt(request, deadline)

    def _first_token(self, request: Request, replica: Replica) -> None:
        """Record TTFT for the *first successful* attempt that streams a
        token back; retried requests keep their earliest-token time."""
        if request.request_id in self._failed or request.request_id in self._ttft_seen:
            return
        rtt = self.controller.network.rtt(self.client_region, replica.region_id)
        self._ttft_seen.add(request.request_id)
        ttft = self.engine.now + rtt - request.arrival_time
        self.ttfts.record(ttft)
        self.controller.note_slo_ttft(ttft)

    def _complete(self, request: Request, replica: Replica) -> None:
        if request.request_id in self._completed:
            return
        rtt = self.controller.network.rtt(self.client_region, replica.region_id)
        finish = self.engine.now + rtt
        latency = finish - request.arrival_time
        if request.request_id in self._failed or latency > self.timeout:
            # Completed after its deadline: already (or now) a failure.
            if request.request_id not in self._failed:
                self._fail(request.request_id)
            return
        self._completed.add(request.request_id)
        self._backoffs.pop(request.request_id, None)
        self.latencies.record(latency)
        # engine.now is the server-side completion; the span adds the
        # WAN return trip as its own leg, so span.total == latency (up
        # to float rounding).
        span = self.spans.get(request.request_id)
        if (
            span is not None
            and span.first_token is not None
            and request.output_tokens > 0
        ):
            decode = self.engine.now - span.first_token
            self.controller.note_slo_tpot(decode / request.output_tokens)
        self.spans.complete(request.request_id, self.engine.now, rtt)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def stats(self) -> ClientStats:
        return ClientStats(
            total_requests=len(self.workload),
            completed=len(self._completed),
            failed=len(self._failed),
            retries=int(self.retries.value),
            latency=self.latencies.summary(),
            ttft=self.ttfts.summary(),
            shed=int(self.sheds.value),
        )
