"""Simulated inference engine with continuous batching.

Stands in for vLLM / TGI / Triton / SpotServe endpoints.  The model we
need is the one the paper's latency argument rests on (Fig. 6a): request
processing time is seconds to tens of seconds, split into a fixed
overhead, a prefill phase proportional to input tokens, and a decode
phase proportional to output tokens.  The engine admits up to
``max_concurrency`` requests at once (continuous batching slots); excess
requests wait in a FIFO queue, which is where overload shows up as
queueing delay and, eventually, client timeouts.

Two execution models are supported, selected by the profile:

* **Fixed-rate** (``decode_batch_slope == 0``, the default): every
  request decodes at the profile's batch-1 rate regardless of how many
  streams share the engine.  This is the original model; all recorded
  fixtures and benchmark shapes are pinned against it.
* **Continuous batching** (``decode_batch_slope > 0``): the per-token
  decode time of every in-flight stream grows with batch occupancy
  (``batch_factor``), so overload shows up as decode slowdown and TTFT
  blow-up rather than pure queueing — the regime real vLLM-style
  engines exhibit under load.  In-flight decode work is *re-priced*
  whenever batch membership changes (admit/finish/preempt): the
  outstanding decode budget is converted back to batch-1 seconds at the
  old factor and forward to wall seconds at the new one.  With
  occupancy pinned to 1 the arithmetic reduces to adding exact zeros,
  so batch-1 runs are byte-identical to the fixed-rate model.

Admission control is a bounded FIFO queue (``max_queue``): when every
batching slot is busy and the queue is full, new submissions are *shed*
deterministically (newest request rejected, no callbacks fire) and the
client is expected to retry with backoff.

Profiles are provided for the three model/hardware pairs the evaluation
uses: Llama-2-70B on 8×A10G (vLLM), OPT-6.7B on 4×T4 (SpotServe), and
Vicuna-13B (the Fig. 6a breakdown).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sim.engine import EventHandle, SimulationEngine
from repro.telemetry.profile import NULL_PROFILER, PhaseProfiler
from repro.telemetry.spans import RequestSpan
from repro.workloads.request import Request

__all__ = [
    "MODEL_PROFILES",
    "InferenceServer",
    "ModelProfile",
    "llama2_70b_profile",
    "opt_6_7b_profile",
    "scale_profile_for_accelerator",
    "vicuna_13b_profile",
]


@dataclass(frozen=True)
class ModelProfile:
    """Latency model of one model/hardware pair.

    ``processing_time = overhead + prefill_per_token * input_tokens +
    decode_per_token * output_tokens``, scaled by a throughput factor
    (used by the SpotServe baseline when a replica loses workers and
    re-parallelises over the survivors).

    ``decode_per_token`` is the *batch-1* decode rate.  When
    ``decode_batch_slope`` is positive, a stream sharing the engine with
    ``b - 1`` others decodes ``batch_factor(b)`` times slower —
    a linear contention model calibrated so ``batch_factor(1) == 1``
    exactly (batch-1 behaviour matches the slope-0 profile to the bit).
    """

    name: str
    overhead: float
    prefill_per_token: float
    decode_per_token: float
    max_concurrency: int
    #: Per-stream decode slowdown per additional co-resident stream.
    #: 0 disables batch contention (the original fixed-rate model).
    decode_batch_slope: float = 0.0

    def __post_init__(self) -> None:
        if min(self.overhead, self.prefill_per_token, self.decode_per_token) < 0:
            raise ValueError(f"{self.name}: negative latency coefficients")
        if self.max_concurrency < 1:
            raise ValueError(f"{self.name}: max_concurrency must be >= 1")
        if self.decode_batch_slope < 0:
            raise ValueError(
                f"{self.name}: decode_batch_slope must be >= 0, "
                f"got {self.decode_batch_slope}"
            )

    def batch_factor(self, batch: int) -> float:
        """Decode slowdown of one stream in a batch of ``batch``.

        Linear contention: ``1 + decode_batch_slope * (batch - 1)``.
        Monotone non-decreasing in ``batch`` and exactly 1.0 at batch 1
        (``slope * 0 == 0.0``, so no rounding creeps in).
        """
        if batch < 1:
            raise ValueError(f"batch size {batch} < 1")
        return 1.0 + self.decode_batch_slope * (batch - 1)

    def processing_time(self, request: Request, *, slowdown: float = 1.0) -> float:
        """Pure batch-1 compute time for one request, excluding queueing."""
        if slowdown < 1.0:
            raise ValueError(f"slowdown {slowdown} < 1")
        base = (
            self.overhead
            + self.prefill_per_token * request.input_tokens
            + self.decode_per_token * request.output_tokens
        )
        return base * slowdown

    def time_to_first_token(self, request: Request, *, slowdown: float = 1.0) -> float:
        """TTFT: overhead + prefill (the §3.1 footnote's metric).

        Rejects ``slowdown < 1`` like :meth:`processing_time` (it used
        to clamp silently, hiding caller bugs the other method raised
        on).
        """
        if slowdown < 1.0:
            raise ValueError(f"slowdown {slowdown} < 1")
        return (self.overhead + self.prefill_per_token * request.input_tokens) * slowdown


def llama2_70b_profile(*, decode_batch_slope: float = 0.0) -> ModelProfile:
    """Llama-2-70B on a g5.48xlarge (8×A10G) running vLLM (§5.1).

    Decoding a 70B model on A10Gs runs at roughly 15–20 tokens/s per
    stream; a median Arena reply (~180 tokens) takes ~10 s, and long
    generations push against the experiment's 100 s timeout.  With
    continuous batching enabled a slope of ~0.08 reproduces vLLM's
    per-stream decode degradation at full occupancy (8 streams ≈ 1.6×
    slower per token than batch 1).
    """
    return ModelProfile(
        name="llama2-70b-vllm",
        overhead=0.6,
        prefill_per_token=0.0015,
        decode_per_token=0.055,
        max_concurrency=8,
        decode_batch_slope=decode_batch_slope,
    )


def opt_6_7b_profile(*, decode_batch_slope: float = 0.0) -> ModelProfile:
    """OPT-6.7B on a g4dn.12xlarge (4×T4) running SpotServe (§5.1).

    Smaller model on slower GPUs: ~2–6 s typical requests against a 20 s
    timeout.  A slope of ~0.05 matches the milder contention of the
    smaller model.
    """
    return ModelProfile(
        name="opt-6.7b-spotserve",
        overhead=0.3,
        prefill_per_token=0.0008,
        decode_per_token=0.020,
        max_concurrency=8,
        decode_batch_slope=decode_batch_slope,
    )


def vicuna_13b_profile(*, decode_batch_slope: float = 0.0) -> ModelProfile:
    """Vicuna-13B, the Fig. 6a breakdown subject.

    Calibrated so a 20-input/44-output-token request takes a few seconds
    of processing — far above the ~0.1 s US↔EU round trip.
    """
    return ModelProfile(
        name="vicuna-13b",
        overhead=0.4,
        prefill_per_token=0.0012,
        decode_per_token=0.042,
        max_concurrency=8,
        decode_batch_slope=decode_batch_slope,
    )


#: Model profiles by name (``repro serve --profile``, tenant ``profile``).
MODEL_PROFILES: dict[str, Callable[..., ModelProfile]] = {
    "llama2-70b": llama2_70b_profile,
    "opt-6.7b": opt_6_7b_profile,
    "vicuna-13b": vicuna_13b_profile,
}


def scale_profile_for_accelerator(
    base: ModelProfile, accelerator: str, *, reference: str = "A10G"
) -> ModelProfile:
    """``base`` retimed for a replica on a different GPU class.

    Prefill and decode coefficients scale by the reference-to-target
    throughput ratio from :data:`repro.cloud.gpus.GPU_PROFILES`; when the
    base profile models continuous batching (positive slope) the slope
    is replaced by the target class's, while slope-0 profiles stay
    fixed-rate (scaling never switches execution models).  Returns
    ``base`` unchanged — the same object — when ``accelerator`` equals
    ``reference``, so homogeneous fleets keep bit-identical timing.
    """
    if accelerator == reference:
        return base
    from repro.cloud.gpus import gpu_profile

    ratio = (
        gpu_profile(reference).tokens_per_second
        / gpu_profile(accelerator).tokens_per_second
    )
    return dataclasses.replace(
        base,
        name=f"{base.name}+{accelerator}",
        prefill_per_token=base.prefill_per_token * ratio,
        decode_per_token=base.decode_per_token * ratio,
        decode_batch_slope=(
            gpu_profile(accelerator).decode_batch_slope
            if base.decode_batch_slope > 0
            else 0.0
        ),
    )


@dataclass
class _Pending:
    """One admitted request and everything needed to resolve it.

    Replaces the ad-hoc ``(request, on_complete, on_abort,
    on_first_token)`` queue tuples; ``span`` threads the telemetry
    request span (when one is being recorded) down to the point where
    execution actually starts.  The batching fields (``prefill_end``,
    ``finish_at``, ``factor``, ``finish_handle``) carry the token-budget
    accounting: ``finish_at`` is the scheduled completion under the
    current batch factor, re-priced whenever membership changes.
    """

    request: Request
    on_complete: Callable[[Request], None]
    on_abort: Callable[[Request], None]
    on_first_token: Optional[Callable[[Request], None]] = None
    span: Optional[RequestSpan] = None
    prefill_end: float = 0.0
    finish_at: float = 0.0
    factor: float = 1.0
    finish_handle: Optional[EventHandle] = None


class InferenceServer:
    """FIFO-queued, concurrency-limited execution of requests.

    ``submit`` returns immediately with ``True`` when the server took
    ownership of the request (a completion or abort callback will fire)
    and ``False`` when admission control shed it (no callback fires; the
    caller retries elsewhere or backs off).  ``abort_all`` models a
    preemption killing the endpoint: queued and in-flight requests all
    fail through ``on_abort``.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        profile: ModelProfile,
        *,
        rng: Optional[np.random.Generator] = None,
        jitter: float = 0.05,
        max_queue: Optional[int] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter {jitter} outside [0, 1)")
        if max_queue is not None and max_queue < 0:
            raise ValueError(f"max_queue {max_queue} < 0")
        self.engine = engine
        self.profile = profile
        self.slowdown = 1.0
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._rng = rng
        self._jitter = jitter
        self._max_queue = max_queue
        self._queue: deque[_Pending] = deque()
        self._in_flight: dict[int, _Pending] = {}
        self._aborted = False
        self._frozen = False
        self._generation = 0  # bumped on abort; stale completions are dropped
        self._shed = 0
        #: Continuous batching on? (slope-0 profiles keep the original
        #: fixed-rate scheduling bit-for-bit, with zero re-pricing work.)
        self._batching = profile.decode_batch_slope > 0.0

    @property
    def ongoing(self) -> int:
        """Requests on this server (queued + executing) — the least-load
        balancer's signal."""
        return len(self._queue) + len(self._in_flight)

    @property
    def executing(self) -> int:
        """Requests holding a batching slot — the batch occupancy."""
        return len(self._in_flight)

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a batching slot."""
        return len(self._queue)

    @property
    def shed_count(self) -> int:
        """Requests rejected by admission control since startup."""
        return self._shed

    @property
    def max_queue(self) -> Optional[int]:
        return self._max_queue

    def submit(
        self,
        request: Request,
        on_complete: Callable[[Request], None],
        on_abort: Callable[[Request], None],
        on_first_token: Optional[Callable[[Request], None]] = None,
        *,
        span: Optional[RequestSpan] = None,
        urgent: bool = False,
    ) -> bool:
        """Enqueue a request for execution.

        Returns ``False`` when the request was shed by admission control
        (every batching slot busy and the bounded queue full) — no
        callback will ever fire for it.  ``urgent`` bypasses the queue
        bound (readiness probes must observe an overloaded-but-healthy
        replica instead of being shed into a false failure).

        ``on_first_token`` fires when the prefill phase finishes — the
        server-side component of TTFT (queueing + overhead + prefill).
        ``span`` (optional) gets its execution-start and first-token
        marks stamped as the request moves through the queue.
        """
        if self._aborted:
            on_abort(request)
            return True
        if (
            not urgent
            and self._max_queue is not None
            and len(self._in_flight) >= self.profile.max_concurrency
            and len(self._queue) >= self._max_queue
        ):
            self._shed += 1
            return False
        if span is not None:
            span.note_queue_depth(len(self._queue))
        self._queue.append(
            _Pending(request, on_complete, on_abort, on_first_token, span)
        )
        self._drain()
        return True

    def _drain(self) -> None:
        profiler = self.profiler
        do_profile = profiler.enabled
        if do_profile:
            t0 = profiler.clock()
        admitted = False
        while self._queue and len(self._in_flight) < self.profile.max_concurrency:
            admitted = True
            pending = self._queue.popleft()
            request = pending.request
            self._in_flight[request.request_id] = pending
            if pending.span is not None:
                pending.span.mark_exec_start(
                    self.engine.now, batch=len(self._in_flight)
                )
            duration = self.profile.processing_time(request, slowdown=self.slowdown)
            if self._rng is not None and self._jitter > 0:
                duration *= float(
                    self._rng.uniform(1 - self._jitter, 1 + self._jitter)
                )
            generation = self._generation
            ttft = self.profile.time_to_first_token(request, slowdown=self.slowdown)
            ttft = min(ttft, duration)
            if pending.on_first_token is not None or pending.span is not None:
                self.engine.call_after(
                    ttft,
                    lambda p=pending, g=generation: self._first_token(p, g),
                )
            if not self._batching:
                # Fixed-rate model: one finish event, never re-priced.
                self.engine.call_after(
                    duration, lambda r=request, g=generation: self._finish(r, g)
                )
                continue
            # Continuous batching: price the decode budget at the
            # occupancy this admission produced.  ``duration - ttft`` is
            # the batch-1 decode budget; the surcharge term is an exact
            # +0.0 at factor 1, keeping batch-1 runs byte-identical to
            # the fixed-rate model.
            pending.prefill_end = self.engine.now + ttft
            pending.factor = self.profile.batch_factor(len(self._in_flight))
            pending.finish_at = (
                self.engine.now
                + duration
                + (duration - ttft) * (pending.factor - 1.0)
            )
            pending.finish_handle = self.engine.call_at(
                pending.finish_at,
                lambda r=request, g=generation: self._finish(r, g),
            )
        if admitted or self._batching:
            self._reprice()
        if do_profile:
            profiler.accumulate("inference.drain", profiler.clock() - t0)

    def _reprice(self) -> None:
        """Re-price in-flight decode work after a membership change.

        The outstanding wall-clock decode budget of every stream is
        converted back to batch-1 seconds at its old factor and forward
        to wall seconds at the factor of the current occupancy; the
        finish event moves accordingly.  Streams whose factor is
        unchanged are untouched (their scheduled event stands), so a
        pinned batch or a slope-0 profile never reschedules anything.
        """
        if not self._batching or not self._in_flight:
            return
        profiler = self.profiler
        do_profile = profiler.enabled
        if do_profile:
            t0 = profiler.clock()
        now = self.engine.now
        factor = self.profile.batch_factor(len(self._in_flight))
        for pending in self._in_flight.values():
            if pending.factor == factor:
                continue
            anchor = max(now, pending.prefill_end)
            remaining = max(pending.finish_at - anchor, 0.0)
            pending.finish_at = anchor + (remaining / pending.factor) * factor
            pending.factor = factor
            if pending.finish_handle is not None:
                pending.finish_handle.cancel()
            generation = self._generation
            pending.finish_handle = self.engine.call_at(
                pending.finish_at,
                lambda r=pending.request, g=generation: self._finish(r, g),
            )
        if do_profile:
            profiler.accumulate("inference.reprice", profiler.clock() - t0)

    def _first_token(self, pending: _Pending, generation: int) -> None:
        if generation != self._generation:
            return
        if pending.span is not None:
            pending.span.mark_first_token(self.engine.now)
        if pending.on_first_token is not None:
            pending.on_first_token(pending.request)

    def _finish(self, request: Request, generation: int) -> None:
        if generation != self._generation:
            return  # killed by an abort since this was scheduled
        if self._frozen:
            return  # stuck endpoint: requests hang, nothing completes
        pending = self._in_flight.pop(request.request_id, None)
        if pending is None:
            return
        pending.on_complete(request)
        self._drain()

    def abort_all(self) -> None:
        """Kill the endpoint (preemption): fail everything on it."""
        self._aborted = True
        self._generation += 1
        pending = list(self._queue) + list(self._in_flight.values())
        self._queue.clear()
        self._in_flight.clear()
        for entry in pending:
            if entry.finish_handle is not None:
                entry.finish_handle.cancel()
            entry.on_abort(entry.request)

    def freeze(self) -> None:
        """Silent failure injection: the endpoint stops responding.

        Unlike :meth:`abort_all` nothing is notified — queued and
        in-flight requests simply hang, and new submissions are accepted
        into the queue.  Only an active readiness probe (§4) can detect
        this state.
        """
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def set_slowdown(self, slowdown: float) -> None:
        """Degrade throughput (SpotServe re-parallelisation on survivors).

        Applies to requests admitted after the call.
        """
        if slowdown < 1.0:
            raise ValueError(f"slowdown {slowdown} < 1")
        self.slowdown = slowdown
