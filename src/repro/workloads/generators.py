"""Workload generators for the three evaluation workloads (§5.2).

* :func:`poisson_workload` — homogeneous Poisson arrivals (the paper uses
  λ = 0.15 req/s).
* :func:`arena_workload` — a synthetic stand-in for the Chatbot Arena
  trace: diurnal base load, superimposed burst episodes (the paper cites
  up-to-50× traffic spikes), heavy-tailed interarrivals (Fig. 11b), and
  widely varying output lengths (so per-request compute time varies).
* :func:`maf_workload` — a synthetic stand-in for the Microsoft Azure
  Functions trace: strong diurnal pattern with sharp invocation spikes.

All generators share a token-length model: chat-style prompts are short
to medium (lognormal input), outputs range from one-liners to long
generations (lognormal output), matching the Fig. 6a observation that a
20-in/44-out-token request already takes seconds of GPU time.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.sim.rng import RngRegistry
from repro.workloads.request import Request, Workload

__all__ = [
    "WORKLOAD_KINDS",
    "arena_workload",
    "make_workload",
    "maf_workload",
    "poisson_workload",
    "rate_modulated_arrivals",
]

#: The names :func:`make_workload` accepts.
WORKLOAD_KINDS = ("poisson", "arena", "maf")


def _sample_tokens(
    rng: np.random.Generator,
    *,
    input_median: float = 60.0,
    input_sigma: float = 0.9,
    output_median: float = 150.0,
    output_sigma: float = 1.0,
    max_tokens: int = 4096,
) -> tuple[int, int]:
    """Draw (input, output) token counts from lognormal distributions."""
    input_tokens = int(rng.lognormal(math.log(input_median), input_sigma)) + 1
    output_tokens = int(rng.lognormal(math.log(output_median), output_sigma)) + 1
    return min(input_tokens, max_tokens), min(output_tokens, max_tokens)


def rate_modulated_arrivals(
    rate_fn: Callable[[float], float],
    duration: float,
    rng: np.random.Generator,
    *,
    max_rate: float,
) -> list[float]:
    """Sample a non-homogeneous Poisson process by thinning.

    ``rate_fn(t)`` gives the instantaneous rate; ``max_rate`` must bound
    it from above over ``[0, duration]``.
    """
    if max_rate <= 0:
        raise ValueError(f"non-positive max_rate {max_rate!r}")
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / max_rate)
        if t >= duration:
            break
        rate = rate_fn(t)
        if rate > max_rate * (1 + 1e-9):
            raise ValueError(f"rate_fn({t:.1f}) = {rate} exceeds max_rate {max_rate}")
        if rng.random() < rate / max_rate:
            arrivals.append(t)
    return arrivals


def _build_workload(
    name: str,
    arrivals: list[float],
    rng: np.random.Generator,
    token_kwargs: Optional[dict] = None,
) -> Workload:
    requests = []
    for i, arrival in enumerate(arrivals):
        input_tokens, output_tokens = _sample_tokens(rng, **(token_kwargs or {}))
        requests.append(
            Request(
                request_id=i,
                arrival_time=arrival,
                input_tokens=input_tokens,
                output_tokens=output_tokens,
            )
        )
    return Workload(name, requests)


def poisson_workload(
    duration: float,
    rate: float = 0.15,
    *,
    seed: int = 0,
) -> Workload:
    """Homogeneous Poisson arrivals at ``rate`` requests/second (§5.2)."""
    if rate <= 0:
        raise ValueError(f"non-positive rate {rate!r}")
    registry = RngRegistry(seed)
    rng = registry.stream("poisson")
    arrivals: list[float] = []
    t = rng.exponential(1.0 / rate)
    while t < duration:
        arrivals.append(t)
        t += rng.exponential(1.0 / rate)
    return _build_workload("Poisson", arrivals, registry.stream("poisson-tokens"))


def arena_workload(
    duration: float,
    *,
    base_rate: float = 0.15,
    diurnal_amplitude: float = 0.6,
    burst_rate_per_hour: float = 0.5,
    burst_multiplier: float = 8.0,
    burst_mean_duration: float = 300.0,
    output_median: float = 180.0,
    output_sigma: float = 1.1,
    max_output_tokens: int = 4096,
    seed: int = 0,
) -> Workload:
    """Synthetic Chatbot-Arena-like workload (Fig. 11).

    The rate is a diurnal sinusoid around ``base_rate`` with randomly
    arriving burst episodes that multiply the instantaneous rate by
    ``burst_multiplier`` for ``Exp(burst_mean_duration)`` seconds.  The
    resulting interarrival CV is well above 1 (bursty), unlike Poisson.
    """
    registry = RngRegistry(seed)
    burst_rng = registry.stream("arena-bursts")
    bursts: list[tuple[float, float]] = []
    t = 0.0
    while burst_rate_per_hour > 0:
        t += burst_rng.exponential(3600.0 / burst_rate_per_hour)
        if t >= duration:
            break
        bursts.append((t, t + burst_rng.exponential(burst_mean_duration)))

    def rate_fn(time: float) -> float:
        diurnal = 1.0 + diurnal_amplitude * math.sin(2 * math.pi * time / 86400.0)
        rate = base_rate * diurnal
        for start, end in bursts:
            if start <= time < end:
                rate *= burst_multiplier
                break
        return rate

    max_rate = base_rate * (1 + diurnal_amplitude) * burst_multiplier
    arrivals = rate_modulated_arrivals(
        rate_fn, duration, registry.stream("arena-arrivals"), max_rate=max_rate
    )
    # Arena conversations have long, highly variable generations.
    return _build_workload(
        "Arena",
        arrivals,
        registry.stream("arena-tokens"),
        token_kwargs={
            "output_median": output_median,
            "output_sigma": output_sigma,
            "max_tokens": max_output_tokens,
        },
    )


def maf_workload(
    duration: float,
    *,
    base_rate: float = 0.12,
    diurnal_amplitude: float = 0.8,
    spike_rate_per_day: float = 6.0,
    spike_multiplier: float = 15.0,
    spike_mean_duration: float = 120.0,
    seed: int = 0,
) -> Workload:
    """Synthetic Microsoft-Azure-Functions-like workload (§5.2).

    Serverless invocations show a stronger day/night swing than chat
    traffic and short, very sharp spikes; requests are shorter (function
    -style payloads) than Arena conversations.
    """
    registry = RngRegistry(seed)
    spike_rng = registry.stream("maf-spikes")
    spikes: list[tuple[float, float]] = []
    t = 0.0
    while spike_rate_per_day > 0:
        t += spike_rng.exponential(86400.0 / spike_rate_per_day)
        if t >= duration:
            break
        spikes.append((t, t + spike_rng.exponential(spike_mean_duration)))

    def rate_fn(time: float) -> float:
        diurnal = 1.0 + diurnal_amplitude * math.sin(2 * math.pi * time / 86400.0 - 0.5)
        rate = base_rate * max(diurnal, 0.05)
        for start, end in spikes:
            if start <= time < end:
                rate *= spike_multiplier
                break
        return rate

    max_rate = base_rate * (1 + diurnal_amplitude) * spike_multiplier
    arrivals = rate_modulated_arrivals(
        rate_fn, duration, registry.stream("maf-arrivals"), max_rate=max_rate
    )
    return _build_workload(
        "MAF",
        arrivals,
        registry.stream("maf-tokens"),
        token_kwargs={"input_median": 40.0, "output_median": 80.0, "output_sigma": 0.8},
    )


def make_workload(kind: str, duration: float, rate: float, seed: int) -> Workload:
    """One workload by name at base ``rate`` req/s (``repro serve
    --workload`` and a tenant's ``workload``).

    Arena outputs are capped at 800 tokens, the serving experiments'
    setting.  The generators are looked up at call time, so wrappers
    installed on this module's attributes see every call.
    """
    if kind == "poisson":
        return poisson_workload(duration, rate=rate, seed=seed)
    if kind == "arena":
        return arena_workload(duration, base_rate=rate, max_output_tokens=800, seed=seed)
    if kind == "maf":
        return maf_workload(duration, base_rate=rate, seed=seed)
    raise ValueError(f"unknown workload {kind!r}; expected one of {WORKLOAD_KINDS}")
