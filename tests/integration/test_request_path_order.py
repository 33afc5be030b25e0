"""Pins the exact order of everything the request path emits.

A short, overloaded, high-rate :class:`SkyService` run on the volatile
§5.1 trace exercises every source of same-time ties on the request
path: Arena bursts (many arrivals close together), preemptions that
abort in-flight requests into immediate retries, continuous batching
(``decode_batch_slope > 0``) whose re-pricing cancels and reschedules
finish events, a bounded replica queue that sheds requests, and jittered
retry backoff.  The sha256 over ``repr`` of every telemetry event, in
emission order, was recorded before the engine heap, the client's
arrival feed and deadline timer, and the controller's replica index were
rewritten; any reordering of simultaneous events, or any change in what
is emitted, changes it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.spothedge import spothedge
from repro.experiments.endtoend import SKYSERVE_REGIONS, e2e_trace
from repro.serving.client import RetryPolicy
from repro.serving.inference import llama2_70b_profile
from repro.serving.service import SkyService
from repro.serving.spec import DomainFilter, ReplicaPolicyConfig, ResourceSpec, ServiceSpec
from repro.telemetry.events import EventBus
from repro.workloads import arena_workload

DURATION = 1800.0
SEED = 0

#: ``(event count, sha256)`` of the event stream, one per balancer.
EXPECTED = {
    "least_load": (
        5400,
        "40d0f2c09681cd796461b710112c8a28fb1c5288a68ad0d6c2c72271a7e76a1f",
    ),
    "locality": (
        6028,
        "f75ea4a68fd2dc8dde42f05df20062d1695ad4076a59a21c6e59b3c0046367c0",
    ),
    "round_robin": (
        5267,
        "c14649df4650204bfa5668092222fd3f6c760b831f59f8e500085d7b4168ed3d",
    ),
}


class _DigestSink:
    """Hashes ``repr`` of every event, in order, without keeping them."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.count = 0

    def accept(self, event: object) -> None:
        self.sha.update(repr(event).encode())
        self.sha.update(b"\n")
        self.count += 1


def _run(balancer: str) -> tuple[_DigestSink, SkyService]:
    trace = e2e_trace("volatile", duration=DURATION, seed=SEED)
    spec = ServiceSpec(
        name="request-path-order",
        replica_policy=ReplicaPolicyConfig(fixed_target=2, num_overprovision=1),
        resources=ResourceSpec(
            accelerator="A10G",
            any_of=tuple(
                DomainFilter(cloud=r.split(":")[0], region=r.split(":")[1])
                for r in SKYSERVE_REGIONS
            ),
        ),
        request_timeout=100.0,
        load_balancing_policy=balancer,
        max_queue_per_replica=4,
    )
    sink = _DigestSink()
    service = SkyService(
        spec,
        spothedge(trace.zone_ids),
        trace,
        profile=llama2_70b_profile(decode_batch_slope=0.08),
        seed=SEED,
        retry_policy=RetryPolicy(),
        telemetry=EventBus([sink]),
    )
    workload = arena_workload(
        DURATION,
        base_rate=1.0,
        diurnal_amplitude=0.4,
        burst_multiplier=1.8,
        max_output_tokens=800,
        seed=SEED,
    )
    service.run(workload, DURATION)
    return sink, service


@pytest.mark.parametrize("balancer", sorted(EXPECTED))
def test_event_stream_matches_recorded_digest(balancer):
    sink, service = _run(balancer)
    stats = service.client.stats()
    # The run must actually exercise the tie sources it pins.
    assert service.controller.preemption_count.value >= 1
    assert stats.retries > stats.shed > 0  # sheds, plus abort retries
    assert stats.failed > 0
    assert (sink.count, sink.sha.hexdigest()) == EXPECTED[balancer]
