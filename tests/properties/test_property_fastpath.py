"""Property tests: discrete ↔ hybrid engine equivalence.

The discrete loop is the oracle (always selected explicitly); the
hybrid engine must reproduce every :class:`ReplayResult` field
byte-for-byte — including the float cost accumulators, the effective
series under capacity weights and the RNG-driven preemption counts —
over random traces, policies, weights, seeds and chaos overlays, and
leave the RNG stream in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import MArkPolicy
from repro.cloud import SpotTrace
from repro.core import (
    OnDemandOnlyPolicy,
    even_spread_policy,
    hetero_spothedge,
    round_robin_policy,
    spothedge,
)
from repro.core.placement import EvenSpreadPlacer
from repro.core.spothedge import MixturePolicy
from repro.experiments import ENGINES, ReplayConfig, TraceReplayer

ZONES = ["aws:r1:a", "aws:r1:b", "aws:r2:a"]
#: Every engine checked against the discrete oracle.
FAST_ENGINES = [engine for engine in ENGINES if engine != "discrete"]


@st.composite
def traces(draw):
    n_steps = draw(st.integers(min_value=10, max_value=60))
    capacity = draw(
        st.lists(
            st.lists(st.integers(0, 8), min_size=n_steps, max_size=n_steps),
            min_size=len(ZONES),
            max_size=len(ZONES),
        )
    )
    return SpotTrace("prop", ZONES, 60.0, np.asarray(capacity))


@st.composite
def quiet_traces(draw):
    """Piecewise-constant high-capacity traces with a few dips — the
    regime where the hybrid engine actually fast-forwards."""
    n_segments = draw(st.integers(min_value=2, max_value=5))
    seg_len = draw(st.integers(min_value=5, max_value=20))
    rows = []
    for _ in ZONES:
        segs = draw(
            st.lists(
                st.integers(0, 8), min_size=n_segments, max_size=n_segments
            )
        )
        rows.append([c for c in segs for _ in range(seg_len)])
    return SpotTrace("prop-quiet", ZONES, 60.0, np.asarray(rows))


policy_factories = st.sampled_from(
    [spothedge, even_spread_policy, round_robin_policy, OnDemandOnlyPolicy]
)


def assert_identical(ref, got):
    assert got.policy == ref.policy
    assert got.availability == ref.availability
    assert got.relative_cost == ref.relative_cost
    assert got.spot_cost == ref.spot_cost
    assert got.od_cost == ref.od_cost
    assert got.preemptions == ref.preemptions
    assert got.launch_failures == ref.launch_failures
    np.testing.assert_array_equal(got.ready_series, ref.ready_series)
    np.testing.assert_array_equal(got.od_series, ref.od_series)
    if ref.eff_ready_series is None:
        assert got.eff_ready_series is None
    else:
        assert got.eff_ready_series.tobytes() == ref.eff_ready_series.tobytes()
        assert got.eff_availability == ref.eff_availability


def replay_both(trace, config, make_policy, *, seed=0):
    """Run the oracle and every fast engine; assert byte-identical
    results and RNG stream state.  Returns the fast replayers."""
    ref_replayer = TraceReplayer(trace, config, seed=seed, engine="discrete")
    ref = ref_replayer.run(make_policy())
    fast = []
    for engine in FAST_ENGINES:
        replayer = TraceReplayer(trace, config, seed=seed, engine=engine)
        assert_identical(ref, replayer.run(make_policy()))
        assert (
            replayer._rng.bit_generator.state == ref_replayer._rng.bit_generator.state
        )
        assert replayer._next_id == ref_replayer._next_id
        fast.append(replayer)
    return fast


@given(traces(), policy_factories, st.integers(1, 6), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_engines_byte_identical_random_traces(trace, factory, n_tar, seed):
    config = ReplayConfig(n_tar=n_tar, k=3.0, cold_start=120.0)
    ref = TraceReplayer(trace, config, seed=seed, engine="discrete").run(
        factory(ZONES)
    )
    for engine in FAST_ENGINES:
        got = TraceReplayer(trace, config, seed=seed, engine=engine).run(
            factory(ZONES)
        )
        assert_identical(ref, got)


@given(quiet_traces(), policy_factories, st.integers(1, 6), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_engines_byte_identical_quiet_traces(trace, factory, n_tar, seed):
    # Quiet piecewise-constant traces exercise the fluid fast-forward
    # (window boundaries at capacity crossings) rather than per-step
    # churn; results must still match bit for bit.
    config = ReplayConfig(n_tar=n_tar, k=3.0, cold_start=180.0)
    ref = TraceReplayer(trace, config, seed=seed, engine="discrete").run(
        factory(ZONES)
    )
    for engine in FAST_ENGINES:
        got = TraceReplayer(trace, config, seed=seed, engine=engine).run(
            factory(ZONES)
        )
        assert_identical(ref, got)


@given(
    quiet_traces(),
    st.floats(min_value=0.0, max_value=600.0),
    st.integers(1, 5),
)
@settings(max_examples=30, deadline=None)
def test_engines_byte_identical_cold_start_sweep(trace, cold_start, n_tar):
    # Cold starts that are non-multiples of the step stress the
    # ready-step bucketing against the oracle's float comparison.
    config = ReplayConfig(n_tar=n_tar, cold_start=cold_start)
    ref = TraceReplayer(trace, config, seed=2, engine="discrete").run(
        spothedge(ZONES)
    )
    for engine in FAST_ENGINES:
        got = TraceReplayer(trace, config, seed=2, engine=engine).run(
            spothedge(ZONES)
        )
        assert_identical(ref, got)


@st.composite
def chaos_overlays(draw, trace):
    """Random per-step cold-start factors and per-zone price rows —
    the shape the chaos overlay compiler hands to the replayer."""
    n = trace.n_steps
    cold = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=0.25, max_value=4.0),
                min_size=n,
                max_size=n,
            ),
        )
    )
    prices = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {
                    ZONES[0]: st.lists(
                        st.floats(min_value=0.5, max_value=3.0),
                        min_size=n,
                        max_size=n,
                    ),
                    ZONES[2]: st.lists(
                        st.floats(min_value=0.5, max_value=3.0),
                        min_size=n,
                        max_size=n,
                    ),
                }
            ),
        )
    )
    return cold, prices


@given(st.data(), policy_factories, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_engines_byte_identical_chaos_overlays(data, factory, n_tar):
    trace = data.draw(traces())
    cold, prices = data.draw(chaos_overlays(trace))
    config = ReplayConfig(
        n_tar=n_tar, zone_price_multipliers={ZONES[1]: 1.4}
    )
    kwargs = dict(cold_start_factors=cold, zone_price_factors=prices)
    ref = TraceReplayer(
        trace, config, seed=1, engine="discrete", **kwargs
    ).run(factory(ZONES))
    for engine in FAST_ENGINES:
        got = TraceReplayer(
            trace, config, seed=1, engine=engine, **kwargs
        ).run(factory(ZONES))
        assert_identical(ref, got)


@given(traces(), st.integers(1, 5), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_hybrid_matches_oracle_for_nonstationary_policy(trace, n_tar, seed):
    # MArk keeps a time-keyed prediction history (not stationary): the
    # hybrid engine must degrade to per-step processing and still agree.
    # MArk is single-region, so remap the trace onto one region's zones.
    one_region = ["aws:r1:a", "aws:r1:b", "aws:r1:c"]
    trace = SpotTrace(trace.name, one_region, trace.step, trace.capacity)
    config = ReplayConfig(n_tar=n_tar)
    ref = TraceReplayer(trace, config, seed=seed, engine="discrete").run(
        MArkPolicy(one_region)
    )
    got = TraceReplayer(trace, config, seed=seed, engine="hybrid").run(
        MArkPolicy(one_region)
    )
    assert_identical(ref, got)


@given(traces(), policy_factories, st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_rng_stream_consumption_identical(trace, factory, n_tar):
    # Same stream position after the run ⇒ the engines drew the same
    # victim-sampling batches in the same order.
    config = ReplayConfig(n_tar=n_tar)
    ref = TraceReplayer(trace, config, seed=4, engine="discrete")
    ref.run(factory(ZONES))
    for engine in FAST_ENGINES:
        fast = TraceReplayer(trace, config, seed=4, engine=engine)
        fast.run(factory(ZONES))
        assert ref._rng.bit_generator.state == fast._rng.bit_generator.state


@st.composite
def shortage_traces(draw):
    """Traces dominated by long zero-capacity stretches (the §5.2
    blackout regime), with one all-zones blackout of 10+ steps."""
    n_segments = draw(st.integers(min_value=2, max_value=5))
    rows = []
    for _ in ZONES:
        segs = draw(
            st.lists(
                st.tuples(st.sampled_from([0, 0, 0, 1, 2, 8]), st.integers(5, 40)),
                min_size=n_segments,
                max_size=n_segments,
            )
        )
        rows.append([cap for cap, length in segs for _ in range(length)])
    n_steps = min(len(row) for row in rows)
    start = draw(st.integers(0, n_steps))
    length = draw(st.integers(10, 40))
    grid = np.asarray([row[:n_steps] + [0] * length for row in rows])
    grid[:, start : start + length] = 0
    return SpotTrace("prop-shortage", ZONES, 60.0, grid)


weight_maps = st.dictionaries(
    st.sampled_from(ZONES), st.floats(min_value=0.1, max_value=4.0), max_size=len(ZONES)
)


@given(st.one_of(traces(), shortage_traces()), policy_factories, weight_maps,
       st.integers(1, 6), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_weighted_engines_byte_identical(trace, factory, weights, n_tar, seed):
    # Random non-unit capacity weights (zones left out weigh 1.0): the
    # effective series must match the oracle's byte for byte.
    config = ReplayConfig(n_tar=n_tar, cold_start=120.0, zone_capacity_weights=weights)
    replay_both(trace, config, lambda: factory(ZONES), seed=seed)


@given(shortage_traces(), policy_factories, st.integers(1, 6), st.integers(0, 3),
       st.sampled_from([0.0, 60.0, 150.0]))
@settings(max_examples=60, deadline=None)
def test_engines_byte_identical_shortage_traces(trace, factory, n_tar, seed, cold_start):
    config = ReplayConfig(n_tar=n_tar, k=3.0, cold_start=cold_start)
    replay_both(trace, config, lambda: factory(ZONES), seed=seed)


@given(shortage_traces(), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_even_spread_shortage_fast_forwards(trace, n_tar):
    # The all-zones blackout is a fixed point for Even Spread: the
    # same quota zones fail every step and its state never moves.
    (fast,) = replay_both(trace, ReplayConfig(n_tar=n_tar), lambda: even_spread_policy(ZONES))
    assert fast.fast_forwarded_steps > 0


POOLS = [f"{zone}@{itype}" for zone in ZONES for itype in ("small", "big")]


@given(
    st.data(),
    st.integers(1, 6),
    st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_hetero_spothedge_byte_identical(data, n_tar, seed):
    base = data.draw(st.one_of(traces(), shortage_traces()))
    grid = np.repeat(base.capacity, 2, axis=0)
    trace = SpotTrace("prop-pools", POOLS, base.step, grid)
    weights = data.draw(
        st.fixed_dictionaries({pool: st.sampled_from([0.5, 1.0, 2.5]) for pool in POOLS})
    )
    costs = data.draw(
        st.fixed_dictionaries({pool: st.floats(min_value=0.5, max_value=5.0) for pool in POOLS})
    )
    config = ReplayConfig(
        n_tar=n_tar, cold_start=120.0, k=2.0, zone_capacity_weights=weights
    )
    replay_both(
        trace,
        config,
        lambda: hetero_spothedge(POOLS, pool_costs=costs, pool_weights=weights),
        seed=seed,
    )


class _UnpicklableEvenSpread(MixturePolicy):
    """Stationary Even Spread that holds a lambda, so it has no pickle
    snapshot: shortage windows must be stepped, not skipped."""

    def __init__(self, zones):
        super().__init__(EvenSpreadPlacer(zones), name="EvenSpread")
        self.hook = lambda zone: zone


@given(st.one_of(traces(), shortage_traces()), st.integers(1, 6), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_unpicklable_stationary_policy_byte_identical(trace, n_tar, seed):
    config = ReplayConfig(n_tar=n_tar, cold_start=120.0)
    replay_both(trace, config, lambda: _UnpicklableEvenSpread(ZONES), seed=seed)


# ----------------------------------------------------------------------
# Shortage cycles: failure-only windows whose policy state repeats with
# a period longer than one step.
# ----------------------------------------------------------------------

CYCLE_ZONES = ["aws:r1:a", "aws:r1:b", "aws:r2:a", "gcp:r3:a", "gcp:r4:a", "azure:r5:a"]


@st.composite
def cycle_shortages(draw):
    """A 4–6 zone trace ending in a long shortage, and an N_Tar above the
    shortage's total capacity.  An optional random-capacity prefix
    places a fleet; then at least two zones black out and the rest hold a
    small constant capacity, so every step tries to launch and, once
    the fleet is ready, every launch fails.  Alg. 1's Z_A/Z_P rebalance
    makes SpotHedge's state repeat with a period above one (two when
    two zones are full and two black, at three attempts per step), and
    the round-robin cursor repeats too."""
    n_zones = draw(st.integers(4, len(CYCLE_ZONES)))
    zones = CYCLE_ZONES[:n_zones]
    blacked = draw(st.sets(st.integers(0, n_zones - 1), min_size=2))
    held = [0 if i in blacked else draw(st.integers(1, 2)) for i in range(n_zones)]
    prefix = draw(st.integers(0, 15))
    length = draw(st.integers(80, 120))
    rows = [
        draw(st.lists(st.integers(0, 4), min_size=prefix, max_size=prefix)) + [cap] * length
        for cap in held
    ]
    n_tar = sum(held) + draw(st.integers(1, 3))
    return SpotTrace("prop-cycles", zones, 60.0, np.asarray(rows)), n_tar


@given(
    cycle_shortages(),
    st.sampled_from([round_robin_policy, spothedge]),
    st.sampled_from([3, 8]),
    st.sampled_from([0.0, 60.0, 150.0]),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_shortage_cycles_fast_forward(shortage, factory, attempts, cold_start, seed):
    trace, n_tar = shortage
    config = ReplayConfig(
        n_tar=n_tar, cold_start=cold_start, max_launch_attempts_per_step=attempts
    )
    (fast,) = replay_both(trace, config, lambda: factory(trace.zone_ids), seed=seed)
    assert fast.fast_forwarded_steps > 0


@pytest.mark.parametrize("length", range(30, 36))
def test_shortage_cycle_remainder_is_stepped(length):
    # Two full zones and two black ones at three attempts per step:
    # SpotHedge fails through the same two-step cycle until the third
    # zone gains capacity at ``length``.  Only whole cycles are skipped, so
    # the count is even; across consecutive lengths the window leaves
    # a one-step remainder half the time, which is stepped.
    zones = CYCLE_ZONES[:4]
    grid = np.zeros((4, length + 5), dtype=int)
    grid[:2] = 1
    grid[2, length:] = 1
    trace = SpotTrace("prop-remainder", zones, 60.0, grid)
    config = ReplayConfig(n_tar=4, cold_start=60.0, max_launch_attempts_per_step=3)
    (fast,) = replay_both(trace, config, lambda: spothedge(zones))
    assert fast.fast_forwarded_steps > 0
    assert fast.fast_forwarded_steps % 2 == 0
