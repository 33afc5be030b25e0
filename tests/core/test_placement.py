"""Unit tests for the placement policies (§3.1, Alg. 1)."""

import pytest

from repro.core import (
    DynamicSpotPlacer,
    EvenSpreadPlacer,
    RoundRobinPlacer,
    make_placer,
)

ZONES = ["z1", "z2", "z3", "z4"]


class TestDynamicPlacer:
    def test_initially_all_zones_active(self):
        placer = DynamicSpotPlacer(ZONES)
        assert placer.active_zones == ZONES
        assert placer.preempting_zones == []

    def test_preemption_moves_zone_to_zp(self):
        placer = DynamicSpotPlacer(ZONES)
        placer.handle_preemption("z2")
        assert "z2" not in placer.active_zones
        assert placer.preempting_zones == ["z2"]

    def test_preempting_zone_avoided(self):
        placer = DynamicSpotPlacer(ZONES)
        placer.handle_preemption("z1")
        # z1 is the first by order but must not be chosen.
        assert placer.select_zone({}) != "z1"

    def test_successful_launch_rehabilitates_zone(self):
        placer = DynamicSpotPlacer(ZONES)
        placer.handle_preemption("z1")
        placer.handle_active("z1")
        assert "z1" in placer.active_zones
        assert placer.preempting_zones == []

    def test_rebalance_when_za_below_two(self):
        """Alg. 1 line 7: when |Z_A| < 2, Z_P flushes back to Z_A."""
        placer = DynamicSpotPlacer(ZONES)
        for zone in ["z1", "z2", "z3"]:
            placer.handle_preemption(zone)
        # Third preemption leaves Z_A = {z4} -> rebalance.
        assert set(placer.active_zones) == set(ZONES)
        assert placer.preempting_zones == []

    def test_subclass_override_sees_preemptions(self):
        """``handle_preemption`` dispatches through ``_move_to_preempting``,
        so an override (e.g. the rebalance ablation's) receives it."""
        moved = []

        class Recording(DynamicSpotPlacer):
            def _move_to_preempting(self, zone):
                moved.append(zone)

        placer = Recording(ZONES)
        placer.handle_preemption("z2")
        placer.handle_launch_failure("z3")
        assert moved == ["z2", "z3"]
        assert placer.preempting_zones == []

    def test_launch_failure_counts_like_preemption(self):
        placer = DynamicSpotPlacer(ZONES)
        placer.handle_launch_failure("z3")
        assert "z3" in placer.preempting_zones

    def test_launch_failure_ignored_when_configured(self):
        placer = DynamicSpotPlacer(ZONES, treat_launch_failure_as_preemption=False)
        placer.handle_launch_failure("z3")
        assert placer.preempting_zones == []

    def test_prefers_unused_zone(self):
        """SELECT-NEXT-ZONE: Z_A \\ C first."""
        placer = DynamicSpotPlacer(ZONES)
        assert placer.select_zone({"z1": 1, "z2": 1}) in ("z3", "z4")

    def test_all_zones_used_falls_back_to_min_cost(self):
        costs = {"z1": 3.0, "z2": 1.0, "z3": 2.0, "z4": 4.0}
        placer = DynamicSpotPlacer(ZONES, costs)
        placements = {z: 1 for z in ZONES}
        assert placer.select_zone(placements) == "z2"

    def test_min_cost_among_unused(self):
        costs = {"z1": 1.0, "z2": 2.0, "z3": 0.5, "z4": 4.0}
        placer = DynamicSpotPlacer(ZONES, costs)
        assert placer.select_zone({"z3": 1}) == "z1"

    def test_excluded_zones_skipped(self):
        placer = DynamicSpotPlacer(ZONES)
        zone = placer.select_zone({}, excluded=frozenset(["z1", "z2"]))
        assert zone in ("z3", "z4")

    def test_all_excluded_returns_none(self):
        placer = DynamicSpotPlacer(ZONES)
        assert placer.select_zone({}, excluded=frozenset(ZONES)) is None

    def test_duplicate_zones_rejected(self):
        with pytest.raises(ValueError):
            DynamicSpotPlacer(["z1", "z1"])

    def test_empty_zones_rejected(self):
        with pytest.raises(ValueError):
            DynamicSpotPlacer([])

    def test_missing_cost_rejected(self):
        with pytest.raises(ValueError):
            DynamicSpotPlacer(ZONES, {"z1": 1.0})


class TestEvenSpread:
    def test_quota_assignment(self):
        placer = EvenSpreadPlacer(ZONES)
        placer.set_target(6)
        assert placer.quotas() == {"z1": 2, "z2": 2, "z3": 1, "z4": 1}

    def test_fills_quota_zones_in_order(self):
        placer = EvenSpreadPlacer(ZONES)
        placer.set_target(4)
        placements = {}
        for _ in range(4):
            zone = placer.select_zone(placements)
            placements[zone] = placements.get(zone, 0) + 1
        assert placements == {z: 1 for z in ZONES}

    def test_never_exceeds_quota(self):
        placer = EvenSpreadPlacer(ZONES)
        placer.set_target(2)
        assert placer.select_zone({"z1": 1, "z2": 1}) is None

    def test_static_no_failover_beyond_quota_zones(self):
        """The paper's point: a down quota zone's slots stay unfilled."""
        placer = EvenSpreadPlacer(ZONES)
        placer.set_target(2)  # quota zones z1, z2 only
        # z1 excluded (down); only z2 remains; z3/z4 never used.
        assert placer.select_zone({}, excluded=frozenset(["z1"])) == "z2"
        assert placer.select_zone({"z2": 1}, excluded=frozenset(["z1"])) is None

    def test_ignores_preemption_history(self):
        placer = EvenSpreadPlacer(ZONES)
        placer.set_target(4)
        placer.handle_preemption("z1")
        assert placer.select_zone({}) == "z1"  # no memory

    def test_negative_target_rejected(self):
        placer = EvenSpreadPlacer(ZONES)
        with pytest.raises(ValueError):
            placer.set_target(-1)


class TestRoundRobin:
    def test_cycles_in_order(self):
        placer = RoundRobinPlacer(ZONES)
        picks = [placer.select_zone({}) for _ in range(8)]
        assert picks == ZONES + ZONES

    def test_skips_excluded(self):
        placer = RoundRobinPlacer(ZONES)
        assert placer.select_zone({}, excluded=frozenset(["z1"])) == "z2"

    def test_all_excluded_returns_none(self):
        placer = RoundRobinPlacer(ZONES)
        assert placer.select_zone({}, excluded=frozenset(ZONES)) is None

    def test_no_preemption_memory(self):
        """Round Robin's §3.1 weakness: it keeps returning to
        highly-preempting zones."""
        placer = RoundRobinPlacer(ZONES)
        placer.handle_preemption("z1")
        picks = [placer.select_zone({}) for _ in range(4)]
        assert "z1" in picks

    @pytest.mark.parametrize(
        "exclusions",
        [
            [frozenset()],
            [frozenset(["z2"])],
            [frozenset(), frozenset(["z1", "z3"]), frozenset(ZONES)],
        ],
    )
    def test_bounded_cursor_matches_unbounded_rotation(self, exclusions):
        """The cursor is stored modulo the zone count (so equal
        rotations leave equal state) and picks exactly the zones the
        unbounded counter ``zones[next % n]`` picked."""

        def unbounded(excluded, cursor):
            for _ in range(len(ZONES)):
                zone = ZONES[cursor[0] % len(ZONES)]
                cursor[0] += 1
                if zone not in excluded:
                    return zone
            return None

        placer = RoundRobinPlacer(ZONES)
        cursor = [0]
        for call in range(3 * len(ZONES)):
            excluded = exclusions[call % len(exclusions)]
            assert placer.select_zone({}, excluded) == unbounded(excluded, cursor)
            assert 0 <= placer._next < len(ZONES)
            assert placer._next == cursor[0] % len(ZONES)


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_placer("dynamic", ZONES), DynamicSpotPlacer)
        assert isinstance(make_placer("even_spread", ZONES), EvenSpreadPlacer)
        assert isinstance(make_placer("round_robin", ZONES), RoundRobinPlacer)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_placer("static", ZONES)
