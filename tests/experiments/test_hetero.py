"""Tests for the homogeneous-vs-heterogeneous frontier ablation."""

import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cloud import aws1
from repro.core import DynamicSpotPlacer, FleetMixturePolicy, spothedge
from repro.experiments import (
    FLEETS,
    spot_zone_costs,
    ReplayConfig,
    TraceReplayer,
    frontier_to_json,
    pareto_fleets,
    replay_result_to_dict,
    run_fleet,
    run_frontier,
)
from repro.experiments.sweep import SweepPoint

WINDOW = 6 * 3600.0


class TestHomogeneousEquivalence:
    """Acceptance: a single-type (all-weight-1.0) fleet reproduces the
    unweighted homogeneous stack bit-for-bit."""

    def _trace(self):
        return aws1().window(0, 12 * 3600, name="equiv")

    def test_uniform_fleet_matches_spothedge_replay(self):
        trace = self._trace()
        costs = spot_zone_costs(trace.zone_ids, "A10G")
        config = ReplayConfig(n_tar=4)
        plain = TraceReplayer(trace, config, seed=3, engine="discrete").run(
            spothedge(trace.zone_ids, zone_costs=costs)
        )
        fleet = TraceReplayer(trace, config, seed=3, engine="discrete").run(
            FleetMixturePolicy(
                DynamicSpotPlacer(trace.zone_ids, costs),
                pool_weights={},  # all 1.0
                num_overprovision=2,
                dynamic_ondemand_fallback=True,
                name="SpotHedge",
            )
        )
        assert replay_result_to_dict(plain, include_series=True) == \
            replay_result_to_dict(fleet, include_series=True)

    def test_unit_weights_leave_series_identical(self):
        # Turning on weight tracking with all-1.0 weights must not
        # change a single decision: eff series == ready series exactly.
        trace = self._trace()
        costs = spot_zone_costs(trace.zone_ids, "A10G")
        base_cfg = ReplayConfig(n_tar=4)
        weighted_cfg = ReplayConfig(
            n_tar=4,
            zone_capacity_weights={z: 1.0 for z in trace.zone_ids},
        )
        base = TraceReplayer(trace, base_cfg, seed=3, engine="discrete").run(
            spothedge(trace.zone_ids, zone_costs=costs)
        )
        weighted = TraceReplayer(trace, weighted_cfg, seed=3, engine="discrete").run(
            spothedge(trace.zone_ids, zone_costs=costs)
        )
        assert np.array_equal(base.ready_series, weighted.ready_series)
        assert np.array_equal(weighted.eff_ready_series, weighted.ready_series.astype(float))
        assert weighted.eff_availability == base.availability


class TestRunFleet:
    def test_unknown_fleet_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet"):
            run_fleet("tpu")

    def test_mixed_fleet_tracks_effective_capacity(self):
        result = run_fleet("mixed", duration=WINDOW)
        assert result.eff_availability is not None
        assert 0.0 <= result.eff_availability <= 1.0
        assert result.relative_cost > 0

class TestFrontier:
    def test_sweeps_fleets_in_declared_order(self):
        points = run_frontier(["A10G", "mixed"], duration=WINDOW)
        assert [p.params["fleet"] for p in points] == ["A10G", "mixed"]
        assert all(p.ok for p in points)

    def test_unknown_fleet_rejected(self):
        with pytest.raises(ValueError):
            run_frontier(["warp-core"])

    def test_pareto_drops_dominated_fleets(self):
        def point(name, eff, cost):
            return SweepPoint(
                params={"fleet": name},
                result=SimpleNamespace(eff_availability=eff, relative_cost=cost),
            )

        points = [
            point("cheap", 0.95, 0.3),
            point("dominated", 0.94, 0.5),  # worse on both axes
            point("premium", 0.99, 0.8),
        ]
        assert pareto_fleets(points) == ["cheap", "premium"]

    def test_json_is_byte_stable_across_hash_seeds(self, tmp_path):
        script = (
            "from repro.experiments import run_frontier, frontier_to_json\n"
            "import sys\n"
            "pts = run_frontier(['A10G', 'mixed'], n_tar=4, seed=0, "
            f"duration={WINDOW})\n"
            "sys.stdout.write(frontier_to_json(pts, n_tar=4, seed=0))\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src_dir, env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert '"experiment": "hetero-frontier"' in outputs[0]

    def test_json_reports_errors_per_fleet(self):
        bad = SweepPoint(params={"fleet": "A10G"}, error="boom")
        text = frontier_to_json([bad])
        assert '"error": "boom"' in text

    def test_fleet_specs_are_aws_shapes(self):
        # The frontier runs on an AWS base trace; every declared type
        # must expand there or the fleet silently shrinks.
        from repro.cloud import hetero_catalog

        catalog = hetero_catalog()
        for name, types in FLEETS.items():
            for itype in types:
                assert catalog.get(itype).cloud == "aws", (name, itype)
