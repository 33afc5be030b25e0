"""Deployment/tenant spec validation, round-trips, and file loading."""

import json
from pathlib import Path

import pytest

from repro.control import DeploymentSpec, TenantSpec, load_deployment
from repro.serving import ServiceSpec

REPO_ROOT = Path(__file__).resolve().parents[2]


def tenant(name, **kwargs):
    return TenantSpec(service=ServiceSpec(name=name), **kwargs)


class TestTenantSpec:
    def test_defaults(self):
        t = tenant("a")
        assert t.name == "a"
        assert t.priority == 0
        assert t.qps_share == 1.0
        assert t.policy == "SpotHedge"

    def test_round_trip(self):
        t = tenant(
            "a", priority=3, qps_share=2.5, workload="maf", rate=0.7,
            policy="EvenSpread", profile="opt-6.7b",
        )
        assert TenantSpec.from_dict(t.to_dict()) == t

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(qps_share=0.0), "qps_share"),
            (dict(qps_share=-1.0), "qps_share"),
            (dict(rate=0.0), "rate"),
            (dict(workload="sinusoid"), "unknown workload"),
            (dict(policy="MagicHedge"), "unknown serving policy"),
            (dict(profile="gpt-5"), "unknown profile"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            tenant("a", **kwargs)


class TestDeploymentSpec:
    def test_round_trip(self):
        dep = DeploymentSpec(
            name="d",
            tenants=(tenant("a"), tenant("b", priority=1)),
            admission="strict_priority",
            scenario="capacity-blackout",
            hours=1.5,
        )
        assert DeploymentSpec.from_dict(dep.to_dict()) == dep
        assert dep.tenant_names == ("a", "b")
        assert dep.tenant("b").priority == 1

    def test_requires_tenants(self):
        with pytest.raises(ValueError, match="no tenants"):
            DeploymentSpec(name="d", tenants=())

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant names"):
            DeploymentSpec(name="d", tenants=(tenant("a"), tenant("a")))

    def test_unknown_admission_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown admission mode"):
            DeploymentSpec(name="d", tenants=(tenant("a"),), admission="fifo")

    def test_unknown_tenant_lookup(self):
        dep = DeploymentSpec(name="d", tenants=(tenant("a"),))
        with pytest.raises(KeyError, match="no tenant 'z'"):
            dep.tenant("z")

    def test_tenant_list_coerced_to_tuple(self):
        dep = DeploymentSpec(name="d", tenants=[tenant("a")])
        assert isinstance(dep.tenants, tuple)


class TestLoadDeployment:
    def test_load_json(self, tmp_path):
        dep = DeploymentSpec(name="d", tenants=(tenant("a"),))
        path = tmp_path / "dep.json"
        path.write_text(json.dumps(dep.to_dict()))
        assert load_deployment(path) == dep

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_deployment(tmp_path / "nope.json")

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "dep.toml"
        path.write_text("x = 1")
        with pytest.raises(ValueError, match="unsupported deployment spec"):
            load_deployment(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "dep.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a mapping"):
            load_deployment(path)

    def test_bundled_example_loads(self):
        dep = load_deployment(
            REPO_ROOT / "configs" / "deployments" / "three-tenants.json"
        )
        assert dep.name == "three-tenants"
        assert dep.tenant_names == ("chatbot-gold", "summarizer", "batch-eval")
        assert dep.scenario == "capacity-blackout"
        priorities = [t.priority for t in dep.tenants]
        assert len(set(priorities)) == 3, "example must exercise priorities"

    def test_bundled_yaml_twin_matches_json(self):
        yaml = pytest.importorskip("yaml")
        del yaml
        base = REPO_ROOT / "configs" / "deployments"
        assert load_deployment(base / "three-tenants.yaml") == load_deployment(
            base / "three-tenants.json"
        )
