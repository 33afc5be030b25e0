"""Tenant event kinds flow into metrics, run reports, and event logs."""

from repro.telemetry.events import (
    TenantAdmission,
    TenantCostSnapshot,
    TenantEviction,
    event_from_dict,
)
from repro.telemetry.metrics import MetricsSink
from repro.telemetry.report import build_report, render_dashboard
from repro.telemetry.sinks import JsonlSink, read_events


def sample_events():
    return [
        TenantAdmission(time=1.0, tenant="a", zone="z1", decision="admitted"),
        TenantAdmission(time=2.0, tenant="a", zone="z1", decision="rejected",
                        mode="fair_share"),
        TenantAdmission(time=3.0, tenant="b", zone="z2", decision="admitted"),
        TenantEviction(time=4.0, tenant="b", victim="a", zone="z1",
                       instance_id=9),
        TenantCostSnapshot(time=5.0, tenant="a", spot=1.5, on_demand=0.5,
                           total=2.0),
        TenantCostSnapshot(time=5.0, tenant="b", spot=3.0, on_demand=0.0,
                           total=3.0),
    ]


class TestTenantEvents:
    def test_round_trip_through_dict(self):
        for event in sample_events():
            assert event_from_dict(event.to_dict()) == event

    def test_metrics_sink_aggregates_by_tenant(self):
        sink = MetricsSink()
        for event in sample_events():
            sink.accept(event)
        admissions = sink.registry.get("tenant_admissions_total").children()
        assert admissions[("a", "admitted")].value == 1
        assert admissions[("a", "rejected")].value == 1
        assert admissions[("b", "admitted")].value == 1
        evictions = sink.registry.get("tenant_evictions_total").children()
        assert evictions[("b", "won")].value == 1
        assert evictions[("a", "suffered")].value == 1
        cost = sink.registry.get("tenant_cost_dollars").children()
        assert cost[("a", "total")].last == 2.0
        assert cost[("b", "spot")].last == 3.0


class TestTenantReportSections:
    def test_run_report_tenants_section(self):
        report = build_report(sample_events(), label="fleet")
        tenants = report.to_dict()["tenants"]
        assert tenants["a"]["admissions"] == {"admitted": 1, "rejected": 1}
        assert tenants["a"]["evictions"] == {"suffered": 1}
        assert tenants["b"]["evictions"] == {"won": 1}
        assert tenants["a"]["cost"]["total"] == 2.0

    def test_single_service_reports_have_no_tenants(self):
        assert build_report([]).to_dict()["tenants"] == {}

    def test_dashboard_renders_tenant_table(self):
        text = render_dashboard(build_report(sample_events()))
        assert "tenant" in text
        assert "a" in text and "b" in text
        assert "2.00" in text
        assert "3.00" in text

    def test_event_log_summary_renders_tenant_table(self, tmp_path):
        # The path ``repro report LOG`` takes: events written as JSONL,
        # read back, and rendered by the one dashboard.
        log = tmp_path / "events.jsonl"
        sink = JsonlSink(log)
        for event in sample_events():
            sink.accept(event)
        sink.close()
        text = render_dashboard(build_report(read_events(log)))
        assert "tenant" in text and "cost ($)" in text
        rows = {line.split()[0]: line for line in text.splitlines()
                if line.strip() and line.split()[0] in ("a", "b")}
        assert "2.00" in rows["a"]
        assert "3.00" in rows["b"]
