"""Unit tests for fleet/tenant specs: validation, round-trips, overrides."""

import json

import pytest

from repro.fleet.spec import (
    FleetSpec,
    TenantSpec,
    apply_slo_overrides,
    demo_fleet,
    load_fleet,
    save_fleet,
)
from repro.ssd.model import SsdModel
from repro.tune.slo import parse_slo
from repro.workloads.apps import LC_QUEUE_DEPTH


class TestTenantSpec:
    def test_cgroup_and_job_spec(self):
        tenant = TenantSpec("lc-api", kind="lc", slo="p99<=150")
        assert tenant.cgroup == "/tenants/lc-api"
        job = tenant.job_spec()
        assert job.cgroup_path == "/tenants/lc-api"
        assert job.queue_depth == LC_QUEUE_DEPTH
        assert job.app_class == "lc"

    def test_batch_job_spec_carries_size_and_direction(self):
        tenant = TenantSpec(
            "log", kind="batch", size_kib=64, read_fraction=0.0, slo="bw>=100"
        )
        job = tenant.job_spec()
        assert job.size == 64 * 1024
        assert job.read_fraction == 0.0
        assert job.app_class == "batch"

    def test_group_slo_and_objective_count(self):
        both = TenantSpec("a", slo="p99<=100,bw>=40")
        assert both.objective_count == 2
        group = both.group_slo()
        assert group.p99_latency_us == 100.0
        assert group.min_bandwidth_mib_s == 40.0
        assert TenantSpec("b").group_slo() is None
        assert TenantSpec("b").objective_count == 0
        assert TenantSpec("c", slo="p99<=50").p99_target_us == 50.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="Bad_Name"),
            dict(name="x", kind="database"),
            dict(name="x", size_kib=0),
            dict(name="x", queue_depth=0),
            dict(name="x", read_fraction=1.5),
            dict(name="x", slo="p99<100"),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec(**kwargs)

    def test_json_round_trip(self):
        tenant = TenantSpec(
            "scan", kind="batch", size_kib=256, queue_depth=128, slo="bw>=900"
        )
        assert TenantSpec.from_json_dict(tenant.to_json_dict()) == tenant

    def test_from_json_names_unknown_key(self):
        with pytest.raises(ValueError, match="tenant: unknown key.*sizekib"):
            TenantSpec.from_json_dict({"name": "a", "sizekib": 4})

    def test_from_json_names_missing_key(self):
        with pytest.raises(ValueError, match="tenant: missing key.*name"):
            TenantSpec.from_json_dict({"kind": "lc"})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="tenant must be a JSON object"):
            TenantSpec.from_json_dict("a")


class TestFleetSpec:
    def test_slots_are_host_major(self):
        fleet = demo_fleet()
        assert fleet.slots() == ("h0d0", "h0d1", "h1d0", "h1d1")
        assert fleet.num_devices == 4

    def test_demo_fleet_is_well_formed(self):
        fleet = demo_fleet()
        assert isinstance(fleet.ssd_model(), SsdModel)
        assert len(fleet.tenants) == 5
        assert fleet.tenant("lc-api").kind == "lc"
        with pytest.raises(KeyError):
            fleet.tenant("nope")
        # Real placement pressure: more tenants than devices would fit
        # one-per-device only if capacity allows, and at least one
        # latency-critical tenant must share.
        assert len(fleet.tenants) > fleet.num_devices

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hosts=0),
            dict(devices_per_host=0),
            dict(tenants=()),
            dict(max_tenants_per_device=0),
            dict(saturation_threshold=0.0),
            dict(device="tape"),
            dict(tenants=(TenantSpec("a"), TenantSpec("a"))),
        ],
    )
    def test_validation_rejects(self, kwargs):
        base = dict(
            name="f", hosts=1, devices_per_host=1, tenants=(TenantSpec("a"),)
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            FleetSpec(**base)

    def test_file_round_trip(self, tmp_path):
        fleet = demo_fleet()
        path = tmp_path / "fleet.json"
        save_fleet(fleet, str(path))
        assert load_fleet(str(path)) == fleet
        # The file is plain sorted JSON an operator can hand-edit.
        doc = json.loads(path.read_text())
        assert doc["name"] == "demo-fleet"
        assert [t["name"] for t in doc["tenants"]] == list(fleet.tenant_names())

    def test_from_json_names_missing_tenants(self):
        doc = demo_fleet().to_json_dict()
        del doc["tenants"]
        with pytest.raises(ValueError, match="fleet: missing key.*tenants"):
            FleetSpec.from_json_dict(doc)

    def test_from_json_names_unknown_key(self):
        doc = dict(demo_fleet().to_json_dict(), host=2)
        with pytest.raises(ValueError, match="fleet: unknown key.*host"):
            FleetSpec.from_json_dict(doc)

    @pytest.mark.parametrize("tenants", [{"name": "a"}, "a", None])
    def test_from_json_rejects_tenants_not_a_list(self, tenants):
        doc = dict(demo_fleet().to_json_dict(), tenants=tenants)
        with pytest.raises(ValueError, match="tenants must be a list"):
            FleetSpec.from_json_dict(doc)

    def test_from_json_rejects_tenant_that_is_not_an_object(self):
        doc = dict(demo_fleet().to_json_dict(), tenants=["lc-api"])
        with pytest.raises(ValueError, match="tenant must be a JSON object"):
            FleetSpec.from_json_dict(doc)

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="fleet must be a JSON object"):
            FleetSpec.from_json_dict([])


class TestSloOverrides:
    def test_override_replaces_tenant_terms(self):
        fleet = demo_fleet()
        spec = parse_slo("/tenants/lc-api:p99<=99;/tenants/batch-etl:bw>=123")
        updated = apply_slo_overrides(fleet, spec)
        assert updated.tenant("lc-api").slo == "p99<=99"
        assert updated.tenant("batch-etl").slo == "bw>=123"
        # Untouched tenants keep their declared SLOs.
        assert updated.tenant("lc-kv").slo == fleet.tenant("lc-kv").slo

    def test_unknown_tenant_is_an_error(self):
        with pytest.raises(ValueError, match="no fleet tenant"):
            apply_slo_overrides(demo_fleet(), parse_slo("/tenants/ghost:bw>=1"))

    def test_util_clause_is_rejected(self):
        spec = parse_slo("/tenants/lc-api:p99<=99;util>=0.5")
        with pytest.raises(ValueError, match="util>="):
            apply_slo_overrides(demo_fleet(), spec)
