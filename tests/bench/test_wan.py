"""The WAN benchmark record: the committed one, assertions, gating."""

import pytest

from repro.bench.harness import check_record
from repro.bench.wan import format_record, run_wan

from . import committed_record, without_provenance


@pytest.fixture(scope="module")
def record():
    return run_wan()


class TestWanRecord:
    def test_record_equals_the_committed_one(self, record):
        assert without_provenance(record) == committed_record("wan")

    def test_schema_and_tier(self, record):
        assert record["schema"] == "repro-wan/1"
        assert "scale" not in record  # one definition: no smoke tier
        assert record["seed"] == 42

    def test_all_assertions_hold(self, record):
        assert record["assertions"]["gossip_converges_in_log_rounds"]
        assert record["assertions"]["all_points_converged"]
        assert record["assertions"]["gossip_beats_flood"]
        assert record["assertions"]["nearest_region_faster"]
        assert record["ok"]

    def test_convergence_points_carry_the_bound(self, record):
        for point in record["convergence"]:
            assert point["rounds"] <= point["round_bound"]
            assert point["converged"]

    def test_economy_is_strictly_less_than_flood(self, record):
        economy = record["economy"]
        assert economy["regions"] >= 3
        assert economy["gossip"]["messages"] < economy["flood"]["messages"]

    def test_check_record_passes_and_catches_tampering(self, record):
        assert check_record(record, "WAN") == []
        tampered = dict(record, assertions=dict(record["assertions"]))
        tampered["assertions"]["gossip_beats_flood"] = False
        tampered["ok"] = False
        assert check_record(tampered, "WAN") == [
            "WAN assertion failed: gossip_beats_flood"
        ]

    def test_format_record_renders(self, record):
        text = format_record(record)
        assert "convergence" in text
        assert "nearest-region client latency" in text
