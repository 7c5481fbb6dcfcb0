"""The adaptive-capacity benchmark record: smoke tier, assertions, gating."""

import pytest

from repro.bench.capacity import (
    diurnal_phases,
    format_record,
    run_breaker_drill,
    run_capacity,
)
from repro.bench.harness import check_record
from repro.bench.workload import PoissonWorkload
from repro.check.invariants import (
    autoscale_violations,
    breaker_violations,
    rescache_violations,
    retirement_violations,
)


@pytest.fixture(scope="module")
def record():
    return run_capacity(scale="smoke", seed=42)


class TestCapacityRecord:
    def test_schema_and_tier(self, record):
        assert record["schema"] == "repro-capacity/1"
        assert record["scale"] == "smoke"
        assert record["seed"] == 42

    def test_all_assertions_hold(self, record):
        assert record["ok"], record["assertions"]
        assert record["assertions"]["replica_hours_economical"]
        assert record["assertions"]["availability_parity"]
        assert record["assertions"]["p99_within_band"]
        assert record["assertions"]["scaled_up_and_down"]
        assert record["assertions"]["cache_hot_phase_hits"]
        assert record["assertions"]["zero_stale_epoch_serves"]
        assert record["assertions"]["capacity_invariants_clean"]
        assert record["assertions"]["breaker_trips_and_heals"]

    def test_autoscaled_is_cheaper_than_static(self, record):
        assert record["replica_seconds_ratio"] <= 0.6
        assert (
            record["autoscaled"]["replica_seconds"]
            < record["static_max"]["replica_seconds"]
        )

    def test_elasticity_follows_the_diurnal_shape(self, record):
        events = record["autoscaled"]["scale_events"]
        ups = [e for e in events if e["direction"] == "up"]
        downs = [e for e in events if e["direction"] == "down"]
        assert ups and downs
        # The first move of the day is a scale-up (the ramp), and the
        # group is back at the floor by end of trace.
        assert events[0]["direction"] == "up"
        assert record["autoscaled"]["phases"][-1]["replicas_after"] == 2

    def test_check_record_passes_and_catches_tampering(self, record):
        assert check_record(record, "capacity") == []
        tampered = dict(record, assertions=dict(record["assertions"]))
        tampered["assertions"]["replica_hours_economical"] = False
        assert check_record(tampered, "capacity") == [
            "capacity assertion failed: replica_hours_economical"
        ]

    def test_format_record_renders(self, record):
        text = format_record(record)
        assert "diurnal trace: autoscaled" in text
        assert "replica-hours" in text
        assert "breaker drill" in text


class TestStandaloneProbes:
    def test_breaker_drill_trips_and_heals(self):
        drill = run_breaker_drill(seed=7)
        assert drill["tripped"]
        assert drill["healed"]
        assert drill["unjustified_trips"] == []
        assert ("closed", "open") in drill["transitions"]
        assert ("half-open", "closed") in drill["transitions"]

    def test_diurnal_phases_smoke_keeps_ramp_and_quiet_full_length(self):
        smoke = {p.name: p for p in diurnal_phases("smoke")}
        full = {p.name: p for p in diurnal_phases("full")}
        # Shrinking the ramp or the quiet valleys would distort the
        # transient (ramp) and the elastic-floor economics (quiet).
        for name in ("quiet-am", "ramp-1", "ramp-2", "ramp-3", "quiet-pm"):
            assert smoke[name].duration == full[name].duration
        assert smoke["peak"].duration < full["peak"].duration


@pytest.mark.parametrize("seed", [7, 42], indirect=True)
def test_capacity_scenario_survives_a_burst_clean(capacity_scenario, seed):
    """The shared fixture under a burst: every capacity invariant holds."""
    system, service = capacity_scenario
    workload = PoissonWorkload(
        system,
        service.address,
        service.path,
        "StudentInformation",
        rate=150.0,
        duration=4.0,
        call_timeout=10.0,
    )
    result = workload.run()
    system.settle(4.0)
    assert result.requests > 0
    assert result.accepted_availability >= 0.9
    assert autoscale_violations(service.autoscalers) == []
    assert retirement_violations(service.autoscalers) == []
    assert breaker_violations(service.proxy) == []
    assert rescache_violations(service.proxy) == []
