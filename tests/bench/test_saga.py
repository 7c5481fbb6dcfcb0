"""Tests for the saga benchmark record."""

import json

from repro.bench.harness import check_record
from repro.bench.saga import format_record, run_saga_bench


def test_smoke_record_passes_all_assertions():
    record = run_saga_bench(scale="smoke")
    assert record["schema"] == "repro-saga/1"
    assert record["ok"], record["assertions"]
    assert check_record(record, "saga") == []
    assert record["seeds"] == [7]
    (result,) = record["results"]
    # Compensation on: the atomicity audit is silent under faults...
    assert result["faulted"]["violations"] == []
    assert result["faulted"]["recoveries"] >= 1
    # ...and off: the same schedule strands partial effects.
    assert result["baseline"]["stranded_violations"]
    json.dumps(record)  # the record must be JSON-serializable as-is


def test_check_record_reports_failed_assertions():
    record = {"assertions": {"good": True, "bad": False}}
    assert check_record(record, "saga") == ["saga assertion failed: bad"]


def test_format_record_renders_tables():
    record = run_saga_bench(scale="smoke")
    text = format_record(record)
    assert "saga bench" in text
    assert "faulted" in text and "baseline" in text
    assert "assertions:" in text
