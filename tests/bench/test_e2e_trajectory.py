"""BENCH_e2e.json is well-formed: the per-PR bench_e2e trajectory.

Every PR that touches the request path appends its parent/change suite
(``python3 bench_e2e/run.py --seed 42 --traced``) to ``BENCH_e2e.json``.
Nothing else reads the file, so a malformed append would go unnoticed
until someone needs the numbers; this checks the shape against the
manifest (``BENCHMARK.json``, read-only here).
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = json.loads((ROOT / "BENCH_e2e.json").read_text())

WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]
METRICS = [metric["name"] for metric in MANIFEST["end_to_end"]]
RECORDS = TRAJECTORY["records"]


def _number(value):
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def test_schema_and_ascending_prs():
    assert TRAJECTORY["schema"] == "bench_e2e-trajectory/1"
    assert RECORDS, "trajectory holds no record"
    prs = [record["pr"] for record in RECORDS]
    assert all(isinstance(pr, int) for pr in prs)
    assert all(a < b for a, b in zip(prs, prs[1:])), f"pr not ascending: {prs}"


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("record", RECORDS, ids=lambda record: f"pr{record['pr']}")
def test_each_side_holds_every_workload_and_metric(record, side):
    suite = record[side]
    assert suite["schema"] == "bench_e2e/1"
    assert suite["smoke"] is False
    for workload in WORKLOADS:
        assert workload in suite["workloads"], f"{side} lacks workload {workload}"
        end_to_end = suite["workloads"][workload]["end_to_end"]
        for metric in METRICS:
            assert metric in end_to_end, f"{side}/{workload} lacks {metric}"
            cell = end_to_end[metric]
            assert _number(cell["median"]), (workload, metric, cell)
            samples = cell["samples"]
            assert samples and all(_number(sample) for sample in samples)
            assert min(samples) <= cell["median"] <= max(samples)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: f"pr{record['pr']}")
def test_a_claim_names_a_real_metric_and_workload(record):
    assert record["title"]
    claim = record["claim"]
    if claim is None:
        return
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in METRICS
    assert claim["pairs"], "a claim rests on parent/change pairs"
    for pair in claim["pairs"]:
        assert sorted(pair["order"]) == ["change", "parent"]
        for side in ("parent", "change"):
            assert _number(pair[side][claim["metric"]]), pair
