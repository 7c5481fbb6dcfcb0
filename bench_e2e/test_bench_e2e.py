"""Checks on the benchmark itself (not part of tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest bench_e2e -q
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import compare
from layers import LayerTracer
from measure import SIZED_FOR_SECONDS, window_slices
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SIM_METRICS = [name for name, _, _, _, clock, _ in END_TO_END if clock == "sim"]


# -- the manifest -------------------------------------------------------------------------


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_matches_the_catalogue():
    manifest = _manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["bench_e2e"]
    assert manifest["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound, _, _ in END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _, _ in PER_LAYER
    ]
    assert manifest["workloads"] == [
        {"name": name, "why": workload.why} for name, workload in WORKLOADS.items()
    ]


def test_manifest_is_inside_the_contract():
    manifest = _manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    metrics = manifest["end_to_end"] + manifest["per_layer"]
    assert all(UNIT.fullmatch(entry["unit"]) for entry in metrics)
    assert all(entry["better"] in ("lower", "higher") for entry in metrics)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert all(0 < entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"]
               for entry in manifest["workloads"])
    setup = [entry for entry in manifest["end_to_end"] if entry["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(entry["bound"] for entry in manifest["end_to_end"])}
    ]
    assert isinstance(manifest["run_seconds"], int)
    assert manifest["run_seconds"] == SIZED_FOR_SECONDS
    # The driver's 4 + 22 × workloads runs, set-ups, soak and audit
    # included, against its 3 420 s: whole-run seconds as measured on the
    # reference box (Workload.run_budget_s), with a quarter in hand.
    rounds = 22 + 4 / len(WORKLOADS)
    whole_runs = sum(workload.run_budget_s for workload in WORKLOADS.values())
    assert rounds * whole_runs < 0.75 * 3420


# -- the layer tracer, on a hand-built generator chain ---------------------------------------

_FAKE_LAYERS = {
    "fake/alpha.py": "alpha",
    "fake/beta.py": "beta",
    "fake/gamma.py": "gamma",
}
_ALPHA = """
def alpha_process(inner):
    total = 0
    for _ in range(200):
        total += 1
    yield from inner
"""
_BETA = """
def beta_process(inner):
    yield from inner
"""
_GAMMA = """
import json
def gamma_process(payload, rounds):
    for _ in range(rounds):
        # stdlib (json's Python and C code) must be charged to gamma.
        for _ in range(40):
            json.loads(json.dumps(payload))
        yield
"""


def _fake(source: str, filename: str):
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def test_tracer_on_a_generator_chain_across_three_layers():
    alpha = _fake(_ALPHA, "fake/alpha.py")["alpha_process"]
    beta = _fake(_BETA, "fake/beta.py")["beta_process"]
    gamma = _fake(_GAMMA, "fake/gamma.py")["gamma_process"]
    rounds = 300
    payload = {"rows": [{"id": index, "name": "x" * 20} for index in range(30)]}
    process = alpha(beta(gamma(payload, rounds)))

    tracer = LayerTracer(_FAKE_LAYERS.get, layers=("alpha", "beta", "gamma"))
    started = time.perf_counter_ns()
    tracer.start()
    for _ in process:
        pass
    tracer.stop()
    elapsed = time.perf_counter_ns() - started

    totals = tracer.totals()
    assert sum(layer["self_ns"] for layer in totals.values()) == pytest.approx(
        elapsed, rel=0.05
    )
    # One resume per round, plus the final one that ends the chain; each
    # resume crosses harness → alpha → beta → gamma exactly once.
    for layer in ("alpha", "beta", "gamma"):
        assert totals[layer]["entries"] == rounds + 1
    # json's own Python frames (encoder/decoder) did the work, and it is
    # all on gamma's account: nothing leaks to the harness or the others.
    assert totals["gamma"]["self_ns"] > 0.9 * elapsed
    assert totals["gamma"]["self_ns"] > 20 * totals["beta"]["self_ns"]


_DELTA = """
def delta_process():
    while True:
        try:
            yield
        except KeyError:
            # Handler work, stdlib included, is delta's.
            sorted(range(2000), reverse=True)
"""


def test_tracer_follows_exceptions_thrown_into_a_generator_chain():
    """``generator.throw()`` is how simnet delivers timeouts and faults."""
    alpha = _fake(_ALPHA, "fake/alpha.py")["alpha_process"]
    beta = _fake(_BETA, "fake/beta.py")["beta_process"]
    delta = _fake(_DELTA, "fake/delta.py")["delta_process"]
    layers = {**_FAKE_LAYERS, "fake/delta.py": "delta"}
    rounds = 200
    process = alpha(beta(delta()))

    tracer = LayerTracer(layers.get, layers=("alpha", "beta", "delta"))
    started = time.perf_counter_ns()
    tracer.start()
    next(process)
    for _ in range(rounds):
        # Caught by the innermost generator, which yields again: control
        # enters delta alone, not the generators it is delegated from.
        process.throw(KeyError())
        # An ordinary resume walks the whole chain.
        process.send(None)
    # Caught by nobody: unwinds delta, then beta, then alpha, one entry each.
    with pytest.raises(ValueError):
        process.throw(ValueError())
    tracer.stop()
    elapsed = time.perf_counter_ns() - started

    totals = tracer.totals()
    assert tracer.unpaired_returns == 0
    assert totals["alpha"]["entries"] == rounds + 2
    assert totals["beta"]["entries"] == rounds + 2
    assert totals["delta"]["entries"] == 2 * rounds + 2
    assert sum(layer["self_ns"] for layer in totals.values()) == pytest.approx(
        elapsed, rel=0.05
    )
    assert totals["delta"]["self_ns"] > 0.8 * elapsed


def test_tracer_ignores_a_return_it_saw_no_call_for():
    gamma = _fake(_GAMMA, "fake/gamma.py")["gamma_process"]
    tracer = LayerTracer(_FAKE_LAYERS.get, layers=("alpha", "beta", "gamma"))

    def started_deeper():
        tracer.start()

    # This frame was entered before the hook went in, so its return has
    # no call on the stack: counted, and nothing is popped for it.
    started_deeper()
    for _ in gamma({"k": 1}, 5):
        pass
    tracer.stop()
    assert tracer.unpaired_returns == 1
    assert tracer.totals()["gamma"]["entries"] == 6


def test_tracer_keeps_spans_only_for_the_sampled_request():
    gamma = _fake(_GAMMA, "fake/gamma.py")["gamma_process"]
    process = gamma({"k": 1}, 3)

    env = SimpleNamespace(events_processed=7, now=2.0)
    system = SimpleNamespace(env=env, obs=SimpleNamespace(recent_traces=lambda n: []))
    tracer = LayerTracer(_FAKE_LAYERS.get, layers=("alpha", "beta", "gamma"))
    tracer.start()
    next(process)
    tracer.begin_request(11, env)
    next(process)
    tracer.end_request(11, system, started=1.0)
    next(process)
    tracer.stop()
    assert [(span["request"], span["event"], span["function"])
            for span in tracer.spans] == [(11, 7, "gamma_process")]
    assert tracer.spans[0]["end_ns"] >= tracer.spans[0]["start_ns"]


# -- compare.py ---------------------------------------------------------------------------------


def _stats(samples):
    ordered = sorted(samples)
    return {"median": ordered[len(ordered) // 2], "samples": samples}


@pytest.mark.parametrize(
    "parent, change, better, status",
    [
        ([1.00, 1.01, 0.99], [1.02, 1.03, 1.01], "lower", "ok"),
        ([1.00, 1.01, 0.99], [1.20, 1.21, 1.19], "lower", "regressed"),
        ([1.00, 1.01, 0.99], [0.80, 0.81, 0.79], "higher", "regressed"),
        ([1.00, 1.30, 0.80], [1.20, 0.90, 1.40], "lower", "unresolved"),
        # Wide spread, but every run of the change is better: resolved.
        ([1.00, 1.30, 0.90], [0.50, 0.60, 0.55], "lower", "ok"),
    ],
)
def test_compare_judges_one_metric(parent, change, better, status):
    assert compare.judge(_stats(parent), _stats(change), better, 0.10)[0] == status


def test_compare_fails_a_record_that_lost_a_workload():
    stats = {"median": 1.0, "samples": [1.0, 1.0, 1.0]}
    entry = {
        "end_to_end": {name: stats for name, *_ in END_TO_END},
        "per_layer_untraced": {"run.fail_share": 0.0},
    }
    both = {"workloads": {"read_seed": entry, "saga_loan": entry}}
    one = {"workloads": {"read_seed": entry}}
    assert [row[-1] for row in compare.compare(both, both)] == ["ok"] * 22
    for a, b in ((both, one), (one, both)):
        rows = compare.compare(a, b)
        assert [row[0] for row in rows if row[-1] == "regressed"] == ["saga_loan"]


# -- smoke runs of the real thing -------------------------------------------------------------

_runs = {}


def _smoke(workload: str, seed: int, trace: int, repeat: int = 0):
    key = (workload, seed, trace, repeat)
    if key not in _runs:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(len(_runs))},
        )
        assert completed.returncode == 0
        lines = completed.stdout.strip().splitlines()
        _runs[key] = (json.loads(lines[-1]),
                      json.loads(lines[-2].removeprefix("detail: ")))
    return _runs[key]


def test_the_window_is_a_whole_number_of_slices_fixed_by_seconds():
    for workload in WORKLOADS.values():
        full = window_slices(workload, SIZED_FOR_SECONDS)
        assert full * workload.slice_sim == workload.window_sim
        assert window_slices(workload, 2 * SIZED_FOR_SECONDS) == 2 * full
        assert window_slices(workload, 0.01) == workload.min_slices


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_metric_and_is_correct(workload):
    for trace, catalogue in ((0, END_TO_END), (1, PER_LAYER)):
        result, _ = _smoke(workload, 42, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [name for name, *_ in catalogue]
        for (name, unit, *_), metric in zip(catalogue, result["metrics"].values()):
            assert metric["unit"] == unit
            assert math.isfinite(metric["value"]), name
    untraced, _ = _smoke(workload, 42, 0)
    assert all(metric["value"] > 0 for metric in untraced["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_sim_metrics_repeat_for_a_seed_and_differ_across_seeds(workload):
    _, first = _smoke(workload, 42, 0)
    _, again = _smoke(workload, 42, 0, repeat=1)
    _, other = _smoke(workload, 43, 0)
    _, traced = _smoke(workload, 42, 1)
    for name in SIM_METRICS:
        assert again["metrics"][name] == first["metrics"][name], name
        assert traced["metrics"][name] == first["metrics"][name], name
    assert any(other["metrics"][name] != first["metrics"][name] for name in SIM_METRICS)
    assert traced["info"]["requests"] == first["info"]["requests"]


def test_layers_separate_the_workloads():
    _, read = _smoke("read_seed", 42, 1)
    _, saga = _smoke("saga_loan", 42, 1)
    _, ladder = _smoke("ladder_full", 42, 1)
    read, saga, ladder = read["metrics"], saga["metrics"], ladder["metrics"]
    for layer in ("core.rescache", "core.sharding", "core.breaker", "workflow"):
        assert read[f"{layer}.entries_per_req"] == 0
        assert ladder[f"{layer}.entries_per_req"] > 0 or layer == "workflow"
    # No SOAP hop: all that is left is the SoapFault an insolvent
    # applicant's ReserveFunds raises (every 4th saga).
    assert saga["soap.entries_per_req"] <= 0.3 < read["soap.entries_per_req"]
    assert saga["workflow.self_us_per_req"] > 0
    assert read["election.elections"] == 0
    assert read["core.journal.entries"] == 4096  # past capacity even in smoke


def test_layer_self_times_account_for_the_traced_region():
    _, detail = _smoke("read_seed", 42, 1)
    metrics, info = detail["metrics"], detail["info"]
    total_us = sum(value for name, value in metrics.items()
                   if name.endswith(".self_us_per_req"))
    assert total_us / 1000.0 == pytest.approx(info["traced_wall_ms_per_req"], rel=0.05)
    # The hook reads the wall clock; on a core the run has to itself the
    # same sum is the traced CPU cost too (looser: a shared box steals).
    assert total_us / 1000.0 == pytest.approx(info["traced_cpu_ms_per_req"], rel=0.25)
    assert os.path.exists(os.path.join(HERE, "out", "trace-read_seed.json"))
