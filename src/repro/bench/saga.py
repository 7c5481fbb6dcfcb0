"""Saga bench: availability and atomicity of compensated B2B workflows.

The measurement the saga layer exists for, run on the loan-solvency
pipeline (CRUD → business-logic → orchestration) under the seeded fault
campaign: ≥1% network-wide message loss, orchestrator-host crashes
landed at commit-boundary decision points, and a b-peer coordinator
crash for good measure.  Per seed the bench reports:

* **availability** — the fraction of solvent submissions that still
  committed end-to-end through crashes and loss;
* **p99 latency** — simulated seconds from submission to terminal state
  over the committed sagas;
* **compensation correctness** — the saga atomicity audit
  (:func:`repro.check.invariants.saga_atomicity_violations`) over the
  durable saga log and every backend effect ledger: zero mixed-outcome
  sagas, zero double rollbacks, every insolvent submission compensated;
* **the baseline** — the identical run with compensation *disabled*,
  which must strand partial effects (registered-but-never-funded loans)
  — the measured cost of not having the saga layer.

``python -m repro saga`` writes the record to ``BENCH_saga.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..check.saga import (
    ORCHESTRATOR_HOST,
    SagaCheckScenario,
    SagaRunResult,
    loan_saga_context,
    run_saga_schedule,
)
from ..check.schedule import FaultOp, Schedule
from .harness import Progress, bench_record, format_assertions, quiet
from .stats import percentile

__all__ = ["run_saga_bench", "format_record"]

SEEDS = (7, 11, 42)
SAGAS_PER_SEED = 24
LOSS_RATE = 0.01


def _fault_schedule(decisions: int, label: str) -> Schedule:
    """Orchestrator crashes at commit boundaries + one coordinator kill.

    Decisions are aimed as fractions of the clean run's decision count,
    so the same recipe lands mid-workload at every seed; the
    ``pre-commit`` point pins the orchestrator crashes to the instant a
    b-peer is about to apply a side effect — the in-doubt window the
    write-ahead saga log exists for.
    """
    at = lambda fraction: max(1, int(decisions * fraction))  # noqa: E731
    return Schedule(
        ops=(
            FaultOp(
                at_decision=at(0.25),
                action="crash",
                target=ORCHESTRATOR_HOST,
                duration=3.0,
                point="pre-commit",
            ),
            FaultOp(at_decision=at(0.45), action="crash-coordinator", duration=3.0),
            FaultOp(
                at_decision=at(0.65),
                action="crash",
                target=ORCHESTRATOR_HOST,
                duration=3.0,
                point="pre-commit",
            ),
        ),
        label=label,
    )


def _seed_result(seed: int) -> Dict[str, Any]:
    """One seed's measurement: clean run, faulted run, stranded baseline."""
    scenario = SagaCheckScenario(seed=seed, sagas=SAGAS_PER_SEED, loss_rate=LOSS_RATE)
    clean = run_saga_schedule(scenario, Schedule(label=f"seed{seed}/clean"))
    schedule = _fault_schedule(clean.decisions, f"seed{seed}/faults")
    faulted = run_saga_schedule(scenario, schedule)
    baseline = run_saga_schedule(
        scenario.replace(compensation_enabled=False),
        schedule,
        halt_on_violation=False,
    )

    def digestible(run: SagaRunResult) -> Dict[str, Any]:
        solvent = [
            f"loan-{index:04d}"
            for index in range(SAGAS_PER_SEED)
            if not loan_saga_context(scenario, index)["insolvent"]
        ]
        insolvent = [
            f"loan-{index:04d}"
            for index in range(SAGAS_PER_SEED)
            if loan_saga_context(scenario, index)["insolvent"]
        ]
        solvent_submitted = [s for s in solvent if s in run.saga_states]
        committed = [
            s for s in solvent_submitted if run.saga_states[s] == "committed"
        ]
        insolvent_committed = [
            s
            for s in insolvent
            if run.saga_states.get(s) == "committed"
        ]
        latencies = [
            run.saga_elapsed[s] for s in committed if s in run.saga_elapsed
        ]
        return {
            "submitted": run.submitted,
            "solvent_submitted": len(solvent_submitted),
            "committed": run.committed,
            "compensated": run.compensated,
            "abandoned": run.abandoned,
            "dead_lettered": run.dead_lettered,
            "recoveries": run.recoveries,
            "availability": (
                len(committed) / len(solvent_submitted)
                if solvent_submitted
                else 0.0
            ),
            "p99_s": percentile(latencies, 99) if latencies else 0.0,
            "p50_s": percentile(latencies, 50) if latencies else 0.0,
            "insolvent_committed": len(insolvent_committed),
            "violations": list(run.violations),
            "effects_applied": run.effects_applied,
            "sim_time": run.sim_time,
        }

    stranded = [v for v in baseline.violations if "stranded" in v]
    return {
        "seed": seed,
        "schedule": schedule.describe(),
        "clean": digestible(clean),
        "faulted": digestible(faulted),
        "baseline": {
            **digestible(baseline),
            "stranded_violations": stranded,
        },
    }


def run_saga_bench(progress: Progress = quiet) -> Dict[str, Any]:
    """The saga measurement; returns the BENCH_saga record dict."""
    results: List[Dict[str, Any]] = []
    for seed in SEEDS:
        progress(f"seed {seed}: clean + faulted + no-compensation baseline ...")
        results.append(_seed_result(seed))

    assertions = {
        # The headline guarantee: with compensation on, the atomicity
        # audit is silent on every seed even under loss + crashes.
        "zero_mixed_outcome_sagas": all(
            not r["faulted"]["violations"] and not r["clean"]["violations"]
            for r in results
        ),
        # The counterfactual: without compensation the same schedules
        # strand partial effects — the defect the saga layer removes.
        "baseline_strands_partial_effects": all(
            r["baseline"]["stranded_violations"] for r in results
        ),
        # An insolvent applicant's loan must never survive to booking.
        "insolvent_never_committed": all(
            r["faulted"]["insolvent_committed"] == 0
            and r["clean"]["insolvent_committed"] == 0
            for r in results
        ),
        # Crash recovery actually ran (the schedules crash the
        # orchestrator twice; a run that never recovered proves nothing).
        "orchestrator_recovered": all(
            r["faulted"]["recoveries"] >= 1 for r in results
        ),
        # Solvent traffic stays mostly available through the campaign.
        "availability_floor": all(
            r["faulted"]["availability"] >= 0.5 for r in results
        ),
    }
    body = {
        "seeds": list(SEEDS),
        "sagas_per_seed": SAGAS_PER_SEED,
        "loss_rate": LOSS_RATE,
        "results": results,
    }
    return bench_record("saga", body, assertions)


def format_record(record: Dict[str, Any]) -> str:
    """Human-readable tables for one BENCH_saga record."""
    lines: List[str] = []
    lines.append(
        f"== saga bench (loss {record['loss_rate']:.1%}, "
        f"{record['sagas_per_seed']} sagas/seed) =="
    )
    lines.append(
        f"{'seed':>5} {'mode':>9} {'avail':>6} {'p50':>7} {'p99':>7} "
        f"{'cmt':>4} {'comp':>5} {'aband':>6} {'dlq':>4} {'rec':>4} {'viol':>5}"
    )
    for result in record["results"]:
        for mode in ("clean", "faulted", "baseline"):
            row = result[mode]
            lines.append(
                f"{result['seed']:>5} {mode:>9} "
                f"{row['availability']*100:>5.0f}% "
                f"{row['p50_s']:>6.2f}s {row['p99_s']:>6.2f}s "
                f"{row['committed']:>4} {row['compensated']:>5} "
                f"{row['abandoned']:>6} {row['dead_lettered']:>4} "
                f"{row['recoveries']:>4} {len(row['violations']):>5}"
            )
    lines.append("")
    for result in record["results"]:
        stranded = result["baseline"]["stranded_violations"]
        lines.append(
            f"seed {result['seed']}: no-saga baseline strands "
            f"{len(stranded)} partial effect(s)"
        )
    lines.append("")
    lines.append(format_assertions(record))
    return "\n".join(lines)
