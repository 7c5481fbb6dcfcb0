"""Property-based test: saga atomicity under random crash/partition/loss.

For any random fault schedule — orchestrator crashes (including at
commit boundaries), coordinator crashes and partitions, dropped
messages, network-wide loss — every saga must end all-committed or
all-compensated, with no double compensation and no stranded partial
effects, as audited over the durable saga log and every backend's
``Database.effect_log`` by
:func:`repro.check.invariants.saga_atomicity_violations`, which
:func:`run_saga_schedule` re-checks after every slice of the run with
every other invariant of the :class:`~repro.check.InvariantRegistry`.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import FaultOp, SagaCheckScenario, Schedule, run_saga_schedule
from repro.check.saga import ORCHESTRATOR_HOST, loan_saga_context

TERMINAL = {"committed", "compensated", "dead-lettered"}

@st.composite
def fault_ops(draw):
    # ``crash`` needs an explicit victim — aim it at the orchestrator
    # host, the crash the saga log exists to survive; ``drop`` must
    # target a network decision point.
    action = draw(st.sampled_from(
        ["crash", "crash-coordinator", "partition-coordinator", "drop"]
    ))
    return FaultOp(
        at_decision=draw(st.integers(min_value=1, max_value=600)),
        action=action,
        target=ORCHESTRATOR_HOST if action == "crash" else None,
        duration=draw(st.floats(min_value=1.0, max_value=4.0)),
        point="pre-send" if action == "drop" else "any",
    )

schedules = st.builds(
    Schedule,
    ops=st.lists(fault_ops(), max_size=3).map(tuple),
    label=st.just("prop"),
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=40),
    loss=st.sampled_from([0.0, 0.01, 0.03]),
    schedule=schedules,
)
def test_sagas_are_atomic_under_random_faults(seed, loss, schedule):
    scenario = SagaCheckScenario(
        seed=seed, sagas=5, cooldown=8.0, loss_rate=loss
    )
    result = run_saga_schedule(scenario, schedule)
    # The slice-by-slice audit: the registry's invariants (election
    # safety, epoch monotonicity, no stale result, exactly-once over every
    # backend effect ledger) plus atomicity (all committed or every
    # applied step compensated, no double rollback, no stranded effects);
    # after cooldown, convergence and every saga ended.
    assert result.violations == [], (seed, loss, schedule.describe())
    # Every submitted saga reached a terminal state once faults drained
    # (dead-lettered is terminal: parked in the DLQ, not stranded).
    for saga_id, state in result.saga_states.items():
        assert state in TERMINAL, (saga_id, state)
    # Business-level safety rides along: an insolvent applicant's saga
    # can never commit, whatever the schedule did.
    for index in range(scenario.sagas):
        if loan_saga_context(scenario, index)["insolvent"]:
            assert result.saga_states.get(f"loan-{index:04d}") != "committed"
