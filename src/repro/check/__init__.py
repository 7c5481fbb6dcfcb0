"""Deterministic schedule exploration: many legal interleavings, one seed.

The simulator is deterministic per root seed, which makes every benchmark
reproducible — and every run *one* sample from the space of legal event
interleavings.  Protocol bugs (split-brain windows, stale deliveries,
double executions) live in the orderings a single FIFO run never visits.
This package explores that space without giving up determinism:

* :mod:`~repro.check.tiebreak` — pluggable same-timestamp orderings
  (seeded shuffle, adversarial delay of a tagged process) installed as
  the :class:`~repro.simnet.environment.TiebreakPolicy` of a run;
* :mod:`~repro.check.schedule` — fault schedules indexed by *decision
  point* (the N-th protocol decision), not wall-clock time, so a fault
  lands on the same protocol step across perturbed runs;
* :mod:`~repro.check.faults` — the injector that fires those schedules
  from the network's pre-send/pre-deliver hooks and the b-peers'
  pre-commit hook;
* :mod:`~repro.check.invariants` — the safety checkers (election safety,
  epoch monotonicity, no stale result, exactly-once, queue bounds, the
  adaptive-capacity checks, saga atomicity, convergence), composed in one
  :class:`~repro.check.invariants.InvariantRegistry` that audits every
  checked run — after every slice of an explored one;
* :mod:`~repro.check.explorer` — the one engine: the loop that samples
  schedules, shrinks a violating one to a minimal counterexample (ddmin
  over fault ops), dumps a replayable repro file, and re-executes it
  byte-identically — for whichever scenario it is handed;
* :mod:`~repro.check.saga` — the engine's second scenario: loan sagas
  behind a crashable orchestrator, audited by the same registry handed
  the saga log.

``python -m repro check`` is the command-line entry point (``--saga``
picks the scenario; ``--replay FILE`` reads it off the file).
"""

from .explorer import (
    CheckScenario,
    ExploreReport,
    RunResult,
    ScheduleExplorer,
    load_repro,
    replay_repro,
    run_schedule,
    saga_self_test,
    save_repro,
    self_test,
    shrink_schedule,
)
from .faults import DecisionFaultInjector
from .invariants import (
    InvariantRegistry,
    announced_epoch_violations,
    convergence_violations,
    exactly_once_violations,
    queue_bound_violations,
    saga_atomicity_violations,
    saga_effects,
    stale_result_violations,
)
from .saga import (
    SagaCheckScenario,
    SagaRunResult,
    run_dlq_demo,
    run_saga_schedule,
)
from .schedule import FaultOp, Schedule, random_schedule
from .tiebreak import (
    AdversarialDelayTiebreak,
    FifoTiebreak,
    SeededShuffleTiebreak,
    build_tiebreak,
)

__all__ = [
    "AdversarialDelayTiebreak",
    "CheckScenario",
    "DecisionFaultInjector",
    "ExploreReport",
    "FaultOp",
    "FifoTiebreak",
    "InvariantRegistry",
    "RunResult",
    "SagaCheckScenario",
    "SagaRunResult",
    "Schedule",
    "ScheduleExplorer",
    "SeededShuffleTiebreak",
    "announced_epoch_violations",
    "build_tiebreak",
    "convergence_violations",
    "exactly_once_violations",
    "load_repro",
    "queue_bound_violations",
    "random_schedule",
    "replay_repro",
    "run_dlq_demo",
    "run_saga_schedule",
    "run_schedule",
    "saga_atomicity_violations",
    "saga_effects",
    "saga_self_test",
    "save_repro",
    "self_test",
    "shrink_schedule",
    "stale_result_violations",
]
