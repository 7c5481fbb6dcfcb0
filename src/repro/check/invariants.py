"""Protocol safety invariants, as reusable audit functions + a registry.

Each function inspects live system state and returns human-readable
violation strings (empty list = invariant holds).  They are composed in
one place, the stateful :class:`InvariantRegistry`, which every checked
run audits through: the schedule checker's two scenarios **after every
slice**, the dead-letter-queue demo, the fault campaign
(:mod:`repro.bench.campaign`) and the capacity bench's diurnal audit
(:mod:`repro.bench.capacity`) once after the run.  The registry also
tracks cursors for the invariants that are about *trajectories*
(per-peer accepted epochs must never regress) rather than final states.

The invariants:

* **election safety** — every announced epoch is owned by its announcer,
  each peer's announced epochs strictly increase, and no full epoch is
  announced by two peers (at most one coordinator per epoch);
* **epoch monotonicity** — the epoch a peer has *accepted* never
  regresses (a regression means a stale coordinator re-captured it);
* **no stale result** — the proxy never delivers a result under an epoch
  lower than one it already delivered for the same group;
* **exactly-once** — no invocation id is applied more than once across
  all backend effect ledgers (journal-enabled runs only);
* **queue bound** — no member's admission ledger exceeds the configured
  bound;
* **autoscale / retirement / breaker / result cache** — the adaptive
  capacity invariants (vacuous unless the deployment enables them);
* **saga atomicity** — every saga all committed or every applied step
  compensated, never a double rollback (runs that hand the registry a
  saga log; after cooldown every saga must also have ended);
* **convergence** — after cooldown, at most one live peer claims
  coordination per group (final check, meaningless mid-fault); a claim
  younger than a handover's length is a handover, not a split brain;
* **eventual rebind** — a post-cooldown probe completes within its
  deadline budget (checked by the explorer, which owns the probe).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..election.epoch import Epoch

__all__ = [
    "announced_epoch_violations",
    "stale_result_violations",
    "effect_totals",
    "exactly_once_violations",
    "queue_bound_violations",
    "convergence_violations",
    "saga_effects",
    "saga_atomicity_violations",
    "autoscale_violations",
    "retirement_violations",
    "breaker_violations",
    "rescache_violations",
    "InvariantRegistry",
    "all_peers",
]


# -- the audit functions ---------------------------------------------------------------


def announced_epoch_violations(peers) -> List[str]:
    """Election safety over the peers' announcement logs."""
    violations: List[str] = []
    seen: Dict[Tuple[int, str], str] = {}
    for peer in peers:
        elector = peer.coordinator_mgr.elector
        previous = None
        for when, epoch in elector.announced:
            if epoch.owner_hex != peer.peer_id.uuid_hex:
                violations.append(
                    f"{peer.name}: announced {epoch} it does not own "
                    f"(t={when:.3f})"
                )
            if previous is not None and not previous < epoch:
                violations.append(
                    f"{peer.name}: announced {epoch} after {previous} "
                    f"(t={when:.3f}, not increasing)"
                )
            previous = epoch
            holder = seen.get(epoch.key())
            if holder is not None and holder != peer.name:
                violations.append(
                    f"epoch {epoch} announced by both {holder} and {peer.name}"
                )
            seen[epoch.key()] = peer.name
    return violations


def stale_result_violations(proxy) -> List[str]:
    """Delivered-result epochs must be monotone per group."""
    violations: List[str] = []
    high: Dict[object, Epoch] = {}
    for group_id, epoch in proxy.bindings.result_epoch_log:
        last = high.get(group_id)
        if last is not None and epoch < last:
            violations.append(
                f"proxy delivered result under {epoch} after {last} "
                f"(group {group_id})"
            )
        if last is None or epoch > last:
            high[group_id] = epoch
    return violations


def effect_totals(peers) -> Counter:
    """invocation id -> application count over all distinct backends."""
    totals: Counter = Counter()
    seen_backends = set()
    for peer in peers:
        backend = peer.implementation.backend
        if id(backend) in seen_backends:
            continue
        seen_backends.add(id(backend))
        totals.update(backend.effect_counts())
    return totals


def exactly_once_violations(peers) -> List[str]:
    """No invocation id applied more than once, ledger-wide."""
    return [
        f"invocation {invocation_id} applied {count} times "
        f"(exactly-once violated)"
        for invocation_id, count in sorted(effect_totals(peers).items())
        if count > 1
    ]


def queue_bound_violations(peers, bound: Optional[int]) -> List[str]:
    """No admission ledger entry may exceed the configured queue bound."""
    if bound is None:
        return []
    violations: List[str] = []
    for peer in peers:
        for member, state in peer._member_load.items():
            if state.outstanding > bound:
                violations.append(
                    f"{peer.name}: member {member} has {state.outstanding} "
                    f"outstanding (> bound {bound})"
                )
    return violations


def convergence_violations(peers, group: str = "") -> List[str]:
    """At most one live self-believed coordinator (post-cooldown only).

    Two claims are a split brain once both have stood for a handover's
    length; a younger claim is a handover in progress.  The peer that
    wins an election drops the coordinator it suspected from its view,
    so the deposed peer hears of the fresher term only when its next
    re-affirmation (:meth:`~repro.election.bully.BullyElector.reaffirm`)
    is rebuffed, and if it outranks its successor it must then win an
    election of its own.  Under message loss the failure detector can
    start such a handover at any instant, cooldown or not.

    ``group`` labels the violation for sharded deployments, where the
    check runs once per federated shard group (each group legitimately
    has its own coordinator).  Left empty for single-group audits so the
    message — and therefore existing repro-file digests — is unchanged.
    """
    claimants = [
        peer
        for peer in peers
        if peer.node.up and peer.coordinator_mgr.is_coordinator
    ]
    if len(claimants) < 2:
        return []
    stood = 0
    for peer in claimants:
        # A handover lasts up to one re-affirmation interval plus one
        # election (its answer and coordinator timeouts).
        manager = peer.coordinator_mgr
        elector = manager.elector
        handover = (
            manager.watchdog_interval + elector.answer_timeout + elector.coordinator_timeout
        )
        since = max(
            (when for when, epoch in elector.announced if epoch == manager.epoch),
            default=float("-inf"),
        )
        stood += peer.node.env.now - since >= handover
    if stood < 2:
        return []
    where = f" in group {group}" if group else ""
    return [
        f"{len(claimants)} live peers claim coordination "
        f"after cooldown{where}: {[peer.name for peer in claimants]}"
    ]


# -- adaptive capacity -----------------------------------------------------------------


def autoscale_violations(autoscalers) -> List[str]:
    """Replica count within [min, max]; unforced events respect cooldown.

    Checker-forced scale ops (:class:`FaultOp` ``scale-up``/``scale-down``)
    legitimately bypass the cooldown, so only controller-decided events
    count toward the quiescence bound (≤1 per cooldown window).
    """
    violations: List[str] = []
    for controller in autoscalers:
        spec = controller.spec
        active = len(controller.active_peers())
        if not spec.min_replicas <= active <= spec.max_replicas:
            violations.append(
                f"group {controller.group.name}: {active} active replicas "
                f"outside [{spec.min_replicas}, {spec.max_replicas}]"
            )
        previous = None
        for event in controller.events:
            if event.forced:
                continue
            if previous is not None and event.at - previous < spec.cooldown - 1e-9:
                violations.append(
                    f"group {controller.group.name}: scale events at "
                    f"{previous:.3f} and {event.at:.3f} violate the "
                    f"{spec.cooldown:.1f}s cooldown (flapping)"
                )
            previous = event.at
    return violations


def retirement_violations(autoscalers) -> List[str]:
    """No retirement may strand queued, in-flight, or parked work."""
    violations: List[str] = []
    for controller in autoscalers:
        for record in controller.retirements:
            if record.queued_at_exit or record.parked_at_exit or not record.drained:
                violations.append(
                    f"group {controller.group.name}: retired {record.peer} at "
                    f"t={record.at:.3f} with {record.queued_at_exit} queued and "
                    f"{record.parked_at_exit} parked requests stranded"
                )
    return violations


def breaker_violations(proxy) -> List[str]:
    """The breaker never rejects a provably healthy service.

    Auditable form: every closed→open trip must be justified by the
    evidence the spec demands (≥ ``min_calls`` samples at ≥ the failure
    threshold) — a half-open→open re-trip is justified by its failed
    probe — and every rejection must fall inside a not-closed interval.
    """
    violations: List[str] = []
    for breaker in getattr(proxy, "_breakers", {}).values():
        spec = breaker.spec
        for tr in breaker.transitions:
            if tr.target != "open" or tr.source != "closed":
                continue
            rate = tr.failures / tr.calls if tr.calls else 0.0
            if tr.calls < spec.min_calls or rate < spec.failure_threshold:
                violations.append(
                    f"breaker {breaker.scope}: tripped open at t={tr.at:.3f} "
                    f"on {tr.failures}/{tr.calls} failures — below the "
                    f"min_calls={spec.min_calls} / "
                    f"threshold={spec.failure_threshold} evidence bar"
                )
        intervals = breaker.open_intervals(horizon=float("inf"))
        for rejected_at in breaker.rejections:
            if not any(start <= rejected_at <= end for start, end in intervals):
                violations.append(
                    f"breaker {breaker.scope}: rejected a call at "
                    f"t={rejected_at:.3f} while closed (service healthy)"
                )
    return violations


def rescache_violations(proxy) -> List[str]:
    """The cache never serves a fenced-epoch or staleness-bound-busting value."""
    cache = getattr(proxy, "result_cache", None)
    if cache is None:
        return []
    violations: List[str] = []
    if cache.stale_epoch_serves:
        violations.append(
            f"result cache served {cache.stale_epoch_serves} values from a "
            f"fenced epoch"
        )
    bound = cache.spec.staleness_bound
    for serve in cache.serves:
        if serve.age > bound + 1e-9:
            violations.append(
                f"result cache served {serve.key} aged {serve.age:.3f}s at "
                f"t={serve.at:.3f} (> staleness bound {bound:.1f}s)"
            )
        if (
            serve.fence_epoch is not None
            and serve.entry_epoch is not None
            and serve.entry_epoch < serve.fence_epoch
        ):
            violations.append(
                f"result cache served {serve.key} under epoch "
                f"{serve.entry_epoch} at t={serve.at:.3f} despite fence "
                f"{serve.fence_epoch}"
            )
    return violations


# -- saga atomicity --------------------------------------------------------------------


def saga_effects(peers) -> Tuple[Dict[str, Counter], Dict[str, Counter]]:
    """Parse saga-structured invocation ids out of the effect ledgers.

    The orchestrator mints ``saga:<saga_id>:<step>:<fwd|comp>`` keys (see
    :func:`repro.workflow.saga.saga_invocation_id`), so backend effect
    logs carry saga membership.  Returns two maps, forward and
    compensation: ``saga_id -> Counter(step -> application count)``.
    """
    forward: Dict[str, Counter] = {}
    compensation: Dict[str, Counter] = {}
    for invocation_id, count in effect_totals(peers).items():
        if not invocation_id.startswith("saga:"):
            continue
        try:
            saga_id, step, phase = invocation_id[len("saga:"):].rsplit(":", 2)
        except ValueError:
            continue
        if phase == "fwd":
            forward.setdefault(saga_id, Counter())[step] += count
        elif phase == "comp":
            compensation.setdefault(saga_id, Counter())[step] += count
    return forward, compensation


def saga_atomicity_violations(saga_log, peers, final: bool = False) -> List[str]:
    """Every saga is atomic: all committed, or every applied step undone.

    Audits the durable saga log against the backend effect ledgers
    (``saga_log`` duck-types :class:`repro.workflow.saga.SagaLog`; state
    strings are compared literally to avoid a circular import with the
    campaign).  Always checked:

    * no compensation applied more than once (double rollback);
    * a ``committed`` saga has no compensation effects;
    * a ``compensated`` saga has every applied forward step compensated;
    * an ``abandoned`` saga (compensation disabled) with a strict subset
      of its mutating steps applied and not fully compensated stranded
      partial effects — the defect compensation exists to prevent.

    With ``final=True`` (post-cooldown only), a non-terminal saga is
    itself a violation: the orchestrator should have driven it to a
    terminal state once faults drained.  ``dead-lettered`` sagas are
    excused — their incompleteness is explicitly parked in the DLQ.
    """
    violations: List[str] = []
    forward, compensation = saga_effects(peers)
    terminal = ("committed", "compensated", "abandoned", "dead-lettered")
    for record in saga_log.records():
        saga_id = record.saga_id
        applied = forward.get(saga_id, Counter())
        undone = compensation.get(saga_id, Counter())
        for step, count in sorted(undone.items()):
            if count > 1:
                violations.append(
                    f"saga {saga_id}: compensation of {step} applied "
                    f"{count} times (double rollback)"
                )
        if record.state == "committed":
            if undone:
                violations.append(
                    f"saga {saga_id}: committed but steps "
                    f"{sorted(undone)} were compensated"
                )
        elif record.state == "compensated":
            stranded = sorted(set(applied) - set(undone))
            if stranded:
                violations.append(
                    f"saga {saga_id}: compensated but applied steps "
                    f"{stranded} have no compensation effect"
                )
        elif record.state == "abandoned":
            mutating = {
                step.name
                for step in record.steps
                if getattr(step, "mutating", True)
            }
            stranded = sorted(set(applied) - set(undone))
            if stranded and set(applied) != mutating:
                violations.append(
                    f"saga {saga_id}: abandoned with partial effects "
                    f"stranded (applied {sorted(applied)}, "
                    f"never compensated {stranded})"
                )
        if final and record.state not in terminal:
            violations.append(
                f"saga {saga_id}: still {record.state} after cooldown "
                f"(applied {sorted(applied)}, compensated {sorted(undone)})"
            )
    return violations


# -- the stateful registry ----------------------------------------------------------


class InvariantRegistry:
    """Step + final invariant evaluation for one checked run's services.

    The one place invariants are composed (DESIGN.md §6.22).  An instance
    is per-run: it carries the accepted-epoch cursors that turn per-peer
    epoch monotonicity from a final-state property into a trajectory
    property (a regression that later self-corrects would be invisible to
    an end-of-run audit).  Handed a ``saga_log``, it appends saga
    atomicity after its own checks.
    """

    def __init__(self, queue_bound: Optional[int] = None, saga_log=None):
        self.queue_bound = queue_bound
        self.saga_log = saga_log
        self._accepted: Dict[str, Epoch] = {}

    def check_step(self, services: Sequence) -> List[str]:
        """Invariants that must hold at every instant of the run.

        Audits every peer of every group of every service (epoch keys are
        owner-qualified, so cross-group announcements can never collide)
        and every service's proxy.
        """
        peers = all_peers(services)
        proxies = [service.proxy for service in services]
        # Vacuous unless a service has autoscaling, a breaker or a cache.
        autoscalers = [c for service in services for c in service.autoscalers]
        violations = announced_epoch_violations(peers)
        violations.extend(self._accepted_epoch_step(peers))
        for proxy in proxies:
            violations.extend(stale_result_violations(proxy))
        violations.extend(exactly_once_violations(peers))
        violations.extend(queue_bound_violations(peers, self.queue_bound))
        violations.extend(autoscale_violations(autoscalers))
        violations.extend(retirement_violations(autoscalers))
        for proxy in proxies:
            violations.extend(breaker_violations(proxy))
            violations.extend(rescache_violations(proxy))
        if self.saga_log is not None:
            violations.extend(saga_atomicity_violations(self.saga_log, peers))
        return violations

    def check_final(self, services: Sequence) -> List[str]:
        """Invariants that only make sense once the faults have drained.

        Convergence is per b-peer group: each group elects its own
        coordinator, so "at most one claimant" applies within each group;
        a violation names its group unless the run has only one.  With a
        saga log, every saga must also have ended.
        """
        groups = [group for service in services for group in service.all_groups()]
        labelled = len(groups) > 1
        violations: List[str] = []
        for group in groups:
            violations.extend(
                convergence_violations(group.peers, group=group.name if labelled else "")
            )
        if self.saga_log is not None:
            violations.extend(
                saga_atomicity_violations(self.saga_log, all_peers(services), final=True)
            )
        return violations

    def audit(self, services: Sequence) -> List[str]:
        """One post-run audit: the step checks, then the final ones if clean.

        The order the slice loops follow at their end; the final checks
        presume the step ones held (with a saga log, a final atomicity
        audit also repeats every step atomicity violation).
        """
        return self.check_step(services) or self.check_final(services)

    def _accepted_epoch_step(self, peers) -> List[str]:
        violations: List[str] = []
        for peer in peers:
            current = peer.coordinator_mgr.epoch
            last = self._accepted.get(peer.name)
            if last is not None and current < last:
                violations.append(
                    f"{peer.name}: accepted epoch regressed from {last} "
                    f"to {current}"
                )
            if last is None or current > last:
                self._accepted[peer.name] = current
        return violations


def all_peers(services: Sequence) -> List:
    """Every b-peer of every service, across all of its groups."""
    return [peer for service in services for peer in service.all_peers()]
