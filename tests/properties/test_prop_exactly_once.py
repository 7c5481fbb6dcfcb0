"""Property-based tests: exactly-once invocation under random failures.

Random crash/partition/loss schedules run against the mutating enrollment
service while a client issues logical calls (each retried internally by
the proxy under one idempotency key).  Whatever the schedule:

* no invocation id is applied more than once across the group's backend
  side-effect ledgers (with the dedup journal enabled), and
* every call the client saw succeed is backed by a ``DONE`` journal entry
  somewhere in the group — the result is durable knowledge, not a lucky
  race.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.datasets import student_database
from repro.backend.services import student_enrollment
from repro.core import ScenarioConfig, WhisperSystem
from repro.core.errors import WhisperError
from repro.soap.fault import SoapFault
from repro.wsdl.samples import student_admin_wsdl

REPLICAS = 3
STUDENTS = 20
PROBES = 8


def _build(seed, loss_rate):
    system = WhisperSystem(
        ScenarioConfig(
            seed=seed,
            heartbeat_interval=0.5,
            miss_threshold=2,
            students=STUDENTS,
            deadline_budget=8.0,
        )
    )
    system.network.loss_rate = loss_rate
    implementations = [
        student_enrollment(student_database(STUDENTS)) for _ in range(REPLICAS)
    ]
    service = system.deploy_service(
        student_admin_wsdl(),
        {"EnrollStudent": implementations},
        web_host="web0",
    )
    system.settle(6.0)
    return system, service


def _schedule(system, service, plan):
    """Turn the drawn plan into crash/partition events on the sim clock."""
    hosts = [peer.node.name for peer in service.group.peers]
    everyone = list(system.network.hosts.keys())
    at = system.env.now
    for kind, victim_index, gap, duration in plan:
        at += gap
        victim = hosts[victim_index % len(hosts)]
        if kind == "crash":
            system.failures.crash_for(at, victim, downtime=duration)
        else:
            others = [name for name in everyone if name != victim]
            system.failures.partition_at(at, [victim], others, duration=duration)


def _drive(system, service):
    """Sequential enrollment calls; returns the successful InvokeResults."""
    results = []

    def client():
        for sequence in range(PROBES):
            try:
                result = yield from service.invoke(
                    "EnrollStudent",
                    {
                        "ID": f"S{sequence % STUDENTS + 1:05d}",
                        "course": f"C{sequence:05d}",
                    },
                )
            except (SoapFault, WhisperError):
                continue
            results.append(result)

    system.env.run(until=service.proxy.node.spawn(client()))
    system.settle(12.0)  # heals + restarts + final election drain
    return results


_plan_events = st.tuples(
    st.sampled_from(["crash", "partition"]),
    st.integers(min_value=0, max_value=REPLICAS - 1),  # victim
    st.floats(min_value=0.5, max_value=4.0),           # gap before event
    st.floats(min_value=1.0, max_value=6.0),           # downtime / window
)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    plan=st.lists(_plan_events, max_size=3),
    loss_rate=st.sampled_from([0.0, 0.01, 0.05]),
)
@settings(max_examples=10, deadline=None)
def test_no_duplicate_effects_and_results_are_journaled(seed, plan, loss_rate):
    system, service = _build(seed, loss_rate)
    _schedule(system, service, plan)
    results = _drive(system, service)

    # Invariant 1: no invocation applied its mutation twice, anywhere.
    counts = {}
    for peer in service.group.peers:
        for invocation_id, _peer_name in peer.implementation.backend.effect_log:
            counts[invocation_id] = counts.get(invocation_id, 0) + 1
    duplicated = {
        invocation_id: count for invocation_id, count in counts.items() if count > 1
    }
    assert not duplicated, f"double-applied invocations: {duplicated}"

    # Invariant 2: every result the client saw as OK is backed by a DONE
    # journal entry on at least one group member.
    for result in results:
        holders = [
            peer.name
            for peer in service.group.peers
            if (entry := peer.journal.lookup(result.invocation_id)) is not None
            and entry.done
        ]
        assert holders, f"{result.invocation_id} succeeded but is journaled nowhere"
