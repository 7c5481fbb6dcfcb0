"""What a failover costs in coordinator lookups: not the load (DESIGN.md §6.13).

Counts only, no timings.  A coordinator is crashed under N reads that are
all parked on it; each of them times out, and each timeout used to drop
the group's binding and send its own group-wide "who coordinates you?"
query — ≈ one lookup (five ``rdv-propagate``, up to five answers) per
parked request and per round of the failover.  Two rules end that:

* **compare-and-drop** — a failed attempt drops the binding only if it is
  still the ``(coordinator, epoch)`` the attempt went out under;
* **single-flight** — one coordinator query per group in flight per proxy,
  its outcome shared by every request that needs it meanwhile.

The file fails with either rule reverted (shown once by a throw-away edit
of ``core/proxy.py``, not committed): without single-flight the storm case
counts ≈ 2 lookups per parked request; without compare-and-drop the late
timeout of the second case evicts the fresh binding.
"""

from __future__ import annotations

import pytest

from repro.core import ScenarioConfig, WhisperSystem

#: The parked reads arrive within this many simulated seconds: a burst,
#: so at both sizes they time out together, round after round.
BURST = 0.02


def _deploy(seed: int = 2206):
    system = WhisperSystem(ScenarioConfig(seed=seed, replicas=4, students=80))
    service = system.deploy_student_service()
    system.settle()
    return system, service


def _read(proxy, index: int, results: list):
    result = yield from proxy.invoke("StudentInformation", {"ID": f"S{index % 80 + 1:05d}"})
    assert result.value["studentId"] == f"S{index % 80 + 1:05d}"
    results.append(result)


def _failover_under(parked: int):
    """Crash the coordinator, park ``parked`` reads on it, run them all to
    completion; returns what the failover sent and the results."""
    system, service = _deploy()
    proxy, env = service.proxy, system.env
    warm: list = []
    env.run(until=proxy.node.spawn(_read(proxy, 0, warm)))  # bind
    bound_to = proxy.bindings.bound[service.group.group_id].coordinator
    assert bound_to == service.group.coordinator_id()

    service.group.coordinator_peer().node.crash()
    queries = proxy.resolver.queries_sent
    shared = proxy.stats.shared_lookups
    propagates = system.trace.sent_by_category["rdv-propagate"]
    results: list = []

    def arrivals():
        processes = []
        for index in range(parked):
            processes.append(proxy.node.spawn(_read(proxy, index, results)))
            yield env.timeout(BURST / parked)
        for process in processes:
            yield process

    env.run(until=proxy.node.spawn(arrivals()))
    return {
        "results": results,
        "lookups": proxy.resolver.queries_sent - queries,
        "shared": proxy.stats.shared_lookups - shared,
        "propagates": system.trace.sent_by_category["rdv-propagate"] - propagates,
        "rebound": proxy.bindings.bound[service.group.group_id].coordinator != bound_to,
    }


class TestLookupsDoNotGrowWithTheLoad:
    @pytest.fixture(scope="class")
    def storms(self):
        return {parked: _failover_under(parked) for parked in (4, 64)}

    @pytest.mark.parametrize("parked", [4, 64])
    def test_every_parked_read_is_answered(self, storms, parked):
        storm = storms[parked]
        assert len(storm["results"]) == parked
        assert all(result.outcome.value == "recovered" for result in storm["results"])
        assert storm["rebound"]

    def test_lookups_are_a_property_of_the_failover_not_of_the_load(self, storms):
        few, many = storms[4], storms[64]
        # One per round of timeouts (the members answer with the dead
        # coordinator until their detector fires, so a failover takes two
        # or three rounds) — at the parent ≈ 2 per parked request: 8 / 128.
        assert 1 <= few["lookups"] <= 4
        assert 1 <= many["lookups"] <= 4
        assert abs(many["lookups"] - few["lookups"]) <= 2
        # What the other requests did instead of asking.
        assert many["shared"] >= 64 - many["lookups"]

    @pytest.mark.parametrize("parked", [4, 64])
    def test_group_wide_messages_follow_the_lookups(self, storms, parked):
        """A lookup is one propagate to the rendezvous and its fan-out to
        the four other leased peers; nothing else propagates here."""
        storm = storms[parked]
        assert storm["propagates"] <= 5 * storm["lookups"]


class TestLateTimeoutKeepsTheFreshBinding:
    def test_retry_after_a_late_timeout_needs_no_lookup(self):
        """Request A (a patient caller: 8 s per attempt) and request B (the
        default 2 s) are both parked on a coordinator that has crashed.  B
        times out first and re-binds the group to the successor; A's
        timeout, when it comes, is older evidence than B's binding: the
        binding stays and A's retry goes straight to it.  An attempt's
        timeout is the proxy's ``request_timeout`` when it is sent, so the
        test sets it to 8 s for A's first attempt and back for B."""
        system, service = _deploy(seed=2207)
        proxy, env = service.proxy, system.env
        group_id = service.group.group_id
        warm: list = []
        env.run(until=proxy.node.spawn(_read(proxy, 0, warm)))
        dead = proxy.bindings.bound[group_id]
        service.group.coordinator_peer().node.crash()

        patient: list = []
        hasty: list = []
        default_timeout = proxy.request_timeout
        proxy.request_timeout = 8.0
        request_a = proxy.node.spawn(_read(proxy, 1, patient))

        def hasty_read():
            # A's first attempt is on the wire, under 8 s, by now.
            proxy.request_timeout = default_timeout
            yield from _read(proxy, 2, hasty)

        env.run(until=proxy.node.spawn(hasty_read()))
        assert hasty[0].outcome.value == "recovered" and not patient
        fresh = proxy.bindings.bound[group_id]
        assert fresh.coordinator != dead.coordinator and fresh.epoch > dead.epoch
        queries = proxy.resolver.queries_sent
        rebinds = proxy.stats.rebinds
        timeouts = proxy.stats.timeouts

        env.run(until=request_a)
        assert patient[0].attempts == 2 and patient[0].outcome.value == "recovered"
        assert patient[0].epoch == fresh.epoch
        assert proxy.stats.timeouts == timeouts + 1  # A's, on the dead binding
        assert proxy.bindings.bound[group_id] is fresh  # which B's binding survived
        assert proxy.resolver.queries_sent == queries  # and A asked nobody
        assert proxy.stats.rebinds == rebinds  # a kept binding is no rebind

    def test_a_timeout_still_drops_the_binding_it_used(self):
        """The other half of the comparison: evidence against the binding
        that is still installed — or an equal one installed since, the
        members' stale answer during detection — drops it, as before."""
        system, service = _deploy(seed=2207)
        proxy, env = service.proxy, system.env
        group_id = service.group.group_id
        warm: list = []
        env.run(until=proxy.node.spawn(_read(proxy, 0, warm)))
        used = proxy.bindings.bound[group_id]
        again = proxy.bindings.install(group_id, used.coordinator, used.address, used.epoch)
        assert again is not used and proxy.stats.rebinds == 0
        proxy.bindings.drop(used)
        assert group_id not in proxy.bindings.bound
        assert proxy.stats.rebinds == 1
