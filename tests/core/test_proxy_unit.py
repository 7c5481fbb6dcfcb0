"""Focused unit tests for SWS-proxy behaviours."""

import pytest

from repro.core import (
    NoCoordinatorError,
    NoMatchingGroupError,
    ScenarioConfig,
    WhisperSystem,
)
from repro.core.bpeer import PROTO_EXEC, ExecReply
from repro.core.retry import Deadline
from repro.simnet import Interrupt
from repro.soap import SoapFault

from ..ontology.match_oracle import ReferenceMatcher

#: A deadline no lookup in these tests reaches.
_NO_DEADLINE = Deadline(at=float("inf"))


@pytest.fixture
def system():
    return WhisperSystem(ScenarioConfig(seed=51))


@pytest.fixture
def deployed(system):
    service = system.deploy_student_service(system.config.replace(replicas=3))
    system.settle(6.0)
    return service


def _invoke(system, proxy, operation, arguments):
    outcome = {}

    def runner():
        try:
            result = yield from proxy.invoke(operation, arguments)
            outcome["result"] = result
            outcome["value"] = result.value
        except Exception as error:  # noqa: BLE001 - captured for assertions
            outcome["error"] = error

    system.env.run(until=proxy.node.spawn(runner()))
    return outcome


class TestDiscoveryPath:
    def test_find_peer_group_adv_returns_matches(self, system, deployed):
        proxy = deployed.proxy
        matches = {}

        def runner():
            matches["found"] = yield from proxy.find_peer_group_adv(
                proxy.sws.annotation("StudentInformation"), _NO_DEADLINE
            )

        system.env.run(until=proxy.node.spawn(runner()))
        assert len(matches["found"]) == 1
        assert matches["found"][0].advertisement.name == deployed.group.name

    def test_local_cache_hit_skips_remote_discovery(self, system, deployed):
        proxy = deployed.proxy
        _invoke(system, proxy, "StudentInformation", {"ID": "S00001"})
        discoveries = proxy.stats.remote_discoveries
        _invoke(system, proxy, "StudentInformation", {"ID": "S00002"})
        assert proxy.stats.remote_discoveries == discoveries

    def test_steady_state_invokes_never_reach_the_reasoner(
        self, system, deployed, monkeypatch
    ):
        """Counted, not timed: the semantic match is computed on the first
        invocation and looked up afterwards (PR 15)."""
        proxy, reasoner = deployed.proxy, system.reasoner
        calls = {"ancestors": 0, "similarity": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(reasoner, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(reasoner, name, counted)

        def invoke_many(count):
            for index in range(count):
                outcome = _invoke(
                    system, proxy, "StudentInformation", {"ID": f"S{index + 1:05d}"}
                )
                assert "error" not in outcome

        invoke_many(1)
        assert calls["similarity"] > 0  # the cold match does ask the reasoner
        calls.update(ancestors=0, similarity=0)
        invoke_many(25)
        assert calls == {"ancestors": 0, "similarity": 0}
        # The counter is live: with the uncached oracle swapped in, the
        # same 25 requests go back to the reasoner every time (an EXACT
        # match on identical URIs asks for similarity only).
        proxy.group_matcher.matcher = ReferenceMatcher(reasoner)
        invoke_many(25)
        assert calls["similarity"] >= 25

    def test_no_group_raises_no_matching(self, system):
        # A service deployed with NO backing group.
        from repro.core import SemanticWebService, SwsProxy
        from repro.wsdl import bank_loans_wsdl

        node = system.network.add_host("lonely-web")
        sws = SemanticWebService(bank_loans_wsdl(), system.ontology)
        proxy = SwsProxy(node, sws, system.matcher)
        proxy.discovery_timeout = 0.3
        proxy.attach_to(system.rendezvous)
        system.settle(1.0)
        outcome = _invoke(system, proxy, "ApproveLoan", {"request": "L00001"})
        assert isinstance(outcome["error"], NoMatchingGroupError)


class TestBindingPath:
    def test_resolve_coordinator_returns_binding(self, system, deployed):
        proxy = deployed.proxy
        result = {}

        def runner():
            result["binding"] = yield from proxy.bindings.resolve(
                deployed.group.group_id, _NO_DEADLINE
            )

        system.env.run(until=proxy.node.spawn(runner()))
        assert result["binding"].coordinator == deployed.group.coordinator_id()

    def test_drop_binding_counts_rebinds(self, system, deployed):
        proxy = deployed.proxy
        _invoke(system, proxy, "StudentInformation", {"ID": "S00001"})
        used = proxy.bindings.bound[deployed.group.group_id]
        proxy.bindings.drop(used)
        assert proxy.stats.rebinds == 1
        proxy.bindings.drop(used)  # already gone
        assert proxy.stats.rebinds == 1

    def test_redirect_updates_binding(self, system, deployed):
        """Sending to a non-coordinator member redirects the proxy."""
        proxy = deployed.proxy
        _invoke(system, proxy, "StudentInformation", {"ID": "S00001"})
        coordinator_id = deployed.group.coordinator_id()
        follower = next(
            peer for peer in deployed.group.peers
            if peer.peer_id != coordinator_id
        )
        # Poison the binding to point at the follower.
        from repro.core.proxy import _Binding

        proxy.bindings.bound[deployed.group.group_id] = _Binding(
            deployed.group.group_id, follower.peer_id, follower.endpoint.address,
            follower.coordinator_mgr.epoch, system.env.now,
        )
        proxy.endpoint.add_route(follower.peer_id, follower.endpoint.address)
        outcome = _invoke(system, proxy, "StudentInformation", {"ID": "S00002"})
        assert outcome["value"]["studentId"] == "S00002"
        assert proxy.stats.redirects >= 1

    def test_redirect_with_pointer_counts_rebind(self, system, deployed):
        """Regression: following a redirect's forward pointer is a
        failover and must count as a rebind.  The old code rewrote
        the binding in place, so redirect-driven failovers
        were invisible in ``ProxyStats.rebinds``."""
        proxy = deployed.proxy
        _invoke(system, proxy, "StudentInformation", {"ID": "S00001"})
        coordinator_id = deployed.group.coordinator_id()
        follower = next(
            peer for peer in deployed.group.peers
            if peer.peer_id != coordinator_id
        )
        from repro.core.proxy import _Binding

        proxy.bindings.bound[deployed.group.group_id] = _Binding(
            deployed.group.group_id, follower.peer_id, follower.endpoint.address,
            follower.coordinator_mgr.epoch, system.env.now,
        )
        proxy.endpoint.add_route(follower.peer_id, follower.endpoint.address)
        rebinds = proxy.stats.rebinds
        outcome = _invoke(system, proxy, "StudentInformation", {"ID": "S00002"})
        assert outcome["value"]["studentId"] == "S00002"
        assert proxy.stats.rebinds == rebinds + 1
        binding = proxy.bindings.bound[deployed.group.group_id]
        assert binding.coordinator == coordinator_id
        assert binding.epoch is not None

    def test_successful_invoke_stamps_binding_epoch(self, system, deployed):
        proxy = deployed.proxy
        _invoke(system, proxy, "StudentInformation", {"ID": "S00001"})
        binding = proxy.bindings.bound[deployed.group.group_id]
        coordinator = deployed.group.coordinator_peer()
        assert binding.epoch == coordinator.coordinator_mgr.epoch
        assert binding.epoch.counter >= 1


class TestReplyHandling:
    def test_fault_reply_raises_soap_fault(self, system, deployed):
        outcome = _invoke(
            system, deployed.proxy, "StudentInformation", {"ID": "S99999"}
        )
        assert isinstance(outcome["error"], SoapFault)
        assert deployed.proxy.stats.faults == 1

    def test_stale_reply_ignored(self, system, deployed):
        """A reply for an unknown request id must not crash the proxy."""
        proxy = deployed.proxy
        stale = ExecReply(request_id=987654, kind="result", value="ghost")
        coordinator = deployed.group.coordinator_peer()
        coordinator.endpoint.add_route(proxy.peer_id, proxy.endpoint.address)
        coordinator.endpoint.send(
            proxy.peer_id, "whisper:exec-reply", stale, category="bpeer-reply"
        )
        system.settle(0.5)
        outcome = _invoke(system, proxy, "StudentInformation", {"ID": "S00001"})
        assert "value" in outcome

    def test_translation_validates_against_schema(self, system, deployed):
        proxy = deployed.proxy
        value = proxy._translate(
            "StudentInformation",
            {"studentId": "S1", "name": "A", "degree": "D"},
        )
        assert value["studentId"] == "S1"
        assert proxy.stats.translation_failures == 0

    def test_translation_counts_schema_mismatch(self, system, deployed):
        proxy = deployed.proxy
        proxy._translate("StudentInformation", {"unexpected": True})
        assert proxy.stats.translation_failures == 1


class TestStatsBookkeeping:
    def test_success_recorded_in_profile(self, system, deployed):
        proxy = deployed.proxy
        _invoke(system, proxy, "StudentInformation", {"ID": "S00001"})
        key = deployed.group.advertisement.key()
        profile = proxy._profile_for(key)
        assert profile.observations == 1
        assert profile.successes == 1

    def test_invocation_counter(self, system, deployed):
        proxy = deployed.proxy
        for index in range(3):
            _invoke(system, proxy, "StudentInformation", {"ID": f"S{index + 1:05d}"})
        assert proxy.stats.invocations == 3
        assert proxy.stats.successes == 3


class TestSingleFlightLookup:
    """One coordinator query per group in flight; everyone who needs the
    answer meanwhile shares its outcome (DESIGN.md §6.13)."""

    @staticmethod
    def _resolve(system, proxy, group_id, outcomes, deadline=_NO_DEADLINE, node=None):
        def caller():
            try:
                binding = yield from proxy.bindings.resolve(group_id, deadline)
                outcomes.append((system.env.now, binding))
            except (NoCoordinatorError, Interrupt) as error:
                outcomes.append((system.env.now, error))

        return (node or proxy.node).spawn(caller())

    @staticmethod
    def _silence(deployed):
        for peer in deployed.group.peers:
            peer.node.crash()

    def test_joiners_receive_the_leaders_binding(self, system, deployed):
        proxy, group_id = deployed.proxy, deployed.group.group_id
        queries = proxy.resolver.queries_sent
        outcomes = []
        callers = [
            self._resolve(system, proxy, group_id, outcomes) for _ in range(3)
        ]
        for caller in callers:
            system.env.run(until=caller)
        bindings = [binding for _at, binding in outcomes]
        assert bindings[0].coordinator == deployed.group.coordinator_id()
        assert bindings[1] is bindings[0] and bindings[2] is bindings[0]
        assert proxy.bindings.bound[group_id] is bindings[0]
        assert proxy.resolver.queries_sent == queries + 1
        assert proxy.stats.shared_lookups == 2
        assert proxy.bindings.lookups == {} and proxy.resolver.listeners == 0

    def test_joiners_receive_the_leaders_failure_and_back_off_on_their_own(
        self, system
    ):
        """No member answers: the one query's ``NoCoordinatorError`` reaches
        every caller, and each then sleeps its *own* jittered backoff — a
        shared lookup must not turn into retries in lockstep."""
        deployed = system.deploy_student_service(
            system.config.replace(replicas=3, deadline_budget=1.5)
        )
        system.settle(6.0)
        proxy = deployed.proxy
        self._silence(deployed)
        draws = []
        real_random = proxy._retry_rng.random

        def recorded():
            draws.append(real_random())
            return draws[-1]

        proxy._retry_rng.random = recorded
        queries = proxy.resolver.queries_sent
        outcomes = []

        def call(student):
            try:
                yield from proxy.invoke("StudentInformation", {"ID": student})
            except Exception as error:  # noqa: BLE001 - captured for assertions
                outcomes.append(error)

        callers = [proxy.node.spawn(call(f"S0000{n}")) for n in (1, 2, 3)]
        for caller in callers:
            system.env.run(until=caller)
        assert [type(error).__name__ for error in outcomes] == [
            "InvocationFailedError"
        ] * 3
        # Round one: one query, three NoCoordinatorErrors, three draws.
        assert proxy.stats.shared_lookups >= 2
        assert len(draws) >= 3 and len(set(draws[:3])) == 3
        # Far fewer queries than binds attempted (parent: one each).
        binds = proxy.stats.shared_lookups + proxy.resolver.queries_sent - queries
        assert proxy.resolver.queries_sent - queries < binds
        assert proxy.bindings.lookups == {} and proxy.resolver.listeners == 0

    def test_joiner_with_a_shorter_deadline_leaves_on_its_own(self, system, deployed):
        proxy, group_id = deployed.proxy, deployed.group.group_id
        self._silence(deployed)
        started = system.env.now
        outcomes = []
        leader = self._resolve(system, proxy, group_id, outcomes)
        joiner = self._resolve(
            system, proxy, group_id, outcomes, Deadline(at=started + 0.2)
        )
        system.env.run(until=joiner)
        (left_at, error), = outcomes
        assert isinstance(error, NoCoordinatorError)
        assert left_at == pytest.approx(started + 0.2)
        assert group_id in proxy.bindings.lookups  # the leader is still asking
        system.env.run(until=leader)
        assert outcomes[1][0] == pytest.approx(started + proxy.bindings.coordinator_timeout)
        assert proxy.bindings.lookups == {} and proxy.resolver.listeners == 0

    def test_joiner_waits_no_longer_than_its_own_lookup_would(self, system, deployed):
        """A leader wedged past its timeout (its process's host is frozen
        here by simply never finishing) cannot hold a joiner for ever."""
        proxy, group_id = deployed.proxy, deployed.group.group_id
        proxy.bindings.lookups[group_id] = system.env.event()  # a lookup that never ends
        started = system.env.now
        outcomes = []
        system.env.run(until=self._resolve(system, proxy, group_id, outcomes))
        (left_at, error), = outcomes
        assert isinstance(error, NoCoordinatorError)
        assert left_at == pytest.approx(
            started + proxy.bindings.coordinator_timeout + proxy.bindings.resolve_grace
        )

    @pytest.mark.parametrize("callers_on", ["the proxy's host", "another host"])
    def test_host_crash_mid_lookup_wedges_nothing(self, system, deployed, callers_on):
        """The callers' host dies between query and answer.  On the proxy's
        own host the crash hooks would clear the listener anyway; a caller
        living elsewhere (a saga orchestrator drives ``invoke`` from its
        own host) leaves the proxy up, so only the ``finally`` cleans up."""
        proxy, group_id = deployed.proxy, deployed.group.group_id
        host = (
            proxy.node
            if callers_on == "the proxy's host"
            else system.network.add_host("orchestrator-host")
        )
        outcomes = []
        self._resolve(system, proxy, group_id, outcomes, node=host)
        self._resolve(system, proxy, group_id, outcomes, node=host)
        system.run_until(system.env.now + 0.001)  # query out, no answer yet
        assert group_id in proxy.bindings.lookups and proxy.resolver.listeners == 1
        host.crash()
        system.run_until(system.env.now + 0.5)
        assert [type(error) for _at, error in outcomes] == [Interrupt, Interrupt]
        assert proxy.bindings.lookups == {} and proxy.resolver.listeners == 0
        host.restart()
        if host is proxy.node:
            proxy.attach_to(system.rendezvous)
            system.settle(1.0)
        outcome = _invoke(system, proxy, "StudentInformation", {"ID": "S00003"})
        assert outcome["value"]["studentId"] == "S00003"
        assert proxy.bindings.lookups == {} and proxy.resolver.listeners == 0
