"""End-to-end integration tests for the Whisper system.

These exercise the full architecture of the paper's Figures 1-3: SOAP
client -> Web service -> SWS-proxy -> semantic discovery -> b-peer group
(Bully-coordinated) -> backend, including both failure modes the paper
motivates (coordinator crash; backend outage).
"""

import pytest

from repro.backend import student_database
from repro.core import ScenarioConfig, WhisperSystem
from repro.soap import RequestTimeout, SoapClient, SoapFault


def call_once(system, service, arguments, timeout=60.0, client=None):
    """Synchronous-style helper around one SOAP call."""
    if client is None:
        node, soap = system.add_client(f"cli-{system.env.now}")
    else:
        node, soap = client
    outcome = {}

    def caller():
        try:
            outcome["value"] = yield from soap.call(
                service.address, service.path, "StudentInformation", arguments,
                timeout=timeout,
            )
        except (SoapFault, RequestTimeout) as error:
            outcome["error"] = error

    system.env.run(until=node.spawn(caller()))
    return outcome


@pytest.fixture
def system():
    sys_ = WhisperSystem(ScenarioConfig(seed=11))
    return sys_


class TestHappyPath:
    def test_end_to_end_invocation(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        outcome = call_once(system, service, {"ID": "S00042"})
        assert outcome["value"]["studentId"] == "S00042"
        assert outcome["value"]["name"]

    def test_unknown_student_is_client_fault(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        outcome = call_once(system, service, {"ID": "S99999"})
        assert isinstance(outcome["error"], SoapFault)
        assert outcome["error"].faultcode == "Client"

    def test_unknown_operation_is_client_fault(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        node, soap = system.add_client()
        outcome = {}

        def caller():
            try:
                yield from soap.call(service.address, service.path, "Ghost", {})
            except SoapFault as fault:
                outcome["error"] = fault

        system.env.run(until=node.spawn(caller()))
        assert outcome["error"].faultcode == "Client"

    def test_common_case_latency_is_milliseconds(self, system):
        """§5: the average RTT on the LAN is sub-millisecond at the packet
        level; end-to-end SOAP invocations stay in the low milliseconds."""
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        client = system.add_client("steady-client")
        latencies = []
        for index in range(10):
            start = system.env.now
            outcome = call_once(system, service, {"ID": f"S{index + 1:05d}"}, client=client)
            assert "value" in outcome
            latencies.append(system.env.now - start)
        assert max(latencies[1:]) < 0.05  # warm calls: a few ms each

    def test_proxy_discovers_once_then_caches(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        client = system.add_client("cache-client")
        for index in range(3):
            call_once(system, service, {"ID": f"S{index + 1:05d}"}, client=client)
        assert service.proxy.stats.remote_discoveries == 1

    def test_multiple_services_coexist(self, system):
        from repro.backend import claim_assessment, claims_database
        from repro.wsdl import insurance_claims_wsdl

        student = system.deploy_student_service(system.config.replace(replicas=2))
        claims = system.deploy_service(
            insurance_claims_wsdl(),
            [claim_assessment(claims_database()) for _ in range(2)],
        )
        system.settle(6.0)
        outcome = call_once(system, student, {"ID": "S00001"})
        assert "value" in outcome

        node, soap = system.add_client("claims-client")
        claims_outcome = {}

        def caller():
            claims_outcome["value"] = yield from soap.call(
                claims.address, claims.path, "ProcessClaim", {"request": "C00001"},
                timeout=30.0,
            )

        system.env.run(until=node.spawn(caller()))
        assert claims_outcome["value"]["claimId"] == "C00001"


class TestCoordinatorFailover:
    def test_invocation_survives_coordinator_crash(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        client = system.add_client("failover-client")
        call_once(system, service, {"ID": "S00001"}, client=client)  # bind
        victim = service.group.coordinator_peer()
        victim.node.crash()
        outcome = call_once(system, service, {"ID": "S00002"}, client=client)
        assert outcome["value"]["studentId"] == "S00002"
        assert service.proxy.stats.rebinds >= 1

    def test_failover_latency_is_seconds(self, system):
        """§5: worst-case RTT reaches several seconds (detection + election
        + re-binding)."""
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        client = system.add_client("worst-case-client")
        call_once(system, service, {"ID": "S00001"}, client=client)
        service.group.crash_coordinator()
        start = system.env.now
        outcome = call_once(system, service, {"ID": "S00002"}, client=client)
        elapsed = system.env.now - start
        assert "value" in outcome
        assert 1.0 < elapsed < 30.0
        assert service.proxy.stats.failover_durations

    def test_new_coordinator_differs(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        old = service.group.coordinator_id()
        service.group.crash_coordinator()
        client = system.add_client("c")
        call_once(system, service, {"ID": "S00003"}, client=client)
        system.settle(10.0)
        new = service.group.coordinator_id()
        assert new is not None
        assert new != old

    def test_two_sequential_failovers(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        client = system.add_client("double-failover")
        for _round in range(2):
            call_once(system, service, {"ID": "S00001"}, client=client)
            service.group.crash_coordinator()
            outcome = call_once(system, service, {"ID": "S00002"}, client=client)
            assert "value" in outcome
        assert len(service.group.alive_peers()) == 2

    def test_all_replicas_down_times_out(self, system):
        """With every b-peer dead there is nobody to elect: the client sees
        the §1 failure mode (no fault, just silence/timeouts)."""
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        for peer in service.group.peers:
            peer.node.crash()
        outcome = call_once(system, service, {"ID": "S00001"}, timeout=15.0)
        assert "error" in outcome


class TestBackendFailover:
    def test_db_outage_served_by_equivalent_peer(self, system):
        """§4.1: operational DB down -> semantically equivalent peer answers
        (possibly from the data warehouse)."""
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        coordinator = service.group.coordinator_peer()
        coordinator.implementation.backend.fail()
        outcome = call_once(system, service, {"ID": "S00010"})
        assert outcome["value"]["studentId"] == "S00010"
        assert coordinator.requests_delegated >= 1

    def test_warehouse_source_used_when_all_dbs_down(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        for peer in service.group.peers:
            if peer.implementation.flavour == "operational":
                peer.implementation.backend.fail()
        outcome = call_once(system, service, {"ID": "S00011"})
        assert outcome["value"]["source"] == "data-warehouse"

    def test_every_backend_down_is_server_fault(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        for peer in service.group.peers:
            peer.implementation.backend.fail()
        outcome = call_once(system, service, {"ID": "S00012"})
        assert isinstance(outcome["error"], SoapFault)
        assert outcome["error"].faultcode == "Server"

    def test_backend_recovery_restores_service(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=2, warehouse_every=0))
        system.settle(6.0)
        for peer in service.group.peers:
            peer.implementation.backend.fail()
        call_once(system, service, {"ID": "S00001"})
        for peer in service.group.peers:
            peer.implementation.backend.restore()
        outcome = call_once(system, service, {"ID": "S00001"})
        assert "value" in outcome


class TestReplicaStoresAreIndependent:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_each_replica_owns_its_rows(self, shards):
        """One seeded generation, one independent copy per replica and
        shard: an outage, an update or an effect record on one store is
        invisible to its siblings, and every store starts from
        ``student_database(n)``'s rows."""
        system = WhisperSystem(ScenarioConfig(seed=3, students=40, shards=shards))
        service = system.deploy_student_service(
            system.config.replace(replicas=4, warehouse_every=0)
        )
        stores = [
            peer.implementation.backend
            for group in service.all_groups()
            for peer in group.peers
        ]
        assert len(stores) == 4 * shards
        assert len({id(store) for store in stores}) == len(stores)
        expected = list(student_database(40).table("students"))
        for store in stores:
            assert list(store.table("students")) == expected
        victim, siblings = stores[0], stores[1:]
        victim.update("students", "S00001", {"enrolled_courses": ["X999"]})
        victim.table("students")._rows["S00002"]["enrolled_courses"].append("X999")
        victim.record_effect("inv-1", "peer-a")
        victim.fail()
        for store in siblings:
            assert store.available and store.effect_log == []
            assert list(store.table("students")) == expected


class TestCrashRestart:
    def test_replica_restart_rejoins_group(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        victim = service.group.peers[0]
        victim.node.crash()
        system.settle(8.0)
        victim.node.restart()
        system.settle(12.0)
        # The restarted peer is a member again and knows the coordinator.
        assert victim.groups.is_member(victim.group_id)
        assert len(victim.groups.members(victim.group_id)) == 3

    def test_invocations_flow_after_restart(self, system):
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        victim = service.group.coordinator_peer()
        victim.node.crash()
        client = system.add_client("restart-client")
        call_once(system, service, {"ID": "S00001"}, client=client)
        victim.node.restart()
        system.settle(12.0)
        outcome = call_once(system, service, {"ID": "S00002"}, client=client)
        assert "value" in outcome


class TestLoadSharing:
    def test_member_backend_outage_masked_under_load_sharing(self):
        """With load sharing on, a member whose backend is down chains to a
        healthy replica instead of bouncing cannot-serve to the proxy."""
        system = WhisperSystem(ScenarioConfig(seed=14, load_sharing=True))
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        # Fail one *non-coordinator* member's backend.
        coordinator_id = service.group.coordinator_id()
        broken = next(
            peer for peer in service.group.peers
            if peer.peer_id != coordinator_id
        )
        broken.implementation.backend.fail()
        client = system.add_client("ls-outage-client")
        for index in range(8):  # round-robin will hit the broken member
            outcome = call_once(
                system, service, {"ID": f"S{index + 1:05d}"}, client=client
            )
            assert "value" in outcome, (index, outcome)
        assert broken.requests_delegated >= 1

    def test_round_robin_spreads_requests(self):
        system = WhisperSystem(ScenarioConfig(seed=13, load_sharing=True))
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        client = system.add_client("spread-client")
        for index in range(12):
            outcome = call_once(
                system, service, {"ID": f"S{index + 1:05d}"}, client=client
            )
            assert "value" in outcome
        executors = [p.requests_executed for p in service.group.peers]
        assert sum(executors) == 12
        assert sum(1 for count in executors if count > 0) >= 3
