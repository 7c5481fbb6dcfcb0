"""Integration tests for semantic sharding across federated b-peer groups."""

import pytest

from repro.backend.datasets import student_database
from repro.backend.services import student_enrollment, student_lookup_operational
from repro.core import ScenarioConfig, WhisperSystem
from repro.wsdl.samples import student_admin_wsdl, student_management_wsdl


def _sharded_system(shards=4, seed=42, **overrides):
    config = ScenarioConfig(
        seed=seed,
        shards=shards,
        replicas=2,
        load_sharing=True,
        dispatch="least-outstanding",
        heartbeat_interval=0.5,
        miss_threshold=2,
        **overrides,
    )
    system = WhisperSystem(config)
    service = system.deploy_student_service()
    system.settle(6.0)
    return system, service


def _run(system, service, generator):
    return system.run_process(generator, node=service.proxy.node)


class TestShardedDeploy:
    def test_one_group_per_shard_with_full_replication(self):
        system, service = _sharded_system(shards=4)
        groups = service.all_groups()
        assert len(groups) == 4
        assert sorted(g.name for g in groups) == [
            f"grp-StudentManagement-s{i}" for i in range(4)
        ]
        for group in groups:
            assert len(group.peers) == 2
            assert group.coordinator_peer() is not None
            assert group.advertisement.shard_count == 4
        assert {g.advertisement.shard_index for g in groups} == {0, 1, 2, 3}
        assert len(service.all_peers()) == 8

    def test_single_shard_advertisement_is_seed_identical(self):
        """shards=1 must not grow the advertisement (protects the
        Figure-4 message sizes)."""
        system, service = _sharded_system(shards=1)
        advertisement = service.group.advertisement
        assert advertisement.shard_index is None
        assert advertisement.shard_count is None
        assert not advertisement.sharded
        xml = advertisement.to_xml()
        assert "Shard" not in xml

    def test_sharded_deploy_rejects_flat_implementation_list(self):
        system = WhisperSystem(ScenarioConfig(seed=1, shards=2))
        db = student_database(20)
        with pytest.raises(ValueError, match="per shard"):
            system.deploy_service(
                student_management_wsdl(),
                [student_lookup_operational(db)],
            )

    def test_read_only_operations_wired_from_mutating_flag(self):
        system, service = _sharded_system(shards=2)
        assert "StudentInformation" in service.proxy.read_only_operations
        admin = WhisperSystem(ScenarioConfig(seed=3))
        deployed = admin.deploy_service(
            student_admin_wsdl(),
            {"EnrollStudent": [student_enrollment(student_database(20))]},
        )
        assert "EnrollStudent" not in deployed.proxy.read_only_operations


class TestShardRouting:
    def test_reads_spread_over_every_shard_group(self):
        system, service = _sharded_system(shards=4)

        def run():
            for index in range(200):
                result = yield from service.invoke(
                    "StudentInformation", {"ID": f"S{(index % 200) + 1:05d}"}
                )
                assert result.value["studentId"] == f"S{(index % 200) + 1:05d}"

        _run(system, service, run())
        executed = {
            group.name: group.total_requests_executed()
            for group in service.all_groups()
        }
        assert all(count > 0 for count in executed.values()), executed
        assert service.proxy.stats.shard_routed == 200

    def test_same_key_always_routes_to_same_group(self):
        system, service = _sharded_system(shards=4)

        def run():
            for _ in range(5):
                result = yield from service.invoke(
                    "StudentInformation", {"ID": "S00017"}
                )
                assert result.value["studentId"] == "S00017"

        _run(system, service, run())
        # All five invocations landed on exactly one shard group.
        executed = {
            group.name: group.total_requests_executed()
            for group in service.all_groups()
        }
        assert sorted(executed.values()) == [0, 0, 0, 5], executed

    def test_unsharded_deploy_never_touches_the_router(self):
        system, service = _sharded_system(shards=1)

        def run():
            yield from service.invoke("StudentInformation", {"ID": "S00001"})

        _run(system, service, run())
        assert service.proxy.stats.shard_routed == 0
        assert service.proxy._routers == {}


class TestShardFailover:
    def test_reads_survive_shard_group_loss_via_ring_successor(self):
        """Killing one whole shard group remaps only its segment: reads
        for its keys fail over to ring successors, everyone else's keys
        keep their owner."""
        system, service = _sharded_system(shards=4)
        ids = [f"S{i:05d}" for i in range(1, 61)]

        def warm():
            for student in ids:
                yield from service.invoke("StudentInformation", {"ID": student})

        _run(system, service, warm())
        victim = service.shard_groups_for("StudentInformation")[1]
        for peer in victim.peers:
            peer.node.crash()
        system.settle(1.0)

        def run():
            for student in ids:
                result = yield from service.invoke(
                    "StudentInformation", {"ID": student}, budget=20.0
                )
                assert result.value["studentId"] == student

        _run(system, service, run())
        assert service.proxy.stats.shard_failovers > 0
        live_counts = {
            group.name: group.total_requests_executed()
            for group in service.all_groups()
            if group is not victim
        }
        assert all(count > 0 for count in live_counts.values())

    def test_mutating_ops_pin_to_home_group_once_sent(self):
        """Sticky at-most-once handoff: a mutating invocation id never
        spans two groups, so per-group dedup journals stay sufficient.
        Across a whole-shard-group crash mid-workload, no enrollment is
        ever double-applied."""
        config = ScenarioConfig(
            seed=11,
            shards=4,
            replicas=2,
            load_sharing=True,
            heartbeat_interval=0.5,
            miss_threshold=2,
            request_timeout=0.5,
        )
        system = WhisperSystem(config)
        databases = {
            shard: [student_database(50), student_database(50)]
            for shard in range(4)
        }
        service = system.deploy_service(
            student_admin_wsdl(),
            {
                "EnrollStudent": lambda shard: [
                    student_enrollment(db) for db in databases[shard]
                ]
            },
        )
        system.settle(6.0)
        victim = service.shard_groups_for("EnrollStudent")[0]
        statuses = []

        def workload():
            for index in range(40):
                if index == 12:
                    for peer in victim.peers:
                        peer.node.crash()
                try:
                    result = yield from service.invoke(
                        "EnrollStudent",
                        {"ID": f"S{index + 1:05d}", "course": "b2b-integration"},
                        budget=6.0,
                    )
                    statuses.append(("ok", result.invocation_id))
                except Exception as error:
                    statuses.append(("fail", type(error).__name__))

        _run(system, service, workload())
        # Exactly-once audit: across every backend replica of every shard
        # group, no invocation id was applied twice.
        seen_backends = set()
        applied = {}
        for peer in service.all_peers():
            backend = peer.implementation.backend
            if id(backend) in seen_backends:
                continue
            seen_backends.add(id(backend))
            for invocation_id, _applied_by in getattr(backend, "effect_log", []):
                applied[invocation_id] = applied.get(invocation_id, 0) + 1
        double_applied = {
            inv: count for inv, count in applied.items() if count > 1
        }
        assert double_applied == {}, double_applied
        # The workload made progress despite losing a whole shard group.
        assert sum(1 for status, _ in statuses if status == "ok") >= 25
