"""What a replica holds privately: the rows it has touched (DESIGN.md §6.12).

Counts only, no timings and no MiB — the other axis of
``test_request_footprint.py``.  ``student_database`` hands every replica a
copy that shares the generated rows until the replica first reaches one, so
what a deployment adds per member is a key -> row map and a handful of
objects, whatever the dataset size; before PR 21 it was every row and every
list again (2 000 private rows per store, 3 840 GC-tracked objects per extra
member at ``students=2000``).
"""

from __future__ import annotations

import gc
import random

from repro.backend import build_warehouse, student_database
from repro.core import ScenarioConfig, WhisperSystem
from repro.soap.client import SoapClient

from .test_request_footprint import cyclic_gc_off

REPLICAS = 16
STUDENTS = 2000
READS = 300


def _stores(service):
    """Every distinct backend store of the deployment, by flavour."""
    stores = {"operational": {}, "warehouse": {}}
    for group in service.all_groups():
        for peer in group.peers:
            backend = peer.implementation.backend
            stores[peer.implementation.flavour][id(backend)] = backend
    return {flavour: list(found.values()) for flavour, found in stores.items()}


def _private_rows(stores):
    return sum(table.private_rows for store in stores for table in store.tables())


def test_a_deployment_holds_one_dataset_plus_the_rows_it_served():
    system = WhisperSystem(ScenarioConfig(seed=42, replicas=REPLICAS, students=STUDENTS))
    service = system.deploy_student_service()
    system.settle()
    stores = _stores(service)
    assert (len(stores["operational"]), len(stores["warehouse"])) == (REPLICAS // 2, 1)
    assert _private_rows(stores["operational"]) == 0  # deployed, nothing read yet

    rng = random.Random(7)
    requested = [f"S{rng.randrange(STUDENTS) + 1:05d}" for _ in range(READS)]
    client = system.network.add_host("footprint-client")
    soap = SoapClient(client, default_timeout=30.0)

    def reads():
        for student_id in requested:
            value = yield from soap.call(
                service.address, service.path, "StudentInformation", {"ID": student_id}
            )
            assert value["studentId"] == student_id

    system.env.run(until=client.spawn(reads()))
    executed = sum(store.reads for store in stores["operational"])
    assert executed > 0  # an operational member did serve
    private = _private_rows(stores["operational"])
    assert 0 < private <= len(set(requested))  # parent: 2 000 per store
    assert private <= executed

    # White box, like the heap and process lists next door: the row dicts
    # all stores can reach are one generated dataset, one warehouse, and a
    # private row per row touched (parent: a dataset per operational store).
    every_store = stores["operational"] + stores["warehouse"]
    reachable = {
        id(row) for store in every_store for table in store.tables()
        for row in table._rows.values()
    }  # fmt: skip
    assert len(reachable) <= 2 * STUDENTS + _private_rows(every_store)
    assert sum(len(table) for store in every_store for table in store.tables()) == (
        (REPLICAS // 2 + 1) * STUDENTS
    )


def _objects_a_deployment_adds(students):
    student_database(students)  # the master copy is generated once per process
    with cyclic_gc_off():
        before = len(gc.get_objects())
        system = WhisperSystem(ScenarioConfig(seed=42, replicas=REPLICAS, students=students))
        service = system.deploy_student_service()
        added = len(gc.get_objects()) - before
    assert len(service.group.peers) == REPLICAS
    return added


def test_what_a_member_costs_does_not_depend_on_the_dataset_size():
    """GC-tracked objects added by a 16-replica deployment (parent: 7 418 at
    ``students=200``, 36 218 at 2 000 — a row dict and a list per row per
    operational store)."""
    small, large = _objects_a_deployment_adds(200), _objects_a_deployment_adds(STUDENTS)
    assert abs(large - small) <= 50, (small, large)
    assert large < 6000


def test_the_warehouse_etl_leaves_its_source_shared():
    """``build_warehouse`` reads every row and keeps none: it must not make
    2 000 rows private only to throw them away."""
    operational = student_database(STUDENTS)
    warehouse = build_warehouse(operational)
    assert len(warehouse.table("dw_students")) == STUDENTS
    assert operational.table("students").private_rows == 0
    assert operational.reads == 0
