"""Unit tests for stores, datasets, the warehouse, and service impls."""

import pytest

from repro.backend import (
    BackendUnavailable,
    Database,
    RecordNotFound,
    build_warehouse,
    claim_assessment,
    claims_database,
    loan_approval,
    loans_database,
    patient_record_retrieval,
    patients_database,
    student_database,
    student_lookup_operational,
    student_lookup_warehouse,
    warehouse_lookup,
)


class TestTableAndDatabase:
    def test_insert_get(self):
        db = Database("d")
        table = db.create_table("t", primary_key="id")
        table.insert({"id": 1, "name": "x"})
        assert db.read("t", 1)["name"] == "x"

    def test_get_returns_copy(self):
        db = Database("d")
        table = db.create_table("t", primary_key="id")
        table.insert({"id": 1, "name": "x"})
        row = db.read("t", 1)
        row["name"] = "mutated"
        assert db.read("t", 1)["name"] == "x"

    def test_iteration_and_select_return_copies(self):
        """What leaves a table is the caller's to keep: rewriting a row that
        iteration or ``select`` handed out is not a write to the store (it
        was until PR 21 — past ``writes`` and the availability check)."""
        db = Database("d")
        table = db.create_table("t", primary_key="id")
        table.insert({"id": 1, "name": "x"})
        table.insert({"id": 2, "name": "y"})
        for row in [*table, *table.select(lambda row: True)]:
            row["name"] = "mutated"
            del row["id"]
        assert [db.read("t", key) for key in (1, 2)] == [
            {"id": 1, "name": "x"}, {"id": 2, "name": "y"}
        ]  # fmt: skip
        assert list(table) == [{"id": 1, "name": "x"}, {"id": 2, "name": "y"}]
        assert db.writes == 0

    def test_insert_requires_primary_key(self):
        table = Database("d").create_table("t", primary_key="id")
        with pytest.raises(ValueError):
            table.insert({"name": "x"})

    def test_missing_record(self):
        db = Database("d")
        db.create_table("t", primary_key="id")
        with pytest.raises(RecordNotFound):
            db.read("t", 99)

    def test_select_predicate(self):
        table = Database("d").create_table("t", primary_key="id")
        for index in range(10):
            table.insert({"id": index, "even": index % 2 == 0})
        assert len(table.select(lambda row: row["even"])) == 5

    def test_update(self):
        db = Database("d")
        table = db.create_table("t", primary_key="id")
        table.insert({"id": 1, "v": "old"})
        table.update(1, {"v": "new"})
        assert db.read("t", 1)["v"] == "new"

    def test_delete(self):
        table = Database("d").create_table("t", primary_key="id")
        table.insert({"id": 1})
        assert table.delete(1)
        assert not table.delete(1)

    def test_duplicate_table_rejected(self):
        db = Database("d")
        db.create_table("t", primary_key="id")
        with pytest.raises(ValueError):
            db.create_table("t", primary_key="id")

    def test_fail_and_restore(self):
        db = Database("d")
        table = db.create_table("t", primary_key="id")
        table.insert({"id": 1})
        db.fail()
        with pytest.raises(BackendUnavailable):
            db.read("t", 1)
        with pytest.raises(BackendUnavailable):
            db.write("t", {"id": 2})
        db.restore()
        assert db.read("t", 1) == {"id": 1}

    def test_read_write_counters(self):
        db = Database("d")
        db.create_table("t", primary_key="id")
        db.write("t", {"id": 1})
        db.read("t", 1)
        assert (db.reads, db.writes) == (1, 1)


class TestDatasets:
    def test_student_database_shape(self):
        db = student_database(count=50)
        assert len(db.table("students")) == 50
        row = db.read("students", "S00001")
        assert set(row) >= {"student_id", "name", "degree", "email", "enrolled_courses"}

    def test_datasets_deterministic(self):
        a = student_database(count=20).read("students", "S00007")
        b = student_database(count=20).read("students", "S00007")
        assert a == b

    def test_student_database_copies_are_independent(self):
        """The seeded rows are generated once and handed out as copies
        (PR 15) that share every row neither has touched (PR 21): nothing
        done to one copy may show in another, including through the
        ``enrolled_courses`` list a row carries — which is what a read
        hands out of the stored row itself."""
        first, second = student_database(count=30), student_database(count=30)
        pristine = list(student_database(count=30).table("students"))
        courses = first.read("students", "S00001")["enrolled_courses"]
        courses.append("X999")
        assert "X999" in first.read("students", "S00001")["enrolled_courses"]
        assert courses is not second.read("students", "S00001")["enrolled_courses"]
        for row in first.table("students"):
            row["enrolled_courses"].append("Y999")
        first.update("students", "S00002", {"degree": "Alchemy"})
        first.table("students").delete("S00003")
        first.record_effect("inv-1", "peer-a")
        first.fail()
        assert second.available and second.writes == 0 and second.effect_log == []
        assert list(second.table("students")) == pristine
        assert list(student_database(count=30).table("students")) == pristine

    def test_database_copy_is_pristine_and_deep_enough(self):
        original = student_database(count=10)
        original.read("students", "S00001")
        original.record_effect("inv-1", "peer-a")
        original.fail()
        clone = original.copy()
        assert clone.name == original.name
        assert clone.available and clone.reads == 0 and clone.effect_log == []
        original.restore()
        assert list(clone.table("students")) == list(original.table("students"))
        clone.read("students", "S00001")["enrolled_courses"].append("X999")
        assert "X999" in clone.read("students", "S00001")["enrolled_courses"]
        assert "X999" not in original.read("students", "S00001")["enrolled_courses"]

    @pytest.mark.parametrize(
        "factory,table,prefix",
        [
            (claims_database, "claims", "C"),
            (loans_database, "loans", "L"),
            (patients_database, "patients", "H"),
        ],
    )
    def test_other_domains(self, factory, table, prefix):
        db = factory(count=30)
        assert len(db.table(table)) == 30
        assert db.read(table, f"{prefix}00001")


class TestWarehouse:
    def test_etl_preserves_row_count(self):
        operational = student_database(count=40)
        warehouse = build_warehouse(operational)
        assert len(warehouse.table("dw_students")) == 40

    def test_lookup_restores_operational_shape(self):
        operational = student_database(count=10)
        warehouse = build_warehouse(operational)
        original = operational.read("students", "S00003")
        restored = warehouse_lookup(warehouse, "students", "S00003")
        assert restored == original

    def test_single_item_list_roundtrips(self):
        operational = Database("x-operational")
        table = operational.create_table("things", primary_key="id")
        table.insert({"id": "a", "tags": ["only-one"]})
        warehouse = build_warehouse(operational)
        assert warehouse_lookup(warehouse, "things", "a")["tags"] == ["only-one"]

    def test_empty_list_roundtrips(self):
        operational = Database("x-operational")
        table = operational.create_table("things", primary_key="id")
        table.insert({"id": "a", "tags": []})
        warehouse = build_warehouse(operational)
        assert warehouse_lookup(warehouse, "things", "a")["tags"] == []

    def test_warehouse_independent_availability(self):
        operational = student_database(count=10)
        warehouse = build_warehouse(operational)
        operational.fail()
        assert warehouse_lookup(warehouse, "students", "S00001")
        with pytest.raises(BackendUnavailable):
            operational.read("students", "S00001")


class TestServiceImplementations:
    def test_operational_and_warehouse_agree(self):
        db = student_database(count=20)
        warehouse = build_warehouse(db)
        op = student_lookup_operational(db)
        dw = student_lookup_warehouse(warehouse)
        a = op.invoke({"ID": "S00005"})
        b = dw.invoke({"ID": "S00005"})
        assert a["source"] == "operational-db"
        assert b["source"] == "data-warehouse"
        for key in ("studentId", "name", "degree", "email", "enrolledCourses"):
            assert a[key] == b[key]

    def test_missing_argument_rejected(self):
        impl = student_lookup_operational(student_database(count=5))
        with pytest.raises(ValueError, match="ID"):
            impl.invoke({})

    def test_unknown_student_raises(self):
        impl = student_lookup_operational(student_database(count=5))
        with pytest.raises(RecordNotFound):
            impl.invoke({"ID": "S99999"})

    def test_backend_failure_propagates(self):
        db = student_database(count=5)
        impl = student_lookup_operational(db)
        db.fail()
        with pytest.raises(BackendUnavailable):
            impl.invoke({"ID": "S00001"})

    def test_invocation_counter(self):
        impl = student_lookup_operational(student_database(count=5))
        impl.invoke({"ID": "S00001"})
        impl.invoke({"ID": "S00002"})
        assert impl.invocations == 2

    def test_claim_assessment_decision(self):
        impl = claim_assessment(claims_database(count=50))
        result = impl.invoke({"request": "C00001"})
        assert result["assessment"] in {"approve", "escalate", "closed"}

    def test_loan_approval_consistent_with_score(self):
        db = loans_database(count=50)
        impl = loan_approval(db)
        for index in range(1, 51):
            loan_id = f"L{index:05d}"
            row = db.read("loans", loan_id)
            result = impl.invoke({"request": loan_id})
            assert result["approved"] == row["approved"]

    def test_patient_record(self):
        impl = patient_record_retrieval(patients_database(count=10))
        result = impl.invoke({"request": "H00004"})
        assert result["patientId"] == "H00004"
        assert isinstance(result["conditions"], list)
