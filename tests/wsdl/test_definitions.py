"""Unit tests for the WSDL document model and WSDL-S annotations."""

import pytest

from repro.ontology import SM, university_ontology
from repro.wsdl import (
    Interface,
    MessagePart,
    Operation,
    SemanticAnnotation,
    WsdlError,
    student_management_wsdl,
)


@pytest.fixture
def definitions():
    return student_management_wsdl()


class TestModel:
    def test_single_interface(self, definitions):
        interface = definitions.single_interface()
        assert interface.name == "StudentManagementUMA"

    def test_operation_lookup(self, definitions):
        operation = definitions.single_interface().operation("StudentInformation")
        assert operation.name == "StudentInformation"

    def test_missing_operation_raises(self, definitions):
        with pytest.raises(WsdlError):
            definitions.single_interface().operation("Ghost")

    def test_duplicate_interface_rejected(self, definitions):
        with pytest.raises(WsdlError):
            definitions.add_interface(Interface(name="StudentManagementUMA"))

    def test_duplicate_operation_rejected(self, definitions):
        interface = definitions.single_interface()
        with pytest.raises(WsdlError):
            interface.add_operation(Operation(name="StudentInformation"))

    def test_single_interface_requires_exactly_one(self, definitions):
        definitions.add_interface(Interface(name="Second"))
        with pytest.raises(WsdlError):
            definitions.single_interface()

    def test_operations_lists_all(self, definitions):
        assert [op.name for op in definitions.operations()] == ["StudentInformation"]


class TestAnnotations:
    def test_annotation_extracts_triple(self, definitions):
        annotation = definitions.single_interface().operation(
            "StudentInformation"
        ).annotation()
        assert annotation.action == SM["StudentInformation"]
        assert annotation.inputs == (SM["StudentID"],)
        assert annotation.outputs == (SM["StudentInfo"],)

    def test_unannotated_action_raises(self):
        operation = Operation(name="Op", inputs=[], outputs=[])
        with pytest.raises(WsdlError, match="action"):
            operation.annotation()

    def test_unannotated_part_raises(self):
        operation = Operation(
            name="Op",
            action="http://x#A",
            inputs=[MessagePart("in", "tns:In")],  # no model reference
        )
        assert not operation.is_annotated
        with pytest.raises(WsdlError, match="unannotated"):
            operation.annotation()

    def test_is_annotated_true_for_sample(self, definitions):
        assert definitions.single_interface().operation("StudentInformation").is_annotated

    def test_unresolved_in_reports_missing(self):
        annotation = SemanticAnnotation(
            action="http://ghost#A", inputs=("http://ghost#B",), outputs=()
        )
        onto = university_ontology()
        assert set(annotation.unresolved_in(onto)) == {"http://ghost#A", "http://ghost#B"}

    def test_all_concepts(self):
        annotation = SemanticAnnotation(action="a", inputs=("b",), outputs=("c", "d"))
        assert annotation.all_concepts() == ["a", "b", "c", "d"]
