"""Unit tests for WSDL-S XML reading/writing."""

import pytest

from repro.ontology import SM
from repro.wsdl import (
    WsdlError,
    bank_loans_wsdl,
    definitions_from_xml,
    definitions_to_xml,
    healthcare_wsdl,
    insurance_claims_wsdl,
    student_management_wsdl,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [student_management_wsdl, insurance_claims_wsdl, bank_loans_wsdl, healthcare_wsdl],
    )
    def test_annotation_survives_roundtrip(self, factory):
        original = factory()
        parsed = definitions_from_xml(definitions_to_xml(original))
        original_op = original.operations()[0]
        parsed_op = parsed.operations()[0]
        assert parsed_op.annotation() == original_op.annotation()

    def test_schema_survives_roundtrip(self):
        original = student_management_wsdl()
        parsed = definitions_from_xml(definitions_to_xml(original))
        assert "StudentInfoType" in parsed.schema.complex_types
        complex_type = parsed.schema.complex_types["StudentInfoType"]
        (courses,) = [e for e in complex_type.elements if e.name == "enrolledCourses"]
        assert courses.repeated
        assert not courses.required
        assert set(parsed.schema.elements) == {"StudentID", "StudentInfo"}

    def test_names_survive_roundtrip(self):
        parsed = definitions_from_xml(definitions_to_xml(student_management_wsdl()))
        assert parsed.name == "StudentManagement"
        assert parsed.single_interface().name == "StudentManagementUMA"

    def test_namespace_bindings_recovered(self):
        parsed = definitions_from_xml(definitions_to_xml(student_management_wsdl()))
        assert parsed.namespaces["sm"] == SM.uri


class TestPaperShorthand:
    """§3.1's listing uses element="sm:StudentID" as the concept itself."""

    PAPER_STYLE = """<?xml version="1.0" encoding="UTF-8"?>
<definitions name="StudentManagement"
             targetNamespace="http://uma.pt/services/StudentManagement"
             xmlns:sm="http://uma.pt/ontologies/student#">
  <interface name="StudentManagementUMA">
    <operation name="StudentInformation">
      <action element="sm:StudentInformation"/>
      <input messageLabel="ID" element="sm:StudentID"/>
      <output messageLabel="student" element="sm:StudentInfo"/>
    </operation>
  </interface>
</definitions>"""

    def test_shorthand_parses_to_concepts(self):
        parsed = definitions_from_xml(self.PAPER_STYLE)
        annotation = parsed.single_interface().operation("StudentInformation").annotation()
        assert annotation.action == SM["StudentInformation"]
        assert annotation.inputs == (SM["StudentID"],)
        assert annotation.outputs == (SM["StudentInfo"],)

    def test_message_labels_preserved(self):
        parsed = definitions_from_xml(self.PAPER_STYLE)
        operation = parsed.single_interface().operation("StudentInformation")
        assert operation.inputs[0].message_label == "ID"
        assert operation.outputs[0].message_label == "student"


class TestErrors:
    def test_malformed_xml_rejected(self):
        with pytest.raises(WsdlError):
            definitions_from_xml("<oops")

    def test_wrong_root_rejected(self):
        with pytest.raises(WsdlError):
            definitions_from_xml("<html/>")

    def test_nameless_definitions_rejected(self):
        with pytest.raises(WsdlError):
            definitions_from_xml("<definitions/>")
