"""Unit tests for the XML-Schema subset."""

import pytest

from repro.wsdl import ComplexType, ElementDecl, Schema, SchemaError


@pytest.fixture
def schema():
    s = Schema(target_namespace="http://t.org/svc")
    s.add_complex_type(
        ComplexType(
            name="PersonType",
            elements=[
                ElementDecl("name", "xsd:string"),
                ElementDecl("age", "xsd:int", min_occurs=0),
                ElementDecl("tags", "xsd:string", min_occurs=0, max_occurs=-1),
            ],
        )
    )
    s.add_element(ElementDecl("Person", "tns:PersonType"))
    s.add_element(ElementDecl("Id", "xsd:string"))
    return s


class TestSimpleTypes:
    @pytest.mark.parametrize(
        "type_name,value",
        [
            ("xsd:string", "hello"),
            ("xsd:int", 42),
            ("xsd:float", 1.5),
            ("xsd:float", 2),
            ("xsd:boolean", True),
            ("xsd:date", "2026-07-07"),
        ],
    )
    def test_accepts_conforming(self, schema, type_name, value):
        schema.validate_value(type_name, value)

    @pytest.mark.parametrize(
        "type_name,value",
        [
            ("xsd:string", 1),
            ("xsd:int", "42"),
            ("xsd:int", True),  # bool is not an int here
            ("xsd:boolean", 1),
        ],
    )
    def test_rejects_nonconforming(self, schema, type_name, value):
        with pytest.raises(SchemaError):
            schema.validate_value(type_name, value)

    def test_unknown_builtin_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_value("xsd:quaternion", 1)


class TestComplexTypes:
    def test_valid_struct(self, schema):
        schema.validate_value("tns:PersonType", {"name": "Ana", "age": 30})

    def test_optional_element_may_be_absent(self, schema):
        schema.validate_value("tns:PersonType", {"name": "Ana"})

    def test_missing_required_rejected(self, schema):
        with pytest.raises(SchemaError, match="required"):
            schema.validate_value("tns:PersonType", {"age": 30})

    def test_extraneous_rejected(self, schema):
        with pytest.raises(SchemaError, match="unexpected"):
            schema.validate_value("tns:PersonType", {"name": "Ana", "ghost": 1})

    def test_repeated_element_takes_list(self, schema):
        schema.validate_value("tns:PersonType", {"name": "Ana", "tags": ["a", "b"]})

    def test_repeated_element_rejects_scalar(self, schema):
        with pytest.raises(SchemaError, match="repeats"):
            schema.validate_value("tns:PersonType", {"name": "Ana", "tags": "a"})

    def test_repeated_element_items_typed(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_value("tns:PersonType", {"name": "Ana", "tags": [1]})

    def test_non_dict_rejected(self, schema):
        with pytest.raises(SchemaError, match="dict"):
            schema.validate_value("tns:PersonType", "Ana")

    def test_unknown_type_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_value("tns:Ghost", {})


class TestGlobalElements:
    def test_validate_element(self, schema):
        schema.validate_element("Person", {"name": "Ana"})
        schema.validate_element("Id", "S1")

    def test_unknown_element_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_element("Ghost", {})

    def test_duplicate_declarations_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.add_element(ElementDecl("Person", "xsd:string"))
        with pytest.raises(SchemaError):
            schema.add_complex_type(ComplexType("PersonType"))
