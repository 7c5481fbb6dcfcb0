"""A working subset of XML Schema for WSDL message types.

WSDL describes message parts with XML-Schema elements.  Whisper only needs
enough of XSD to (a) give each part a named, structured type and (b)
validate the Python values that flow through SOAP encoding.  We support the
usual built-in simple types plus named complex types with element fields.

Every proxy reply is validated, so validation splits type names inline
and finds extraneous keys by counting, building no set unless to word the
error; there is no per-type plan cache (DESIGN.md §6.18 has the numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = [
    "XSD_NS",
    "BUILTIN_TYPES",
    "ElementDecl",
    "ComplexType",
    "Schema",
    "SchemaError",
]

XSD_NS = "http://www.w3.org/2001/XMLSchema"

#: Built-in simple types and the Python types they accept.
BUILTIN_TYPES: Dict[str, tuple] = {
    "string": (str,),
    "int": (int,),
    "integer": (int,),
    "long": (int,),
    "float": (int, float),
    "double": (int, float),
    "decimal": (int, float),
    "boolean": (bool,),
    "date": (str,),
    "dateTime": (str,),
    "anyURI": (str,),
}


class SchemaError(Exception):
    """Raised when a value does not conform to its declared type."""


@dataclass
class ElementDecl:
    """One field of a complex type (or a global element declaration)."""

    name: str
    type_name: str  # "xsd:string" or a schema-local complex type name
    min_occurs: int = 1
    max_occurs: int = 1  # -1 means unbounded

    @property
    def required(self) -> bool:
        return self.min_occurs >= 1

    @property
    def repeated(self) -> bool:
        return self.max_occurs == -1 or self.max_occurs > 1


@dataclass
class ComplexType:
    """A named sequence of element declarations."""

    name: str
    elements: List[ElementDecl] = field(default_factory=list)


class Schema:
    """A collection of named types plus global element declarations."""

    def __init__(self, target_namespace: str = ""):
        self.target_namespace = target_namespace
        self.complex_types: Dict[str, ComplexType] = {}
        self.elements: Dict[str, ElementDecl] = {}

    # -- construction ------------------------------------------------------------

    def add_complex_type(self, complex_type: ComplexType) -> ComplexType:
        if complex_type.name in self.complex_types:
            raise SchemaError(f"duplicate complex type {complex_type.name!r}")
        self.complex_types[complex_type.name] = complex_type
        return complex_type

    def add_element(self, element: ElementDecl) -> ElementDecl:
        if element.name in self.elements:
            raise SchemaError(f"duplicate element {element.name!r}")
        self.elements[element.name] = element
        return element

    # -- validation ------------------------------------------------------------------

    def validate_value(self, type_name: str, value: Any) -> None:
        """Raise :class:`SchemaError` unless ``value`` conforms to the type.

        Simple types accept matching Python scalars; complex types accept
        dicts keyed by element name (repeated elements take lists).
        With a type's element names distinct, a dict has an undeclared key
        exactly when it has more keys than declarations present.
        """
        prefix, colon, local = type_name.partition(":")
        if not colon:
            prefix, local = "", type_name
        if prefix in ("xsd", "xs"):
            expected = BUILTIN_TYPES.get(local)
            if expected is None:
                raise SchemaError(f"unknown built-in type {type_name!r}")
            # bool is an int subclass: reject bools for numeric types.
            if isinstance(value, bool) and bool not in expected:
                raise SchemaError(f"{value!r} is not a {type_name}")
            if not isinstance(value, expected):
                raise SchemaError(
                    f"{value!r} ({type(value).__name__}) is not a {type_name}"
                )
            return

        complex_type = self.complex_types.get(local)
        if complex_type is None:
            raise SchemaError(f"unknown type {type_name!r}")
        if not isinstance(value, dict):
            raise SchemaError(
                f"complex type {type_name!r} requires a dict, got {type(value).__name__}"
            )
        present = 0
        for declaration in complex_type.elements:
            if declaration.name not in value:
                if declaration.required:
                    raise SchemaError(
                        f"missing required element {declaration.name!r} "
                        f"of {type_name!r}"
                    )
                continue
            present += 1
            item = value[declaration.name]
            if declaration.repeated:
                if not isinstance(item, list):
                    raise SchemaError(
                        f"element {declaration.name!r} of {type_name!r} repeats; "
                        "expected a list"
                    )
                for entry in item:
                    self.validate_value(declaration.type_name, entry)
            else:
                self.validate_value(declaration.type_name, item)
        if present < len(value):
            extraneous = set(value) - {d.name for d in complex_type.elements}
            raise SchemaError(
                f"unexpected elements {sorted(extraneous)} for {type_name!r}"
            )

    def validate_element(self, element_name: str, value: Any) -> None:
        """Validate against a global element declaration."""
        declaration = self.elements.get(element_name)
        if declaration is None:
            raise SchemaError(f"unknown global element {element_name!r}")
        self.validate_value(declaration.type_name, value)
