"""The ``Schema.validate_value`` that the set-free rewrite replaced, kept as the oracle.

Until the rewrite, every call re-split its type name through
``Schema._local`` and every dict value rebuilt the set of declared element
names to find extraneous keys (DESIGN.md §6.18).  This is that body,
unchanged but for taking the schema as an argument, so
``tests/wsdl/test_schema_oracle.py`` can require that the rewrite accepts
exactly what it accepts and raises the same message where it raises.
"""

from typing import Any

from repro.wsdl.schema import BUILTIN_TYPES, Schema, SchemaError


def _local(type_name: str) -> tuple:
    """Split ``xsd:string`` / ``tns:StudentInfo`` into (prefix, local)."""
    if ":" in type_name:
        prefix, local = type_name.split(":", 1)
        return prefix, local
    return "", type_name


def validate_value(schema: Schema, type_name: str, value: Any) -> None:
    """Raise :class:`SchemaError` unless ``value`` conforms to the type."""
    prefix, local = _local(type_name)
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

    complex_type = schema.complex_types.get(local)
    if complex_type is None:
        raise SchemaError(f"unknown type {type_name!r}")
    if not isinstance(value, dict):
        raise SchemaError(
            f"complex type {type_name!r} requires a dict, got {type(value).__name__}"
        )
    for declaration in complex_type.elements:
        if declaration.name not in value:
            if declaration.required:
                raise SchemaError(
                    f"missing required element {declaration.name!r} "
                    f"of {type_name!r}"
                )
            continue
        item = value[declaration.name]
        if declaration.repeated:
            if not isinstance(item, list):
                raise SchemaError(
                    f"element {declaration.name!r} of {type_name!r} repeats; "
                    "expected a list"
                )
            for entry in item:
                validate_value(schema, declaration.type_name, entry)
        else:
            validate_value(schema, declaration.type_name, item)
    extraneous = set(value) - {d.name for d in complex_type.elements}
    if extraneous:
        raise SchemaError(
            f"unexpected elements {sorted(extraneous)} for {type_name!r}"
        )
