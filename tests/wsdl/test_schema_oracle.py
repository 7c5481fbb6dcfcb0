"""``Schema.validate_value`` against the body it replaced (``schema_oracle.py``).

Seeded random schemas (simple, complex, nested and repeated elements,
optional and required) and values drawn around them — conforming ones and
ones with a required element missing, an extraneous key, a scalar where a
list repeats, a bool where an int is declared, a wrong scalar type, a
non-dict for a complex type, unknown type names.  The rewrite must accept
exactly where the oracle accepts and, where the oracle raises, raise the
same exception type with the same message.

Element names within one generated type are distinct: a value is a dict,
which cannot carry one name twice, and extraneous keys are found by
counting declarations present (DESIGN.md §6.18).
"""

from __future__ import annotations

import random

import pytest

from repro.wsdl.schema import BUILTIN_TYPES, ComplexType, ElementDecl, Schema

from . import schema_oracle

SCALARS = {
    "string": ["", "S00001", "a:b"],
    "int": [0, 7, -3],
    "float": [1.5, 2, -0.25],
    "boolean": [True, False],
    "date": ["2026-07-07"],
}
NAMES = ["id", "name", "age", "tags", "score", "active", "when", "note", "child", "items"]


def _random_schema(rng: random.Random) -> Schema:
    schema = Schema(target_namespace="http://t.org/svc")
    for index in range(rng.randint(1, 4)):
        elements = []
        for name in rng.sample(NAMES, rng.randint(0, 6)):
            if index and rng.random() < 0.25:
                type_name = rng.choice(["tns:", ""]) + f"T{rng.randrange(index)}"
            else:
                type_name = rng.choice(["xsd:", "xs:"]) + rng.choice(sorted(SCALARS))
            elements.append(ElementDecl(
                name, type_name,
                min_occurs=rng.choice([0, 1, 1]),
                max_occurs=rng.choice([1, 1, -1, 3]),
            ))
        schema.add_complex_type(ComplexType(f"T{index}", elements))
    return schema


def _conforming(rng: random.Random, schema: Schema, type_name: str):
    local = type_name.partition(":")[2] or type_name
    if type_name.startswith(("xsd:", "xs:")):
        return rng.choice(SCALARS[local])
    value = {}
    for declaration in schema.complex_types[local].elements:
        if not declaration.required and rng.random() < 0.4:
            continue
        if declaration.repeated:
            value[declaration.name] = [
                _conforming(rng, schema, declaration.type_name)
                for _ in range(rng.randint(0, 3))
            ]
        else:
            value[declaration.name] = _conforming(rng, schema, declaration.type_name)
    return value


def _mutated(rng: random.Random, value):
    """One defect somewhere in ``value`` (or none, a quarter of the time)."""
    if not isinstance(value, dict) or rng.random() < 0.25:
        if rng.random() < 0.5:
            return value
        return rng.choice([True, 1, 1.0, "x", None, [value], {"k": value}])
    value = dict(value)
    defect = rng.choice(["missing", "extraneous", "scalar-for-list", "bool", "nested"])
    if defect == "missing" and value:
        del value[rng.choice(sorted(value))]
    elif defect == "extraneous":
        value[rng.choice(NAMES + ["ghost", "zz"])] = rng.choice(["x", 1, True])
    elif defect == "scalar-for-list":
        lists = [key for key, item in value.items() if isinstance(item, list)]
        if lists:
            key = rng.choice(lists)
            value[key] = value[key][0] if value[key] else "x"
    elif defect == "bool":
        ints = [key for key, item in value.items() if type(item) is int]
        if ints:
            value[rng.choice(ints)] = rng.choice([True, False])
    elif value:
        key = rng.choice(sorted(value))
        value[key] = _mutated(rng, value[key])
    return value


def _outcome(validate, *arguments):
    try:
        validate(*arguments)
    except Exception as error:  # the type is part of what is compared
        return type(error), str(error)
    return None


def _type_names(rng: random.Random, schema: Schema):
    names = [f"{prefix}{name}" for name in schema.complex_types for prefix in ("tns:", "")]
    names += [f"{prefix}{name}" for name in BUILTIN_TYPES for prefix in ("xsd:", "xs:")]
    names += ["xsd:quaternion", "tns:Ghost", "Ghost", "a:b:T0", ":T0", "xsd:"]
    return rng.sample(names, min(len(names), 8))


@pytest.mark.parametrize("seed", range(40))
def test_rewrite_agrees_with_the_oracle(seed):
    rng = random.Random(seed)
    tally = {"accepted": 0, "rejected": 0}
    for _ in range(5):
        schema = _random_schema(rng)
        for type_name in _type_names(rng, schema):
            local = type_name.partition(":")[2] or type_name
            conforms = local in schema.complex_types or (
                type_name.startswith(("xsd:", "xs:")) and local in SCALARS
            )
            for _ in range(10):
                base = _conforming(rng, schema, type_name) if conforms else "x"
                value = _mutated(rng, base)
                expected = _outcome(schema_oracle.validate_value, schema, type_name, value)
                actual = _outcome(schema.validate_value, type_name, value)
                assert actual == expected, (type_name, value)
                tally["accepted" if expected is None else "rejected"] += 1
    # Both sides of the comparison were exercised.
    assert tally["accepted"] >= 20 and tally["rejected"] >= 20, tally


def test_each_defect_is_worded_as_before():
    schema = Schema()
    schema.add_complex_type(ComplexType("Person", [
        ElementDecl("name", "xsd:string"),
        ElementDecl("age", "xsd:int", min_occurs=0),
        ElementDecl("tags", "xsd:string", min_occurs=0, max_occurs=-1),
    ]))
    cases = [
        ("tns:Person", {"name": "Ana"}),  # accepted
        ("tns:Person", {"age": 3}),  # missing
        ("tns:Person", {"name": "Ana", "zz": 1, "aa": 2}),  # extraneous, sorted
        ("tns:Person", {"name": "Ana", "tags": "x"}),  # scalar for a list
        ("tns:Person", {"name": "Ana", "age": True}),  # bool for an int
        ("tns:Person", {"name": "Ana", "tags": ["x", 3]}),  # wrong item type
        ("tns:Person", ["Ana"]),  # not a dict
        ("Person", {"name": "Ana"}),  # no prefix
        ("xsd:quaternion", 1),
        ("tns:Ghost", {}),
    ]
    for type_name, value in cases:
        assert _outcome(schema.validate_value, type_name, value) == _outcome(
            schema_oracle.validate_value, schema, type_name, value
        )
