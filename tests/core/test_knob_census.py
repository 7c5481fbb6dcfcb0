"""Every ``ScenarioConfig`` field is a knob some caller turns.

A field nothing outside ``config.py`` ever passes is a constant wearing
an option's clothes: it costs a parameter in every layer it is threaded
through and is exercised at one value only.  The census reads the
keyword names of every ``ScenarioConfig(...)`` and ``<config>.replace(...)``
call under ``src/``, ``bench_e2e/`` and ``benchmarks/``; a field that
appears in none must be listed below with the reason it stays.
"""

import ast
import dataclasses
from pathlib import Path

from repro.core import ScenarioConfig

ROOT = Path(__file__).resolve().parents[2]
CALLER_TREES = ("src", "bench_e2e", "benchmarks")

#: Fields kept although no caller passes them, each with its reason.
ALLOWED_UNSET = {
    "journal_capacity": "bench_e2e reads ScenarioConfig().journal_capacity to size its soak",
    "warehouse_every": "bench_e2e's ladder_full reads it to place its warehouse replicas",
    "record_trace_details": "per-message records: examples/operations.py and the kernel oracle",
}


def _keywords_passed():
    passed = set()
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name == "config.py" and path.parent.name == "core":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "ScenarioConfig") or (
                    isinstance(func, ast.Attribute) and func.attr == "replace"
                ):
                    passed.update(kw.arg for kw in node.keywords if kw.arg)
    return passed


def test_every_field_is_passed_by_some_caller_or_allowlisted():
    fields = {field.name for field in dataclasses.fields(ScenarioConfig)}
    unset = fields - _keywords_passed()
    assert unset == set(ALLOWED_UNSET), (
        f"never passed and not allowlisted: {sorted(unset - set(ALLOWED_UNSET))}; "
        f"allowlisted but passed (or gone): {sorted(set(ALLOWED_UNSET) - unset)}"
    )
