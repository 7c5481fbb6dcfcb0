"""Every option is a knob some caller turns.

A field nothing outside ``config.py`` ever passes is a constant wearing
an option's clothes: it costs a parameter in every layer it is threaded
through and is exercised at one value only.  The census reads the
keyword names of every ``ScenarioConfig(...)`` and ``<config>.replace(...)``
call under ``src/``, ``bench_e2e/`` and ``benchmarks/``; a field that
appears in none must be listed below with the reason it stays.  The same
rule holds for the specs a ``ScenarioConfig`` carries, for the checker's
two scenarios, and for the gated benches: a runner takes exactly the
keywords its command reads off the command line.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.check import CheckScenario, SagaCheckScenario
from repro.cli import _GATED
from repro.core import ScenarioConfig
from repro.core.autoscale import AutoscaleSpec
from repro.core.breaker import BreakerSpec
from repro.core.rescache import ResultCacheSpec
from repro.core.topology import GossipSpec, RegionSpec, Topology, WanLinkSpec

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


#: The nested specs: ``ScenarioConfig(autoscale=, circuit_breaker=,
#: result_cache=, topology=)`` and what a ``Topology`` is built from.
SPECS = (
    AutoscaleSpec,
    BreakerSpec,
    ResultCacheSpec,
    Topology,
    RegionSpec,
    WanLinkSpec,
    GossipSpec,
)

#: Spec fields only tests set, each naming the test that does.
SPEC_ALLOWED_UNSET = {
    (AutoscaleSpec, "drain_settle"): (
        "tests/core/test_autoscale_cooldown.py stretches the retirement"
    ),
    (BreakerSpec, "half_open_probes"): (
        "tests/core/test_breaker.py::test_half_open_caps_concurrent_probes"
    ),
    (RegionSpec, "loss_rate"): (
        "tests/core/test_topology.py::TestSpecs::test_region_rejects_bad_loss_rate"
    ),
}


def test_every_spec_field_is_passed_by_some_caller_or_allowlisted():
    _assert_passed_or_allowlisted(SPECS, SPEC_ALLOWED_UNSET)


#: Scenario fields no caller outside ``tests/`` passes, each with its reason.
SCENARIO_ALLOWED_UNSET = {
    (CheckScenario, "settle"): "tests shorten the run to keep tier-1 fast",
    (CheckScenario, "probe_duration"): "tests shorten the run to keep tier-1 fast",
    (CheckScenario, "cooldown"): "tests shorten the run to keep tier-1 fast",
    (SagaCheckScenario, "cooldown"): "tests shorten the run to keep tier-1 fast",
}


def _fields_passed(cls):
    """Fields named by ``<cls>(...)`` calls outside ``tests/`` (keywords,
    and positional arguments by field order) and by the keywords of
    ``<...scenario...>.replace(...)`` calls (a ``replace`` counts when its
    receiver's source names a scenario, which sets it apart from
    ``config.replace``)."""
    names = [field.name for field in dataclasses.fields(cls)]
    passed = set()
    for tree in CALLER_TREES + ("examples",):
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == cls.__name__:
                    passed.update(names[: len(node.args)])
                    passed.update(kw.arg for kw in node.keywords if kw.arg)
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "replace"
                    and "scenario" in ast.unparse(func.value).lower()
                ):
                    passed.update(kw.arg for kw in node.keywords if kw.arg)
    return passed


def _assert_passed_or_allowlisted(classes, allowlist):
    for cls in classes:
        fields = {field.name for field in dataclasses.fields(cls)}
        unset = fields - _fields_passed(cls)
        allowed = {name for (owner, name) in allowlist if owner is cls}
        assert unset == allowed, (
            f"{cls.__name__}: never passed and not allowlisted: "
            f"{sorted(unset - allowed)}; allowlisted but passed (or gone): "
            f"{sorted(allowed - unset)}"
        )


def test_every_scenario_field_is_passed_by_some_caller_or_allowlisted():
    _assert_passed_or_allowlisted((CheckScenario, SagaCheckScenario), SCENARIO_ALLOWED_UNSET)


def test_every_gated_runner_parameter_is_a_command_line_keyword():
    for command, (run, _format, keywords, _help) in _GATED.items():
        parameters = set(inspect.signature(run).parameters) - {"progress"}
        assert parameters == set(keywords), (command, sorted(parameters))
