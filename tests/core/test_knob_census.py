"""Every option is a knob some caller turns.

A parameter nothing outside ``tests/`` ever passes is a constant wearing
an option's clothes: it costs a parameter in every layer it is threaded
through and is exercised at one value only.  Five censuses hold the rule:

* ``ScenarioConfig``: every field is a keyword of some
  ``ScenarioConfig(...)`` or ``<config>.replace(...)`` call under ``src/``,
  ``bench_e2e/`` or ``benchmarks/``;
* the specs a ``ScenarioConfig`` carries, and the proxy's ``RetryPolicy``
  and ``QosProfile``: every constructor field is passed by some call;
* the checker's two scenarios, likewise;
* the gated benches: a runner takes exactly the keywords its command reads
  off the command line;
* every other function, method and constructor under ``src/repro``: every
  parameter with a default is passed, by keyword or by position, by some
  call under ``src/``, ``bench_e2e/``, ``benchmarks/`` or ``examples/``
  (:func:`unpassed_parameters` says how calls are matched).

What no such caller passes either becomes the constant it always was or
is listed below with the test that needs it as a seam; every test a
reason cites must exist, so a seam cannot outlive the test it is kept for.

A sixth holds the same rule for state: every attribute a component writes
(``self.<name> = …``) is read somewhere under ``src/``, ``tests/``,
``bench_e2e/``, ``benchmarks/`` or ``examples/``.
"""

import ast
import collections
import dataclasses
import inspect
import re
from pathlib import Path

from repro.check import CheckScenario, SagaCheckScenario
from repro.cli import _GATED
from repro.core import ScenarioConfig
from repro.core.autoscale import AutoscaleSpec
from repro.core.breaker import BreakerSpec
from repro.core.retry import RetryPolicy
from repro.core.rescache import ResultCacheSpec
from repro.core.topology import GossipSpec, RegionSpec, Topology, WanLinkSpec
from repro.qos.metrics import QosProfile

ROOT = Path(__file__).resolve().parents[2]
CALLER_TREES = ("src", "bench_e2e", "benchmarks")

#: Fields kept although no caller passes them, each with its reason.
ALLOWED_UNSET = {
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
#: result_cache=, topology=)`` and what a ``Topology`` is built from; and
#: the proxy's backoff and QoS estimate, which it builds itself.
SPECS = (
    AutoscaleSpec,
    BreakerSpec,
    ResultCacheSpec,
    Topology,
    RegionSpec,
    WanLinkSpec,
    GossipSpec,
    RetryPolicy,
    QosProfile,
)

#: Spec fields only tests set, each naming the test that does.
SPEC_ALLOWED_UNSET = {
    (AutoscaleSpec, "drain_settle"): (
        "tests/core/test_autoscale_cooldown.py stretches the retirement"
    ),
    (BreakerSpec, "half_open_probes"): (
        "tests/core/test_breaker.py::test_half_open_caps_concurrent_probes"
    ),
    (RetryPolicy, "base_delay"): (
        "tests/core/test_retry.py::TestRetryPolicy pins the backoff curve"
    ),
    (RetryPolicy, "multiplier"): (
        "tests/core/test_retry.py::TestRetryPolicy pins the backoff curve"
    ),
    (RetryPolicy, "max_delay"): (
        "tests/core/test_retry.py::TestRetryPolicy::test_max_delay_caps_the_raw_backoff"
    ),
    (RetryPolicy, "jitter"): (
        "tests/core/test_retry.py::TestRetryPolicy: jitter=0 makes the delays exact"
    ),
    (QosProfile, "alpha"): (
        "tests/qos/test_qos.py::TestProfile: alpha=0.5 moves the estimate in two steps"
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
        fields = {field.name for field in dataclasses.fields(cls) if field.init}
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


# -- every other parameter ---------------------------------------------------------------------

#: Parameters with a default that no call under ``src/``, ``bench_e2e/``,
#: ``benchmarks/`` or ``examples/`` passes, each naming the test that needs
#: it as a seam.  Keyed ``(qualified name, parameter)``, the qualified name
#: as ``make census`` prints it (``Class.method``, ``module.function``).
SCHEDULER_ORACLE = "tests/simnet/test_scheduler_equivalence.py"
PARAMETER_ALLOWED_UNSET = {
    ("ClosedLoopWorkload.__init__", "arguments"): (
        f"{SCHEDULER_ORACLE}::test_steady_state_write_costs_at_most_25_kernel_events "
        "drives writes"
    ),
    ("Environment.__init__", "tiebreak"): (
        f"{SCHEDULER_ORACLE}::TestKernelEquivalence builds the FifoTiebreak() oracle"
    ),
    ("Environment.timeout", "value"): (
        f"{SCHEDULER_ORACLE}::TestKernelEquivalence tags its timers"
    ),
    ("FaultCampaign.__init__", "partitions"): (
        "tests/bench/test_campaign.py::test_quiet_campaign_masks_everything runs none"
    ),
    ("Network.__init__", "default_latency"): (
        "tests/simnet/test_network.py::TestDelivery and "
        f"{SCHEDULER_ORACLE}::test_datagram_fast_and_fallback_branches_match_the_expanded_form "
        "pin delays with a ConstantLatency fake"
    ),
    ("Network.__init__", "default_bandwidth_bps"): (
        f"{SCHEDULER_ORACLE}::test_datagram_fast_and_fallback_branches_match_the_expanded_form "
        "collides arrivals on an infinite-bandwidth LAN"
    ),
    ("cli.main", "argv"): "tests/core/test_cli.py drives every command through main(argv)",
    ("datasets.claims_database", "count"): "tests/backend/test_backend.py builds small stores",
    ("datasets.loans_database", "count"): "tests/backend/test_backend.py builds small stores",
    ("datasets.patients_database", "count"): "tests/backend/test_backend.py builds small stores",
    ("encoding.encode_value", "name"): (
        "tests/properties/test_prop_encoding.py::test_value_roundtrips_through_serialised_xml"
    ),
    ("report.ascii_plot", "height"): "tests/bench/test_stats_harness.py draws small plots",
    ("report.ascii_plot", "width"): "tests/bench/test_stats_harness.py draws small plots",
}


#: A test a reason cites: ``tests/<path>.py``, then any ``::Class`` /
#: ``::function`` names, each defined (at any depth) inside the one
#: before it.
CITATION = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)*)")


def _cites_a_defined_test(path, names):
    if not path.is_file():
        return False
    scope = ast.parse(path.read_text(encoding="utf-8"))
    for name in names:
        scope = next(
            (
                node
                for node in ast.walk(scope)
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name == name
                and node is not scope
            ),
            None,
        )
        if scope is None:
            return False
    return True


def unresolved_citations(reasons, root=ROOT):
    """The ``tests/…py[::Name…]`` citations in ``reasons`` that name a
    missing file, or a class or function the file does not define."""
    return [
        match.group(0)
        for reason in reasons
        for match in CITATION.finditer(reason)
        if not _cites_a_defined_test(root / match.group(1), match.group(2).split("::")[1:])
    ]


def test_every_allowlist_reason_cites_a_test_that_exists():
    reasons = [
        *ALLOWED_UNSET.values(),
        *SPEC_ALLOWED_UNSET.values(),
        *SCENARIO_ALLOWED_UNSET.values(),
        *PARAMETER_ALLOWED_UNSET.values(),
    ]
    assert sum(len(CITATION.findall(reason)) for reason in reasons) > 10
    assert unresolved_citations(reasons) == []


def test_a_citation_must_name_a_defined_test():
    assert unresolved_citations(
        [
            "tests/core/test_knob_census.py::test_a_citation_must_name_a_defined_test",
            "tests/core/test_retry.py::TestRetryPolicy pins the backoff curve",
        ]
    ) == []
    assert unresolved_citations(
        [
            "tests/core/test_knob_census.py::test_that_is_gone",
            "tests/core/test_gone.py drives it",
            "tests/core/test_retry.py::TestRetryPolicy::test_that_is_gone",
        ]
    ) == [
        "tests/core/test_knob_census.py::test_that_is_gone",
        "tests/core/test_gone.py",
        "tests/core/test_retry.py::TestRetryPolicy::test_that_is_gone",
    ]


def _callees(func):
    """The names a call expression may resolve to: a name, an attribute,
    and both arms of ``(f if c else g)(...)``."""
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        return {func.attr}
    if isinstance(func, ast.IfExp):
        return _callees(func.body) | _callees(func.orelse)
    return set()


def _is_super_init(func):
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and _callees(func.value.func) == {"super"}
    )


def _locals(function):
    """Names a function binds: its parameters and assignment targets."""
    arguments = function.args
    names = {
        argument.arg
        for argument in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
    }
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


class _Definition:
    """One function under ``src/repro``: its defaulted parameters and the
    parameters a call's positional arguments fill."""

    def __init__(self, name, key, node, owner, enclosing):
        self.name, self.key, self.node, self.owner = name, key, node, owner
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        bound = owner is not None and not any(
            isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
            for decorator in node.decorator_list
        )
        self.positional = [argument.arg for argument in positional[int(bound):]]
        self.named = {argument.arg for argument in positional + arguments.kwonlyargs}
        first_default = len(positional) - len(arguments.defaults)
        defaults = list(zip(positional[first_default:], arguments.defaults))
        defaults += [
            (argument, default)
            for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
            if default is not None
        ]
        # ``def runner(child=child)`` inside a function binds a variable of
        # the enclosing scope; it is not an option.
        captured = _locals(enclosing) if enclosing is not None else set()
        self.defaults = {
            argument.arg
            for argument, default in defaults
            if not (isinstance(default, ast.Name) and default.id in captured)
        }


def _definitions(repro):
    """Every function under ``repro``, and every class's ``ClassDef`` by
    name (for constructors and ``super()``)."""
    definitions, classes = [], {}

    def walk(parent, path, prefix, owner, enclosing):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, node)
                name = node.name if prefix is None else f"{prefix}.{node.name}"
                walk(node, path, name, node, None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix or path.stem}.{node.name}"
                key = (path, node.lineno)
                definitions.append(_Definition(name, key, node, owner, enclosing))
                walk(node, path, name, None, node)
            else:
                walk(node, path, prefix, owner, enclosing)

    for path in sorted(repro.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), None, None, None)
    return definitions, classes


def _calls(roots):
    """``(call, enclosing function, enclosing class)`` for every call under
    ``roots``; the function is ``(key, node)``, keyed as definitions are."""
    found = []

    def walk(parent, path, enclosing, owner):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.Call):
                found.append((node, enclosing, owner))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(node, path, ((path, node.lineno), node), owner)
            elif isinstance(node, ast.ClassDef):
                walk(node, path, enclosing, node)
            else:
                walk(node, path, enclosing, owner)

    for root in roots:
        for path in sorted(root.rglob("*.py")):
            walk(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), None, None)
    return found


def _dict_keys(function):
    """String keys of the dict displays and ``dict(...)`` calls in
    ``function``: what a ``**mapping`` built there can carry."""
    keys = set()
    for node in ast.walk(function) if function is not None else ():
        if isinstance(node, ast.Dict):
            keys.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
        elif isinstance(node, ast.Call) and _callees(node.func) == {"dict"}:
            keys.update(keyword.arg for keyword in node.keywords if keyword.arg)
    return keys


def unpassed_parameters(repro, caller_roots, skip=frozenset()):
    """``(qualified name, parameter)`` for each defaulted parameter of a
    function under ``repro`` that no call under ``caller_roots`` passes.

    A call passes a parameter by keyword, or by position.  Calls match
    definitions by name, and four cases are resolved: ``super().__init__
    (...)`` calls the base's constructor; ``(f if c else g)(...)`` calls
    both; a ``**kwargs`` parameter forwarded into a call passes on what
    the forwarding function's own callers pass (a ``**mapping`` built in
    the calling function passes its literal keys); a nested function's
    default that names a local of the enclosing function captures a
    variable and is not counted.  ``functools.partial(f, ...)`` counts as
    a call of ``f``, and a function handed over as ``name=f`` is called by
    what calls ``name(...)``; a class with no ``__init__`` of its own is
    constructed by its first base's.  A definition named in ``skip``
    keeps its own rule.
    """
    definitions, classes = _definitions(repro)
    functions = collections.defaultdict(list)  # name -> definitions
    constructors = {}  # ClassDef -> its __init__
    for definition in definitions:
        if definition.node.name == "__init__" and definition.owner is not None:
            constructors[definition.owner] = definition
        else:
            functions[definition.node.name].append(definition)

    def constructor(class_name):
        seen = set()
        while class_name in classes and class_name not in seen:
            seen.add(class_name)
            node = classes[class_name]
            if node in constructors:
                return [constructors[node]]
            bases = [base.id for base in node.bases if isinstance(base, ast.Name)]
            class_name = bases[0] if bases else None
        return []

    calls = _calls(caller_roots)
    # ``ExactlyOnce(busy=self._busy_reply)``: the callee calls it ``busy``.
    aliases = collections.defaultdict(set)
    for call, _enclosing, _owner in calls:
        for keyword in call.keywords:
            for name in _callees(keyword.value) if keyword.arg else ():
                if name in functions:
                    aliases[keyword.arg].add(name)

    passed = collections.defaultdict(set)  # definition key -> parameters
    forwards = collections.defaultdict(set)  # forwarding key -> callees
    for call, enclosing, owner in calls:
        func, positional = call.func, call.args
        if _callees(func) == {"partial"} and positional:
            func, positional = positional[0], positional[1:]
        targets = []
        if _is_super_init(func):
            for base in owner.bases if owner is not None else ():
                if isinstance(base, ast.Name):
                    targets += constructor(base.id)
        else:
            names = _callees(func)
            for name in names | {alias for name in names for alias in aliases.get(name, ())}:
                targets += functions.get(name, []) + constructor(name)
        starred = any(isinstance(argument, ast.Starred) for argument in positional)
        keywords = {keyword.arg for keyword in call.keywords if keyword.arg}
        mappings = [keyword.value for keyword in call.keywords if keyword.arg is None]
        key, function = enclosing if enclosing is not None else (None, None)
        kwarg = function.args.kwarg.arg if function is not None and function.args.kwarg else None
        for definition in targets:
            filled = definition.positional if starred else definition.positional[: len(positional)]
            passed[definition.key].update(filled, keywords)
            for mapping in mappings:
                if isinstance(mapping, ast.Name) and mapping.id == kwarg:
                    forwards[key].add(definition.key)
                else:
                    passed[definition.key].update(_dict_keys(function))
    # What a ``**kwargs`` function's callers pass beyond its named
    # parameters, the calls it forwards them into pass.
    named = {definition.key: definition.named for definition in definitions}
    changed = True
    while changed:
        changed = False
        for source, callees in forwards.items():
            extra = passed[source] - named.get(source, set())
            for callee in callees:
                if not extra <= passed[callee]:
                    passed[callee] |= extra
                    changed = True
    return {
        (definition.name, parameter)
        for definition in definitions
        if definition.name not in skip
        for parameter in definition.defaults - passed[definition.key]
    }


def _gated_names():
    return {f"{run.__module__.rsplit('.', 1)[1]}.{run.__name__}" for run, *_ in _GATED.values()}


def test_every_parameter_is_passed_by_some_caller_or_allowlisted():
    unpassed = unpassed_parameters(
        ROOT / "src" / "repro",
        [ROOT / tree for tree in CALLER_TREES + ("examples",)],
        skip=_gated_names(),
    )
    allowed = set(PARAMETER_ALLOWED_UNSET)
    assert unpassed == allowed, (
        f"never passed and not allowlisted: {sorted(unpassed - allowed)}; "
        f"allowlisted but passed (or gone): {sorted(allowed - unpassed)}"
    )


def test_the_census_resolves_what_matching_by_name_misses(tmp_path):
    """The four call shapes a name match alone gets wrong, and a keyword
    nobody passes, on a throw-away tree."""
    repro, callers = tmp_path / "repro", tmp_path / "callers"
    repro.mkdir()
    callers.mkdir()
    (repro / "mod.py").write_text(
        "class Base:\n"
        "    def __init__(self, size=1):\n"
        "        pass\n"
        "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(size=2)\n"
        "def first(limit=3):\n"
        "    pass\n"
        "def second(limit=4):\n"
        "    pass\n"
        "def target(depth=5, width=6):\n"
        "    pass\n"
        "def forward(**options):\n"
        "    return target(**options)\n"
        "def outer(items):\n"
        "    for item in items:\n"
        "        def inner(item=item):\n"
        "            return item\n"
        "def unpassed(knob=7):\n"
        "    pass\n",
        encoding="utf-8",
    )
    (callers / "use.py").write_text(
        "Child()\n"
        "(first if flag else second)(limit=0)\n"
        "forward(depth=1)\n"
        "unpassed()\n",
        encoding="utf-8",
    )
    assert unpassed_parameters(repro, [repro, callers]) == {
        ("mod.target", "width"),
        ("mod.unpassed", "knob"),
    }


# -- every attribute a component keeps is read ------------------------------------------------

#: Where an attribute may be read: the program, its tests, the benchmarks
#: and the examples.
READER_TREES = ("src", "tests", "bench_e2e", "benchmarks", "examples")


def _stored_attribute(node):
    """``x`` when ``node`` stores into ``self.x`` (``self.x = …``,
    ``self.x += …``, ``self.x[k] = …``), else ``None``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def unread_attributes(repro, reader_roots):
    """Attributes some ``self.<name> = …`` under ``repro`` writes that no
    file under ``reader_roots`` reads: not as an attribute load outside a
    store target, nor as a string constant naming it (``getattr``,
    ``_count``)."""
    written, read = set(), set()
    for path in sorted(repro.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for target in _targets(node):
                name = _stored_attribute(target)
                if name is not None:
                    written.add(name)
    for root in reader_roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            stores = set()  # the Attribute nodes a store target writes through
            for node in ast.walk(tree):
                for target in _targets(node):
                    while isinstance(target, ast.Subscript):
                        target = target.value
                    stores.add(id(target))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and id(node) not in stores:
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    return written - read


def test_every_attribute_written_is_read_somewhere():
    assert unread_attributes(
        ROOT / "src" / "repro", [ROOT / tree for tree in READER_TREES]
    ) == set()


def test_the_attribute_census_counts_stores_as_writes(tmp_path):
    """A subscript store and an increment are writes; a load, a mutating
    call and a string naming the attribute are reads."""
    repro, callers = tmp_path / "repro", tmp_path / "callers"
    repro.mkdir()
    callers.mkdir()
    (repro / "mod.py").write_text(
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.index = {}\n"
        "        self.count = 0\n"
        "        self.total: int = 0\n"
        "        self.loaded = 1\n"
        "        self.items = []\n"
        "        self.named = 2\n"
        "    def bump(self, key):\n"
        "        self.index[key] = 1\n"
        "        self.count += 1\n"
        "        self.items.append(key)\n",
        encoding="utf-8",
    )
    (callers / "use.py").write_text(
        "print(thing.loaded, getattr(thing, 'named'))\n", encoding="utf-8"
    )
    assert unread_attributes(repro, [repro, callers]) == {"index", "count", "total"}
