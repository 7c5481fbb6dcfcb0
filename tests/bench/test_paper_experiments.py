"""One definition of each experiment, gated like the rest.

``repro.bench.paper.run_*`` (the paper's four) and the extensions'
``run_campaign`` / ``run_exactly_once`` / ``run_overload`` / ``run_shard``
are what the CLI prints, what ``benchmarks/test_<x>.py`` asserts on and
what EXPERIMENTS.md tabulates; these tests hold the three together — the
paper's four at their smallest sizes, the extensions at the one size they
have, each run once, through ``python -m repro <name> --json``.
"""

import contextlib
import functools
import io
import json
import pathlib
import re

import pytest

from repro.bench import paper
from repro.bench.harness import check_record
from repro.cli import _GATED, build_parser, main

REPO = pathlib.Path(__file__).resolve().parents[2]

SMALLEST = {
    "fig4": dict(max_peers=4),
    "rtt": dict(samples=20),
    "failover": dict(heartbeat=0.5),
    "availability": dict(replicas=2, duration=60.0),
}

#: Gated with no smaller size: each runs in seconds at full size.
EXTENSIONS = ("campaign", "exactly-once", "overload", "shard")


@functools.cache
def cli_json(name):
    """``python -m repro <name> --json`` once: the exit code, the record it
    printed and the record its runner returned."""
    run = _GATED[name][0]
    returned = []

    def spy(**kwargs):
        returned.append(run(**kwargs))
        return returned[-1]

    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(_GATED, name, (spy,) + _GATED[name][1:])
        with contextlib.redirect_stdout(printed):
            code = main([name, "--json"])
    return code, json.loads(printed.getvalue()), returned[0]


@pytest.fixture(scope="module", params=sorted(SMALLEST) + list(EXTENSIONS))
def experiment(request):
    name = request.param
    if name in SMALLEST:
        return name, _GATED[name][0](**SMALLEST[name])
    return name, cli_json(name)[2]


class TestRecords:
    def test_smallest_size_passes_its_gates(self, experiment):
        name, record = experiment
        assert record["schema"] == f"repro-{name}/1"
        if "seed" in record:
            assert record["seed"] == 42
        else:  # a seed set, like saga's
            assert record["seeds"] == [7, 11, 42]
        assert record["assertions"] and record["ok"]
        assert check_record(record, name) == []
        json.dumps(record)  # what --json prints

    def test_tampered_assertion_is_reported_by_name(self, experiment):
        name, record = experiment
        gate = next(iter(record["assertions"]))
        tampered = {**record, "assertions": {**record["assertions"], gate: False}}
        assert check_record(tampered, name) == [f"{name} assertion failed: {gate}"]

    def test_formatter_ends_with_the_assertions_footer(self, experiment):
        name, record = experiment
        text = _GATED[name][1](record)
        assert text.splitlines()[-1].startswith("assertions: ")
        assert "FAIL" not in text


class TestOneAnswer:
    def test_cli_json_carries_exactly_run_fig4s_numbers(self, capsys):
        """The quiesced protocol: what ``measure_messages`` returned before
        the three copies were merged, so no message moved."""
        assert main(["fig4", "--max-peers", "8", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == paper.run_fig4(max_peers=8)
        assert [row["messages"] for row in printed["rows"]] == [90, 226, 362, 498]

    def test_failed_gate_exits_one_and_names_it(self, capsys, monkeypatch):
        def broken(**kwargs):
            record = paper.run_rtt(samples=5, seed=kwargs["seed"])
            record["assertions"]["service_rtt_low_milliseconds"] = False
            return record

        monkeypatch.setitem(_GATED, "rtt", (broken,) + _GATED["rtt"][1:])
        assert main(["rtt"]) == 1
        assert "rtt assertion failed: service_rtt_low_milliseconds" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("name", EXTENSIONS)
    def test_cli_json_prints_exactly_the_record(self, name):
        code, printed, returned = cli_json(name)
        assert code == 0
        assert printed == returned

    def test_campaign_runs_the_documented_90s_fault_load(self):
        """At the parent ``overload``'s ``set_defaults(duration=5.0)``
        rewrote the ``--duration`` both commands shared: ``repro campaign``
        ran 5 s campaigns that injected no crash at all."""
        _code, printed, _returned = cli_json("campaign")
        campaigns = [c for row in printed["rows"] for c in row["campaigns"]]
        assert len(campaigns) == 9
        assert all(c["duration"] == 90.0 and c["crashes"] > 0 for c in campaigns)

    @pytest.mark.parametrize("name", EXTENSIONS)
    def test_forced_gate_exits_one_and_names_it(self, name, capsys, monkeypatch):
        record = cli_json(name)[2]
        gate = list(record["assertions"])[-1]
        forced = {**record, "assertions": {**record["assertions"], gate: False}}
        monkeypatch.setitem(
            _GATED, name, (lambda **kwargs: forced,) + _GATED[name][1:]
        )
        assert main([name]) == 1
        assert f"{name} assertion failed: {gate}" in capsys.readouterr().out


class TestRegistration:
    """Every command is documented, every CI tier is run."""

    def test_every_command_has_a_readme_row(self):
        subparsers = next(
            action for action in build_parser()._actions if action.choices
        )
        commands = set(subparsers.choices)
        assert set(_GATED) <= commands
        readme = (REPO / "README.md").read_text()
        documented = set(re.findall(r"^\| `python -m repro (\S+?)`", readme, re.M))
        assert commands == documented

    def test_every_smoke_target_is_in_the_ci_matrix(self):
        targets = set(
            re.findall(r"^([a-z0-9-]+-smoke):", (REPO / "Makefile").read_text(), re.M)
        )
        assert {"check-smoke", "bench-e2e-smoke"} <= targets  # the pattern matches
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        matrix = set(re.findall(r"^ +- ([a-z0-9-]+)$", ci, re.M))
        assert targets <= matrix
        assert "examples" in matrix

    def test_modules_kept_for_examples_are_run_by_make_examples(self):
        """``ontology/owlxml.py`` and ``workflow/prediction.py`` (with
        ``qos/aggregation.py`` under it) are reached by no bench, checker
        scenario or CLI command: they stay because an example runs them
        and CI runs ``make examples`` (DESIGN.md §6.14).  An example that
        stops doing so takes the module with it."""
        makefile = (REPO / "Makefile").read_text()
        examples = re.search(r"^examples:\n((?:\t.*\n)+)", makefile, re.M).group(1)
        run = "".join(
            (REPO / path).read_text()
            for path in re.findall(r"python (examples/\S+\.py)", examples)
        )
        for name in ("ontology_to_xml", "predict_qos"):
            assert name in run, name
