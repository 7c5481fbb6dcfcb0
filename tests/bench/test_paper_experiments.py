"""The paper's four experiments: one definition each, gated like the rest.

``repro.bench.paper.run_*`` is what the CLI prints, what
``benchmarks/test_<x>.py`` asserts on and what EXPERIMENTS.md tabulates;
these tests hold the three together at the smallest sizes.
"""

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


@pytest.fixture(scope="module", params=sorted(SMALLEST))
def experiment(request):
    name = request.param
    return name, getattr(paper, f"run_{name}")(**SMALLEST[name])


class TestRecords:
    def test_smallest_size_passes_its_gates(self, experiment):
        name, record = experiment
        assert record["schema"] == f"repro-{name}/1"
        assert record["seed"] == 42
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
        text = getattr(paper, f"format_{name}")(record)
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
