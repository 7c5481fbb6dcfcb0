"""benchmarks/e2e_pairs.py: the alternating-pairs protocol and its claim file.

The runs themselves are faked (a real pair is twenty seconds of benchmark);
what is checked is the protocol — one pair per seed, order alternating — the
verdict rule, and that the claim it writes is one ``BENCH_e2e.json`` accepts.
"""

import json
import subprocess

import pytest

from benchmarks import e2e_pairs

from .test_e2e_trajectory import (
    MANIFEST,
    test_a_claim_names_a_real_metric_and_workload as accept_claim,
)


def _fake_run(gain):
    """``run_once`` for a change ``gain`` times the parent's CPU per request
    and peak memory (and one ``gain``-th of its wall time per request)."""
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree, seed))
        values = {metric["name"]: 1.0 + seed / 1e4 for metric in MANIFEST["end_to_end"]}
        if not tree.endswith("PARENT"):
            values["cpu_ms_per_req"] *= gain
            values["peak_rss_mb"] *= gain
            values["wall_rps"] /= gain
        values["failed"] = 0
        return values

    return run, calls


def test_seed_lists():
    assert e2e_pairs.parse_seeds("1001-1010") == list(range(1001, 1011))
    assert e2e_pairs.parse_seeds("7,11,40-42") == [7, 11, 40, 41, 42]


def test_one_pair_per_seed_with_the_order_alternating():
    run, calls = _fake_run(0.9)
    trees = {"parent": "PARENT", "change": "CHANGE"}
    pairs = e2e_pairs.run_pairs(trees, "read_seed", [5, 6, 7], 10, run=run)
    assert [pair["order"] for pair in pairs] == [
        ["parent", "change"], ["change", "parent"], ["parent", "change"]
    ]  # fmt: skip
    assert calls == [
        ("PARENT", 5), ("CHANGE", 5), ("CHANGE", 6), ("PARENT", 6), ("PARENT", 7), ("CHANGE", 7)
    ]  # fmt: skip
    assert e2e_pairs.sim_mismatches(pairs) == []
    pairs[1]["change"]["msgs_per_req"] += 1e-9
    assert e2e_pairs.sim_mismatches(pairs) == [6]


@pytest.mark.parametrize("gain, met", [(0.9, True), (1.0, False), (1.1, False), (0.99995, False)])
def test_the_verdict_rule(gain, met):
    """Nine tenths of the pairs, and medians further apart than the parent's
    own quartiles (seeds spread the fake parent by 1e-4 a step)."""
    run, _calls = _fake_run(gain)
    trees = {"parent": "PARENT", "change": "CHANGE"}
    pairs = e2e_pairs.run_pairs(trees, "read_seed", list(range(1, 11)), 10, run=run)
    rows = {row["metric"]: row for row in e2e_pairs.summarise(pairs, MANIFEST)}
    assert rows["cpu_ms_per_req"]["gain"] is met
    assert rows["wall_rps"]["gain"] is met  # higher is better there
    assert rows["sim_p50_ms"]["wins"] == rows["sim_p50_ms"]["losses"] == 0  # ties
    assert rows["sim_p50_ms"]["gain"] is False
    assert "cpu_ms_per_req" in e2e_pairs.format_rows(rows.values())


def _claim_from_main(tmp_path, monkeypatch, gain, *extra):
    """``main()`` over ten faked pairs; the claim object it wrote."""
    run, _calls = _fake_run(gain)
    monkeypatch.setattr(e2e_pairs, "run_once", run)
    parent = str(tmp_path / "PARENT")  # main() removes the export when done
    monkeypatch.setattr(e2e_pairs, "export_parent", lambda revision, scratch: ("abc0000", parent))
    monkeypatch.setattr(e2e_pairs, "change_revision", lambda: "abc1234")
    out = tmp_path / "claim.json"
    argv = ["--workload", "read_seed", "--seeds", "1-10", "--parent", "HEAD", "--out", str(out)]
    assert e2e_pairs.main([*argv, *extra]) == 0
    claim = json.loads(out.read_text())
    accept_claim({"title": "a record", "claim": claim})
    return claim


def test_the_claim_it_writes_is_one_the_trajectory_accepts(tmp_path, monkeypatch, capsys):
    claim = _claim_from_main(tmp_path, monkeypatch, 0.9)
    assert [pair["seed"] for pair in claim["pairs"]] == list(range(1, 11))
    assert "--seed <seed> --seconds 10 --trace 0" in claim["command"]  # BENCHMARK.json's
    assert claim["about"].endswith("parent abc0000 exported with git archive, "
                                   "change the working tree at abc1234")  # fmt: skip
    printed = capsys.readouterr().out
    assert "claim on cpu_ms_per_req: met (10 of 10 pairs" in printed
    assert "bit-identical on every seed" in printed


@pytest.mark.parametrize(
    "metric, gain, verdict",
    [
        ("peak_rss_mb", 0.7, "met"),  # lower is better
        ("peak_rss_mb", 1.1, "NOT met"),
        ("wall_rps", 0.9, "met"),  # higher is better
        ("wall_rps", 1.1, "NOT met"),
        ("sim_p50_ms", 0.9, "NOT met"),  # equal on both sides: no gain to claim
    ],
)
def test_the_verdict_is_on_the_metric_named(tmp_path, monkeypatch, capsys, metric, gain, verdict):
    claim = _claim_from_main(tmp_path, monkeypatch, gain, "--metric", metric)
    assert claim["metric"] == metric
    assert f"claim on {metric}: {verdict} (" in capsys.readouterr().out


def test_a_metric_the_benchmark_does_not_declare_is_refused(capsys):
    with pytest.raises(SystemExit):
        e2e_pairs.main(["--workload", "read_seed", "--seeds", "1", "--parent", "HEAD",
                        "--metric", "soap.decode_us"])  # fmt: skip
    assert "invalid choice" in capsys.readouterr().err


def test_uncommitted_edits_are_named_in_the_change_revision(tmp_path, monkeypatch, capsys):
    """The change side is the working tree: when that is not ``HEAD``, say so."""
    def git(*arguments):
        identity = ["-c", "user.name=t", "-c", "user.email=t@example.org"]
        subprocess.run(["git", "-C", str(tmp_path), *identity, *arguments], check=True,
                       stdout=subprocess.DEVNULL)  # fmt: skip

    git("init", "-q")
    (tmp_path / "tracked.py").write_text("x = 1\n")
    git("add", "tracked.py")
    git("commit", "-q", "-m", "one")
    monkeypatch.setattr(e2e_pairs, "ROOT", str(tmp_path))
    (tmp_path / "untracked.txt").write_text("left behind\n")
    clean = e2e_pairs.change_revision()
    assert "uncommitted" not in clean and capsys.readouterr().err == ""
    (tmp_path / "tracked.py").write_text("x = 2\n")
    assert e2e_pairs.change_revision() == clean + " + uncommitted edits"
    assert "WARNING" in capsys.readouterr().err


def _pairs_of(metric, parent_values, change_values):
    flat = {entry["name"]: 1.0 for entry in MANIFEST["end_to_end"]}
    return [
        {"seed": seed, "order": ["parent", "change"],
         "parent": {**flat, metric: parent, "failed": 0},
         "change": {**flat, metric: change, "failed": 0}}
        for seed, (parent, change) in enumerate(zip(parent_values, change_values))
    ]  # fmt: skip


STEADY = [1.0 + step / 100 for step in range(10)]  # quartiles 2 % of the median apart
NOISY = [1.0 + step / 5 for step in range(10)]  # 47 %: wider than the 25 % bound


@pytest.mark.parametrize(
    "metric, parent, factor, status",
    [
        ("cpu_ms_per_req", STEADY, 1.1, "ok"),  # worse, by less than the bound
        ("cpu_ms_per_req", STEADY, 1.5, "regressed"),
        ("wall_rps", STEADY, 0.5, "regressed"),  # higher is better there
        ("wall_rps", STEADY, 1.5, "ok"),
        ("cpu_ms_per_req", NOISY, 1.05, "unresolved"),  # the runs interleave
        ("cpu_ms_per_req", NOISY, 0.95, "unresolved"),  # ... either way round
        ("cpu_ms_per_req", NOISY, 0.1, "ok"),  # every change run beats every parent run
        ("cpu_ms_per_req", NOISY, 10.0, "regressed"),  # ... or loses to every one
        ("peak_rss_mb", STEADY, 1.08, "ok"),  # bound 10 %
        ("peak_rss_mb", STEADY, 1.12, "regressed"),
    ],
)
def test_each_metric_is_judged_by_its_bound(metric, parent, factor, status):
    """``bench_e2e/compare.py``'s rule on paired runs: a spread wider than the
    bound is *unresolved*, not unchanged, unless the sides do not interleave."""
    pairs = _pairs_of(metric, parent, [value * factor for value in parent])
    rows = {row["metric"]: row for row in e2e_pairs.summarise(pairs, MANIFEST)}
    assert rows[metric]["status"] == status
    assert rows["sim_p50_ms"]["status"] == "ok"  # equal on both sides
    assert f" {status} " in e2e_pairs.format_rows([rows[metric]])


def test_also_pairs_the_other_workloads_and_the_claim_stays_slim(tmp_path, monkeypatch, capsys):
    claim = _claim_from_main(tmp_path, monkeypatch, 0.7, "--metric", "peak_rss_mb",
                             "--also", "ladder_full,saga_loan")  # fmt: skip
    printed = capsys.readouterr().out
    for workload in ("read_seed", "ladder_full", "saga_loan"):
        assert f"{workload}: 10 alternating pairs, parent abc0000" in printed
    assert printed.count("claim on peak_rss_mb: met") == 1  # the claimed workload only
    assert claim["seeds"] == list(range(1, 11))
    assert sorted(claim["also"]) == ["ladder_full", "saga_loan"]
    for rows in (claim["rows"], *claim["also"].values()):
        assert [row["metric"] for row in rows] == [m["name"] for m in MANIFEST["end_to_end"]]
        assert {row["status"] for row in rows} == {"ok"}
        assert all(len(row["parent"]) == len(row["change"]) == 3 for row in rows)
    assert all(set(pair) == {"seed", "order", "parent", "change"} for pair in claim["pairs"])
    assert all(set(pair["change"]) == {"peak_rss_mb", "failed"} for pair in claim["pairs"])
    assert len(json.dumps(claim)) < 16_000  # PR 17's, with every pair's metric block: 69 KB


def test_also_refuses_a_workload_the_benchmark_does_not_declare(capsys):
    with pytest.raises(SystemExit):
        e2e_pairs.main(["--workload", "read_seed", "--seeds", "1", "--parent", "HEAD",
                        "--also", "ladder_full,nonesuch"])  # fmt: skip
    assert "nonesuch" in capsys.readouterr().err
