"""Unit tests for the perf harness: scenarios, summaries, the CI gate."""

import pytest

from repro.bench import perf
from repro.cli import build_parser

MICRO_SCALE = dict(
    timer_procs=4, timer_events=40,
    chain_procs=2, chain_events=100,
    pingpong_pairs=2, pingpong_rounds=40,
    cancel_waiters=150, cancel_rounds=1,
    discovery_ads=4, discovery_queries=2,
    whisper_clients=1, whisper_requests=2,
    repeats=1,
)


@pytest.fixture
def micro(monkeypatch):
    monkeypatch.setitem(perf.SCALES, "micro", MICRO_SCALE)
    return "micro"


class TestRunMode:
    def test_current_mode_records_every_scenario(self, micro):
        record = perf.run_mode("current", micro, seed=7)
        names = [s["name"] for s in record["scenarios"]]
        assert names == [
            "timer-dense", "ready-chain", "store-pingpong",
            "cancel-storm", "discovery-flood", "whisper-loop",
        ]
        for scenario in record["scenarios"]:
            assert scenario["events"] > 0
            assert scenario["events_per_sec"] > 0
        assert record["config"]["scheduler"] == "batched"
        assert record["config"]["cache_xml"] is True
        assert record["totals"]["events"] == sum(
            s["events"] for s in record["scenarios"]
        )
        # Full-stack scenarios carry real network traffic.
        by_name = {s["name"]: s for s in record["scenarios"]}
        assert by_name["discovery-flood"]["messages"] > 0
        assert by_name["whisper-loop"]["messages"] > 0

    def test_baseline_mode_restores_globals(self, micro):
        from repro.p2p import advertisement as advertisement_module
        from repro.simnet import environment as environment_module

        record = perf.run_mode("baseline", micro, seed=7)
        assert record["config"]["scheduler"] == "heap"
        assert record["config"]["legacy_store_cancel"] is True
        assert environment_module.DEFAULT_SCHEDULER == "batched"
        assert advertisement_module.CACHE_XML is True

    def test_legacy_store_baseline_stays_on_the_general_path(self, monkeypatch):
        """The kernel's ``StoreGet`` fast form is for plain ``Store`` only;
        the baseline must keep pricing the seed's ``_trigger`` scan."""
        from repro.simnet import Environment
        from repro.simnet.queues import Store

        triggered = []
        real = Store._trigger
        monkeypatch.setattr(
            Store, "_trigger", lambda self: (triggered.append(type(self)), real(self))
        )
        env = Environment()
        Store(env).get()
        assert triggered == []
        perf._LegacyStore(env).get()
        assert triggered == [perf._LegacyStore]

    def test_unknown_mode_rejected(self, micro):
        with pytest.raises(ValueError):
            perf.run_mode("turbo", micro)


def _record(aggregate, headline, scale="smoke"):
    return {
        "runs": {
            scale: {
                "speedup": {"events_per_sec": aggregate},
                "headline": {
                    "scenario": perf.HEADLINE_SCENARIO, "speedup": headline
                },
            }
        }
    }


class TestCheckRecord:
    def test_matching_speedups_pass(self):
        assert perf.check_record(_record(2.0, 5.0), _record(2.0, 5.0)) == []

    def test_small_regression_within_tolerance_passes(self):
        failures = perf.check_record(
            _record(1.6, 4.0), _record(2.0, 5.0), tolerance=0.25
        )
        assert failures == []

    def test_large_regression_fails(self):
        failures = perf.check_record(
            _record(1.0, 2.0), _record(2.0, 5.0), tolerance=0.25
        )
        assert len(failures) == 2
        assert any("aggregate" in failure for failure in failures)
        assert any("headline" in failure for failure in failures)

    def test_slower_than_baseline_always_fails(self):
        failures = perf.check_record(
            _record(0.9, 1.0), _record(1.0, 1.0), tolerance=0.5
        )
        assert any("slower than the seed baseline" in f for f in failures)

    def test_unmatched_scales_are_skipped(self):
        new = _record(1.0, 1.0, scale="smoke")
        committed = _record(9.0, 9.0, scale="full")
        assert perf.check_record(new, committed) == []


class TestCli:
    def test_perf_subcommand_parses(self):
        args = build_parser().parse_args(
            ["perf", "--smoke", "--out", "x.json",
             "--check", "BENCH_simnet.json", "--tolerance", "0.3"]
        )
        assert args.func.__name__ == "_cmd_perf"
        assert args.smoke and args.out == "x.json"
        assert args.tolerance == 0.3
