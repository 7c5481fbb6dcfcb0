"""Exactly-once under failover — duplicate rate and journal overhead.

Two claims for the dedup-journal layer:

* **Safety**: a mutating workload driven through churn + partitions +
  message loss (the seeded fault campaigns the recovery benchmarks use)
  applies every invocation at most once, and the journal demonstrably
  engaged.  The audit's negative control — an evicted journal entry that
  double-applies — is ``tests/core/test_exactly_once.py``.
* **Cost**: on the paper's Figure-4 configuration (read-only student
  lookups, n=8 b-peers) the journal sends nothing — result replication,
  the takeover sync and the commit barrier are all gated on mutating
  operations, so the read-path message budget of §5 is untouched.
"""

from __future__ import annotations

import pytest

from repro.bench import ClosedLoopWorkload, format_table
from repro.bench.campaign import format_exactly_once, run_exactly_once
from repro.bench.harness import check_record
from repro.core import ScenarioConfig, WhisperSystem

FIG4_REPLICAS = 8
MEASUREMENT_WINDOW = 20.0


@pytest.mark.paper
def test_exactly_once_under_failover(benchmark, show):
    """Safety, gated by ``repro.bench.campaign.run_exactly_once`` (what
    ``python -m repro exactly-once`` prints): no seed double-applies, every
    campaign invariant holds with the journal in the loop, and the journal
    demonstrably engaged."""
    record = benchmark.pedantic(run_exactly_once, rounds=1, iterations=1)
    show(format_exactly_once(record))
    assert [row["seed"] for row in record["rows"]] == [7, 11, 42]
    assert check_record(record, "exactly-once") == []


def measure_fig4_categories() -> dict:
    system = WhisperSystem(ScenarioConfig(seed=42, replicas=FIG4_REPLICAS))
    service = system.deploy_student_service()
    system.settle(6.0)

    system.reset_counters()
    workload = ClosedLoopWorkload(
        system, service.address, service.path, "StudentInformation",
        clients=2, think_time=0.1, requests_per_client=10,
    )
    result = workload.run()
    assert result.availability == 1.0
    # Same accounting as Figure 4: the client workload plus a fixed
    # steady-state window, every message on the network counted.
    system.run_until(system.env.now + MEASUREMENT_WINDOW)
    return system.trace.category_breakdown()


@pytest.mark.paper
def test_exactly_once_read_path_sends_no_journal_messages(benchmark, show):
    categories = benchmark.pedantic(measure_fig4_categories, rounds=1, iterations=1)
    show(format_table(
        ["category", "messages"],
        sorted(categories.items()),
        title=(
            f"Messages by category — Figure-4 configuration "
            f"(n={FIG4_REPLICAS} b-peers, read-only lookups, "
            f"{MEASUREMENT_WINDOW:.0f}s window): {sum(categories.values())} total"
        ),
    ))
    assert sum(categories.values()) > 0
    # Counted, not a ratio: nothing on the read path talks to the journal.
    assert categories.get("bpeer-journal", 0) == 0
