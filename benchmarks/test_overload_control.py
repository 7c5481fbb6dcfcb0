"""Overload control at and past the knee (tentpole acceptance numbers).

A heterogeneous 4-replica deployment (2 fast at 10ms, 2 slow at 40ms,
aggregate knee 250 req/s) is driven by an open-loop Poisson workload:

* at 2x the knee, an **unbounded** deployment queues without limit and
  its p99 explodes, while a **bounded** one sheds the excess with
  ``Server.Busy`` + retry-after and keeps accepted work fast and
  near-perfectly available;
* below the knee, **least-outstanding** dispatch routes around the slow
  replicas that blind round-robin keeps feeding.

Both comparisons and their gates are ``repro.bench.overload.run_overload``
— the same function ``python -m repro overload`` prints and
EXPERIMENTS.md tabulates; the two tests read one run of it.
"""

from __future__ import annotations

import functools

import pytest

from repro.bench.harness import check_record
from repro.bench.overload import format_overload, run_overload

overload_record = functools.cache(run_overload)


@pytest.mark.paper
def test_bounded_queue_tames_tail_latency_past_knee(benchmark, show):
    """At 2x capacity: shed-and-hint beats queue-forever on p99, and the
    work a bounded deployment accepts is still served reliably."""
    record = benchmark.pedantic(overload_record, rounds=1, iterations=1)
    show(format_overload(record))
    assert [p["rate"] for p in record["saturation"]] == [500.0, 500.0]
    assert check_record(record, "overload") == []


@pytest.mark.paper
def test_least_outstanding_beats_round_robin_on_heterogeneous_backends(
    benchmark, show
):
    """Below the knee, blind rotation queues behind the 40ms replicas;
    the load ledger steers work to whoever is actually free."""
    record = benchmark.pedantic(overload_record, rounds=1, iterations=1)
    assert [p["dispatch"] for p in record["dispatch"]] == [
        "round-robin", "least-outstanding",
    ]
    assert record["assertions"]["least_outstanding_throughput_at_least_round_robin"]
    assert record["assertions"]["least_outstanding_p99_at_most_round_robin"]
