"""Ablation B — availability vs. replication degree (§4.1).

"Redundancy has long been used as a means of increasing the availability
of distributed systems" — ``repro.bench.paper.run_availability`` (what
``python -m repro availability`` prints) quantifies it for Whisper.
Hosts churn (exponential crash/restart); a fixed-period prober issues a
steady stream of requests; availability = fraction answered successfully.

Baselines:

* 1 Whisper replica — redundancy off, failover impossible;
* the plain Web service of §1 (implementation on the web host, no P2P) —
  what "current Web service specifications" give you.

Shape: availability climbs monotonically with the replica count and beats
both baselines decisively.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import check_record
from repro.bench.paper import format_availability, run_availability


@pytest.mark.paper
def test_availability_grows_with_replication(benchmark, show):
    record = benchmark.pedantic(run_availability, rounds=1, iterations=1)
    show(format_availability(record))
    assert [row["replicas"] for row in record["rows"]] == [0, 1, 2, 4, 6]
    assert check_record(record, "availability") == []
