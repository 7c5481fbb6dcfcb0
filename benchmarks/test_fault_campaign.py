"""Fault campaign — availability vs. MTBF under a seeded random schedule.

Where Ablation B fixes the failure rate and sweeps *replication*, this
bench fixes replication (x4) and sweeps the *mean time between failures*:
rarer faults leave more of the timeline outside detection + re-election
windows, so availability climbs monotonically with MTBF.

Every campaign also audits the recovery layer's safety invariants
(strict crash/restart alternation, one coordinator per epoch, no stale
result delivered) — a scheduling or fencing regression fails here even if
the availability numbers still look plausible.  The measurement and its
gates are ``repro.bench.campaign.run_campaign`` — the same function
``python -m repro campaign`` prints and EXPERIMENTS.md tabulates.
"""

from __future__ import annotations

import pytest

from repro.bench.campaign import format_campaign, run_campaign
from repro.bench.harness import check_record


@pytest.mark.paper
def test_availability_vs_mtbf(benchmark, show):
    record = benchmark.pedantic(run_campaign, rounds=1, iterations=1)
    show(format_campaign(record))
    assert [row["mtbf_s"] for row in record["rows"]] == [10.0, 25.0, 50.0]
    assert check_record(record, "campaign") == []
