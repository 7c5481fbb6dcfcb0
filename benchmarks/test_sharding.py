"""Semantic sharding — read scaling, message growth, rebalance safety.

Three claims for the federated shard-group layer (see EXPERIMENTS.md):

* **Scaling**: at a fixed per-group replication factor, 4 shard groups
  sustain at least 2.5x the aggregate read throughput of 1 on the same
  offered load — one group saturates its knee and sheds, the federation
  absorbs the load the ring spreads across it.
* **Message growth**: each shard group brings its own replicas and
  maintenance traffic (heartbeats, renewals, SRDI leases), so the
  steady-state message count grows with the shard count — the same
  predictable growth Figure 4 shows per b-peer, now per shard group.
* **Rebalance safety**: crashing one whole shard group mid-workload
  remaps only its ring segment, the workload keeps making progress via
  ring-successor handoff, and no enrollment is ever double-applied
  (sticky at-most-once pinning keeps per-group dedup journals sufficient).

All three and their gates are ``repro.bench.sharding.run_shard`` — the
same function ``python -m repro shard`` prints and EXPERIMENTS.md
tabulates; the two tests read one run of it.
"""

from __future__ import annotations

import functools

import pytest

from repro.bench.harness import check_record
from repro.bench.sharding import format_shard, run_shard

shard_record = functools.cache(run_shard)


@pytest.mark.paper
def test_shard_scaling_and_message_growth(benchmark, show):
    record = benchmark.pedantic(shard_record, rounds=1, iterations=1)
    show(format_shard(record))
    assert [p["shards"] for p in record["sweep"]] == [1, 2, 4]
    assert check_record(record, "shard") == []


@pytest.mark.paper
def test_rebalance_keeps_exactly_once_across_shard_group_loss(benchmark, show):
    record = benchmark.pedantic(shard_record, rounds=1, iterations=1)
    assert record["rebalance"]["shards"] == 4
    for gate in ("only_victim_segment_remaps", "exactly_once_across_handoff",
                 "one_effect_per_success", "progress_through_crash"):
        assert record["assertions"][gate], gate
