"""Figure 4 — "Variation of the number of messages exchanged as the
number of B-peers increases".

The paper's headline benchmark: on the 9-machine testbed, adding b-peers
to the configuration "results in a predictable linear increase in the
number of messages exchanged" (§5).  The measurement and its gates are
``repro.bench.paper.run_fig4`` — the same function ``python -m repro
fig4`` prints and EXPERIMENTS.md tabulates.

Reproduced shape: message count grows linearly in the number of b-peers
(least-squares r² ≳ 0.99).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import check_record
from repro.bench.paper import format_fig4, run_fig4


@pytest.mark.paper
def test_figure4_messages_grow_linearly(benchmark, show):
    record = benchmark.pedantic(run_fig4, rounds=1, iterations=1)
    show(format_fig4(record))
    assert [row["bpeers"] for row in record["rows"]] == [2, 4, 6, 8, 10, 12, 16]
    assert check_record(record, "fig4") == []


@pytest.mark.paper
def test_figure4_per_category_components_linear(benchmark, show):
    """The linearity decomposes: heartbeats and membership maintenance both
    scale linearly with group size (the mechanism behind Figure 4)."""
    record = benchmark.pedantic(run_fig4, rounds=1, iterations=1)
    assert record["assertions"]["components_linear"]
