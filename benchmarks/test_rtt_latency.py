"""§5 RTT results, failure-free case.

"RTT is defined as the time interval from the moment at which a request
packet is time-stamped by the monitor to the moment at which a reply
packet is time-stamped.  Our results showed that the average latency is
approximately 0.5 milliseconds."

``repro.bench.paper.run_rtt`` (what ``python -m repro rtt`` prints)
reproduces both levels:

* the *packet-level* RTT the paper's monitor measured — one request/reply
  exchange on the simulated 100 Mbit LAN — whose mean should sit near
  0.5 ms;
* the *end-to-end service* RTT (client -> web service -> proxy ->
  coordinator -> back), which stacks several such exchanges and lands in
  the low milliseconds.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import check_record
from repro.bench.paper import format_rtt, run_rtt


@pytest.mark.paper
def test_packet_rtt_averages_half_a_millisecond(benchmark, show):
    record = benchmark.pedantic(run_rtt, rounds=1, iterations=1)
    show(format_rtt(record))
    assert record["assertions"]["packet_rtt_about_half_a_millisecond"]
    assert check_record(record, "rtt") == []


@pytest.mark.paper
def test_service_rtt_low_milliseconds(benchmark, show):
    record = benchmark.pedantic(run_rtt, rounds=1, iterations=1)
    assert record["assertions"]["service_rtt_low_milliseconds"]
    # Failure-free: every request spent time invoking, none recovering,
    # and the execute phase (backend service time) sits inside invoke.
    assert record["assertions"]["all_invoked_none_recovered"]
    assert record["assertions"]["execute_within_invoke"]


@pytest.mark.paper
def test_rtt_distribution_tightness(benchmark, show):
    """Failure-free RTTs are tightly clustered — the paper's multi-second
    'worst case' appears only under coordinator failure (next bench)."""
    record = benchmark.pedantic(run_rtt, rounds=1, iterations=1)
    assert record["assertions"]["packet_rtt_tight"]
