"""Figure 4 as an equation: every row of ``run_fig4(max_peers=16)``, exactly.

The figure's fit prints ``messages = 68.0 x peers -46.0`` with r² = 1; this
test holds each row ``==`` to that line and to its four columns, each built
from the protocol constant that sets it, so a change that moves one
steady-state message — or one period — fails here by name.
"""

import math

from repro.bench.paper import FIG4_WINDOW, run_fig4
from repro.core import ScenarioConfig
from repro.core.bpeer import REPUBLISH_PERIOD
from repro.p2p.peergroup import ANNOUNCE_PERIOD
from repro.p2p.rendezvous import RENEW_PERIOD

HEARTBEAT = ScenarioConfig().heartbeat_interval
#: ``GroupCoordinator.watchdog_interval`` at that heartbeat interval.
WATCHDOG = max(2.0, 2 * HEARTBEAT)
#: The lease renewals each leaseholder sends inside the window: the most a
#: window can hold, because every leaseholder connects at t = 0 and this
#: window (t ≈ 12.1 – 32.1 s) holds those at RENEW_PERIOD and 2 × RENEW_PERIOD.
RENEWALS_IN_WINDOW = math.ceil(FIG4_WINDOW / RENEW_PERIOD)


def expected(n):
    """The window's counts for ``n`` b-peers (one coordinator, n − 1 members)."""
    # Every member pings the coordinator once a heartbeat interval; a pong
    # answers each ping.  40(n − 1) at the defaults.
    heartbeat = 2 * FIG4_WINDOW / HEARTBEAT * (n - 1)
    # Every b-peer, once an announce period: a membership renewal, a roster
    # query and its response.  12n.
    membership = 3 * FIG4_WINDOW / ANNOUNCE_PERIOD * n
    # A lease request and its grant, from the n b-peers and the web
    # service's proxy peer (the one other edge).  4n + 4.
    lease = 2 * RENEWALS_IN_WINDOW * (n + 1)
    # The coordinator reaffirms its term to the n − 1 members once a
    # watchdog interval; every b-peer republishes its advertisement to SRDI.
    # 10(n − 1) and 2n.
    reaffirm = FIG4_WINDOW / WATCHDOG * (n - 1)
    srdi = FIG4_WINDOW / REPUBLISH_PERIOD * n
    return {
        "bpeers": n,
        "messages": heartbeat + membership + lease + reaffirm + srdi,
        "heartbeat": heartbeat,
        "membership": membership,
        "lease": lease,
        "workload_availability": 1.0,
    }


def test_every_row_is_the_equation():
    rows = run_fig4(max_peers=16)["rows"]
    assert [row["bpeers"] for row in rows] == [2, 4, 6, 8, 10, 12, 16]
    for row in rows:
        n = row["bpeers"]
        assert row == expected(n)
        assert row["messages"] == 68 * n - 46  # the fit `repro fig4` prints
