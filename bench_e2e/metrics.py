"""The metric catalogue: every name the benchmark emits, in one place.

``BENCHMARK.json`` carries the ``name``/``unit``/``better`` (and
``bound``) columns of these tables verbatim — ``test_bench_e2e.py``
fails if the two drift apart, and ``run.py --manifest`` prints the file
from them.  The remaining columns (clock, definition,
the interaction table) are documentation that README.md renders.

Two clocks, always named: *host* numbers are what the Python process
spends and are noisy; *sim* numbers are simulated seconds, messages and
events, and for a fixed seed and window they repeat exactly.
"""

from __future__ import annotations

from layers import HARNESS, LAYERS

__all__ = ["END_TO_END", "PER_LAYER", "INTERACTIONS", "PHASES", "PROBES"]

#: ``(name, unit, better, bound, clock, definition)``.  ``bound`` is the
#: share of the parent's median by which the metric may worsen before
#: ``compare.py`` (and the driver) call it a regression.  Each is at
#: least three times the ten-seed spread (interquartile range ÷ median)
#: the metric shows on any workload in an ordinary session — README.md,
#: "Bounds", has the spreads and why the host-time bounds are not the
#: issue's 7–15 %.
END_TO_END = [
    ("cpu_ms_per_req", "ms", "lower", 0.25, "host",
     "median over the window's slices of process_time() ÷ requests completed, "
     "scaled to the reference host speed (hostspeed.py)"),
    ("wall_rps", "1/s", "higher", 0.25, "host",
     "median over the window's slices of correct replies ÷ wall seconds, "
     "scaled to the reference host speed"),
    ("setup_s", "s", "lower", 0.25, "host",
     "build + deploy + settle + the first 200 requests, scaled to the "
     "reference host speed; median of five set-ups in the run"),
    ("peak_rss_mb", "MiB", "lower", 0.10, "host",
     "ru_maxrss of the workload's process at the end of the window"),
    ("sim_p50_ms", "ms", "lower", 0.015, "sim", "median request latency"),
    ("sim_p99_ms", "ms", "lower", 0.015, "sim",
     "99th-percentile request latency (nearest rank; ≥ 2 400 samples per window)"),
    ("sim_goodput_rps", "1/s", "higher", 0.01, "sim",
     "correct replies ÷ simulated seconds of the window"),
    ("msgs_per_req", "count", "lower", 0.025, "sim",
     "trace.sent_total delta ÷ requests (Figure 4's unit, heartbeats included)"),
    ("bytes_per_req", "bytes", "lower", 0.025, "sim",
     "trace.bytes_total delta ÷ requests"),
    ("ok_share", "ratio", "higher", 0.001, "sim",
     "correct replies ÷ attempted = 1 − run.fail_share (the issue's fail_share "
     "turned round, because an end-to-end metric may never read 0)"),
]

PHASES = ("discover", "bind", "invoke", "recover", "elect", "execute")

#: Direct timed calls into one layer's public functions (probes.py).
PROBES = [
    ("soap.encode_us", "Envelope.to_xml on the read_seed request + response"),
    ("soap.decode_us", "Envelope.from_xml on the read_seed request + response"),
    ("wsdl.validate_us", "Schema.validate_element on the read_seed response"),
    ("ontology.match_us", "ConceptMatcher.match_signature, annotation vs advertisement"),
    ("core.matching.find_best_us",
     "SemanticGroupMatcher.find_best over the proxy's cached advertisements"),
    ("core.journal.begin_complete_us_empty",
     "DedupJournal.begin + complete below capacity"),
    ("core.journal.begin_complete_us_full",
     "DedupJournal.begin + complete at capacity (every call evicts)"),
    ("core.rescache.lookup_us", "SemanticResultCache.lookup hit"),
    ("simnet.timeout_event_us", "schedule + step one env.timeout"),
]

#: ``(name, unit, better, clock, source)``.  Counts are deltas over the
#: timed window read from the product's public state.
_COUNTS = [
    ("simnet.events_per_req", "count", "lower", "sim", "env.events_processed ÷ requests"),
    ("simnet.events_per_cpu_s", "1/s", "higher", "host", "events ÷ CPU seconds"),
    ("simnet.msgs_dropped", "count", "lower", "sim", "trace.dropped_total"),
    ("soap.envelope_bytes_req", "bytes", "lower", "sim",
     "mean request envelope, 1 request in 100"),
    ("soap.envelope_bytes_resp", "bytes", "lower", "sim",
     "mean response envelope, 1 request in 100"),
    ("core.proxy.attempts_per_req", "count", "lower", "sim",
     "bpeer-request messages ÷ invocations that reached the network"),
    ("core.proxy.timeouts", "count", "lower", "sim", "ProxyStats.timeouts"),
    ("core.proxy.rebinds", "count", "lower", "sim", "ProxyStats.rebinds"),
    ("core.proxy.remote_discoveries", "count", "lower", "sim",
     "ProxyStats.remote_discoveries"),
    ("core.proxy.redirects", "count", "lower", "sim", "ProxyStats.redirects"),
    ("core.proxy.deduped", "count", "lower", "sim", "ProxyStats.deduped"),
    ("core.proxy.failover_p50_sim_s", "s", "lower", "sim",
     "median of ProxyStats.failover_durations"),
    ("core.proxy.failover_max_sim_s", "s", "lower", "sim",
     "max of ProxyStats.failover_durations"),
] + [
    (f"core.proxy.phase.{phase}_sim_ms", "ms", "lower", "sim",
     f"mean of the obs phase.{phase} histogram")
    for phase in PHASES
] + [
    ("core.bpeer.shed", "count", "lower", "sim", "obs counter bpeer.shed"),
    ("core.bpeer.queue_depth_p99", "count", "lower", "sim",
     "p99 of the obs bpeer.queue_depth histogram"),
    ("core.bpeer.duplicate_suppressed", "count", "lower", "sim",
     "obs counter bpeer.duplicate_suppressed"),
    ("core.journal.entries", "count", "lower", "sim",
     "largest DedupJournal at the end of the window"),
    ("core.journal.hits", "count", "lower", "sim", "JournalStats.hits, all peers"),
    ("core.journal.evictions_per_req", "count", "lower", "sim",
     "JournalStats.evictions, all peers ÷ requests"),
    ("core.journal.duplicates_suppressed", "count", "lower", "sim",
     "JournalStats.duplicates_suppressed, all peers"),
    ("election.elections", "count", "lower", "sim", "obs counter election.won"),
    ("election.msgs_per_election", "count", "lower", "sim",
     "election-category messages ÷ elections"),
    ("election.heartbeat_msgs_per_sim_s", "1/s", "lower", "sim",
     "heartbeat-category messages ÷ simulated seconds"),
    ("p2p.resolver_msgs_per_req", "count", "lower", "sim",
     "resolver-query + resolver-response messages ÷ requests"),
    ("p2p.pipe_msgs_per_req", "count", "lower", "sim",
     "b-peer pipe traffic (bpeer-* categories) ÷ requests"),
    ("core.sharding.routed_per_req", "count", "lower", "sim",
     "ProxyStats.shard_routed ÷ requests"),
    ("core.sharding.imbalance", "ratio", "lower", "sim",
     "max ÷ mean executions per shard group"),
    ("core.sharding.failovers", "count", "lower", "sim", "ProxyStats.shard_failovers"),
    ("core.rescache.hit_ratio", "ratio", "higher", "sim",
     "cache hits ÷ cache-eligible invocations"),
    ("core.rescache.flushes", "count", "lower", "sim",
     "entries invalidated (SemanticResultCache.invalidated)"),
    ("core.rescache.entries", "count", "higher", "sim", "cache size at the end"),
    ("core.breaker.rejected", "count", "lower", "sim", "ProxyStats.breaker_rejected"),
    ("core.breaker.transitions", "count", "lower", "sim",
     "obs counters breaker.open + breaker.half_open"),
    ("backend.exec_per_req", "count", "lower", "sim",
     "ServiceImplementation.invocations ÷ requests (above 1 on reads is repeated work)"),
    ("backend.double_applied", "count", "lower", "sim",
     "invocation ids ledgered more than once, whole run"),
    ("obs.traces_retained", "count", "lower", "sim", "len(Observability.traces)"),
    ("workflow.steps_per_saga", "count", "lower", "sim",
     "committed forward steps ÷ sagas"),
    ("workflow.compensations_per_saga", "count", "lower", "sim",
     "compensated steps ÷ sagas"),
    ("workflow.log_records", "count", "lower", "sim", "len(SagaLog)"),
    ("run.cpu_growth_ratio", "ratio", "lower", "host",
     "cpu_ms_per_req of the window's last quarter ÷ first quarter (flat = 1.0)"),
    ("run.gc_collections", "count", "lower", "host", "gc collections, all generations"),
    ("run.trace_overhead_ratio", "ratio", "lower", "host",
     "traced ÷ untraced cpu_ms_per_req within the traced run"),
    ("run.unavail_sim_s", "s", "lower", "sim",
     "mean over injected crashes of crash → first correct reply to a request "
     "sent after it; 0 where no fault is injected"),
    ("run.fail_share", "ratio", "lower", "sim",
     "(faults + timeouts + sheds + wrong answers) ÷ attempted"),
]

PER_LAYER = (
    [
        (f"{layer}.self_us_per_req", "us", "lower", "host",
         "setprofile self time ÷ requests, traced slices")
        for layer in LAYERS + (HARNESS,)
    ]
    + [
        (f"{layer}.entries_per_req", "count", "lower", "sim",
         "times control crossed into the layer ÷ requests")
        for layer in LAYERS
    ]
    + _COUNTS
    + [(name, "us", "lower", "host", source) for name, source in PROBES]
)

#: Which end-to-end metric each layer metric should move, on which
#: workload — a later perf issue quotes a row as its prediction.
#: ``(layer metrics, should move, on, and not on)``.
INTERACTIONS = [
    ("soap.self_us_per_req, soap.encode_us, soap.decode_us, wsdl.self_us_per_req",
     "cpu_ms_per_req, wall_rps",
     "read_seed, write_journal, ladder_full",
     "saga_loan (no SOAP hop)"),
    ("simnet.self_us_per_req, simnet.events_per_req",
     "cpu_ms_per_req", "all, most on read_seed", "—"),
    ("core.journal.self_us_per_req, core.journal.begin_complete_us_full, "
     "core.journal.evictions_per_req",
     "cpu_ms_per_req, run.cpu_growth_ratio",
     "every workload once warm (largest on saga_loan, write_journal)",
     "sim_* must not move at all"),
    ("core.bpeer.self_us_per_req, p2p.pipe_msgs_per_req",
     "msgs_per_req, sim_p50_ms, cpu_ms_per_req",
     "write_journal (broadcast + barrier)",
     "read_seed msgs_per_req (Figure-4 identity)"),
    ("election.msgs_per_election, core.proxy.failover_p50_sim_s, "
     "core.proxy.rebinds, p2p.resolver_msgs_per_req",
     "run.unavail_sim_s, sim_p99_ms", "failover_open",
     "read_seed (no election in window)"),
    ("core.proxy.attempts_per_req, core.proxy.timeouts",
     "sim_p99_ms, run.fail_share", "failover_open",
     "closed-loop workloads (1.0 attempts/request)"),
    ("core.rescache.hit_ratio",
     "cpu_ms_per_req, msgs_per_req, sim_p50_ms", "ladder_full",
     "every result_cache=None workload"),
    ("core.sharding.imbalance, core.dispatch.self_us_per_req",
     "sim_p99_ms", "ladder_full", "read_seed"),
    ("obs.self_us_per_req, obs.traces_retained",
     "cpu_ms_per_req, peak_rss_mb", "all", "sim_*"),
    ("ontology.match_us, core.matching.find_best_us, core.proxy.remote_discoveries",
     "run.unavail_sim_s (rebind rediscovers), setup_s", "failover_open",
     "steady closed loops beyond their ~3 % share"),
    ("workflow.self_us_per_req, workflow.steps_per_saga",
     "cpu_ms_per_req, msgs_per_req", "saga_loan", "the other four"),
    ("backend.exec_per_req",
     "cpu_ms_per_req; must stay 1.0 (reads)", "all", "—"),
]
