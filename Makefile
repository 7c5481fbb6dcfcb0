# Developer conveniences for the Whisper reproduction.

.PHONY: install test bench benchmark-smoke examples figures overload exactly-once check check-smoke check-self-test digest-pins shard shard-smoke wan wan-smoke saga saga-smoke capacity capacity-smoke bench-e2e bench-e2e-smoke e2e-pairs loc census all clean

# pytest-timeout is a test extra (CI installs it); the smoke tiers use it
# where it is present.
PYTEST_TIMEOUT := $(shell python -c "import pytest_timeout" 2>/dev/null && echo --timeout=300)

install:
	python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-verbose:
	pytest benchmarks/ --benchmark-only -s

# The CI tier of the paper's experiments: the benchmark files whose gates
# are the reproduction's claims (Figure 4, availability, overload,
# exactly-once, failover RTT).
benchmark-smoke:
	pytest benchmarks -q -k "fig4 or availability or overload or exactly_once or rtt_failover" $(PYTEST_TIMEOUT)

examples:
	python examples/quickstart.py
	python examples/semantic_discovery.py
	python examples/b2b_supply_chain.py
	python examples/workflow_process.py
	python examples/operations.py
	python examples/multi_region.py

figures:
	python -m repro fig4

overload:
	python -m repro overload

exactly-once:
	python -m repro campaign --seed 42 --duration 60 --workload enroll --loss 0.01
	python -m repro campaign --seed 42 --duration 60 --workload enroll --loss 0.01 --no-journal

check:
	python -m repro check --seeds 5 --schedules 50

check-self-test:
	python -m repro check --self-test

# The CI tier: a shorter exploration (the invariants must hold), then the
# self-test (fencing off must violate, shrink, and replay).
check-smoke:
	python -m repro check --seeds 3 --schedules 25 --timeout 300
	python -m repro check --self-test --timeout 300

# The flow pins of tests/check/test_digest_pins.py as this tree produces
# them (both tables, ready to paste) and one line saying which moved.  The
# 15 baseline pins are frozen: if one moved, this exits 1.
digest-pins:
	PYTHONPATH=src python -m tests.check.test_digest_pins

# Semantic sharding: read-throughput scaling across federated shard
# groups, Figure-4-style message growth, and the shard-group-crash
# rebalance audit (exactly-once must hold across the ring handoff).
shard:
	python -m repro shard

# The CI tier: a short 1-vs-4 sweep plus the rebalance audit (exit 1 if
# any effect is double-applied), a cross-shard schedule-exploration pass,
# and the sharding benchmark's assertions.
shard-smoke:
	python -m repro shard --shards 1,4 --duration 4 --window 5
	python -m repro check --shards 2 --seeds 1 --schedules 5 --timeout 300
	pytest benchmarks/test_sharding.py -q $(PYTEST_TIMEOUT)

# Multi-region WAN benchmark: gossip convergence vs the O(log N) bound,
# staleness vs fanout, gossip-vs-flood message economy, nearest-region
# latency, and the single-region Figure-4 byte-identity guard.
# Regenerates the committed BENCH_wan.json record.
wan:
	python -m repro wan --out BENCH_wan.json

# The CI tier: reduced sweeps, same assertions (exit 1 on any failure),
# plus a region-partition schedule-exploration pass.
wan-smoke:
	python -m repro wan --smoke --out bench-wan-smoke.json
	python -m repro check --regions 2 --seeds 1 --schedules 5 --timeout 300

# Saga benchmark: availability, p99, and compensation correctness of the
# loan-solvency pipeline under 1% loss + orchestrator crashes at commit
# boundaries, against the no-compensation baseline (which must strand
# partial effects).  Regenerates the committed BENCH_saga.json record.
saga:
	python -m repro saga --out BENCH_saga.json

# The CI tier: single-seed bench with the full assertion set, a random
# saga schedule-exploration pass, the compensation-off self-test (the
# atomicity audit must catch, shrink, and replay the violation), a
# standalone --replay of the file it wrote (the one replay path picks
# the saga scenario from the file's format field), and the
# dead-letter-queue park + requeue demo.
saga-smoke:
	python -m repro saga --smoke --out bench-saga-smoke.json
	python -m repro check --saga --seeds 1 --schedules 5 --timeout 300
	python -m repro check --saga --self-test --timeout 300 --out saga-self-test-repro.json
	python -m repro check --replay saga-self-test-repro.json
	python -m repro dlq --requeue

# Adaptive capacity benchmark: the diurnal trace priced against the
# provision-for-peak baseline (replica-hours, availability parity, p99
# band, cache hit ratio), the breaker trip-and-heal drill, and the
# single-deployment Figure-4 byte-identity guard.  Regenerates the
# committed BENCH_capacity.json record.
capacity:
	python -m repro capacity --out BENCH_capacity.json

# The CI tier: the smoke bench with the full assertion set, a
# scale-op-enabled schedule-exploration pass, and the capacity
# conformance test suites (autoscale properties, breaker transition
# table, result-cache semantics, record gating).
capacity-smoke:
	python -m repro capacity --smoke --out bench-capacity-smoke.json
	python -m repro check --capacity --seeds 1 --schedules 25 --timeout 300
	pytest tests/properties/test_prop_autoscale.py tests/core/test_breaker.py \
		tests/core/test_rescache.py tests/bench/test_capacity.py -q

# The repo's benchmark (BENCHMARK.json): a client request through the
# whole stack on the wall clock — five workloads x three untraced repeats
# plus one traced run each for the per-layer numbers; writes
# bench_e2e/out/results.json.  Run it on the parent commit and on the
# change, judge the pair with bench_e2e/compare.py, and append both
# records to BENCH_e2e.json (EXPERIMENTS.md "bench_e2e before/after").
bench-e2e:
	python3 bench_e2e/run.py --seed 42 --traced

# The CI tier: a functional pass over every workload (short soaks, 1/20
# windows — not a measurement), then the benchmark's own checks.
bench-e2e-smoke:
	python3 bench_e2e/run.py --smoke
	PYTHONPATH=src python -m pytest bench_e2e -q

# A claimed gain, measured: one parent/change pair per fresh seed, the side
# that runs first alternating, PARENT exported with `git archive` into
# /root/scratch (or $TMPDIR), the change side this tree (commit first: edits
# not in HEAD are measured too, and the claim says so).  Prints each side's
# median / quartiles / wins per end-to-end metric and the verdict on METRIC
# (any end-to-end metric of BENCHMARK.json, which also gives its direction);
# writes the `claim` object BENCH_e2e.json records hold.  ALSO=w1,w2 pairs
# those workloads too on the same seeds and export, and prints ok / regressed /
# unresolved per metric by its bound: did anything else get worse?
# e.g. make e2e-pairs WORKLOAD=read_seed SEEDS=1001-1010 PARENT=HEAD~1 METRIC=peak_rss_mb ALSO=ladder_full
WORKLOAD ?= read_seed
METRIC ?= cpu_ms_per_req
e2e-pairs:
	python3 benchmarks/e2e_pairs.py --workload $(WORKLOAD) --seeds $(SEEDS) --parent $(PARENT) --metric $(METRIC) $(if $(ALSO),--also $(ALSO))

# The line-count table every CHANGES.md entry quotes (`wc -l`, so
# comments and blank lines count): src/ total, each package, each file
# of core/.  Run it on the parent and on the change.
loc:
	@find src -name '*.py' | xargs cat | wc -l | awk '{printf "%7d  src/\n", $$1}'
	@for pkg in src/repro/*/; do \
		find $$pkg -name '*.py' | xargs cat | wc -l | awk -v p=$$pkg '{printf "%7d  %s\n", $$1, p}'; \
	done
	@wc -l src/repro/*.py src/repro/core/*.py | grep -v ' total$$' | awk '{printf "%7d  %s\n", $$1, $$2}'

# What the traffic reaches (DESIGN.md §6.15; not a gate): every
# `python -m repro` line of the smoke tiers, the other CLI commands once,
# the bench_e2e smoke suite and the examples run under the profile hook of
# tools/census/sitecustomize.py, which then lists, per file, the src/repro
# functions none of them entered.  ~2 min.  The next "delete or keep"
# decision starts from this list, not from grep.
CENSUS_DIR ?= .census
SMOKE_TIERS := check-smoke shard-smoke wan-smoke saga-smoke capacity-smoke benchmark-smoke
census:
	rm -rf $(CENSUS_DIR) && mkdir -p $(CENSUS_DIR)
	export REPRO_CENSUS_DIR=$(abspath $(CENSUS_DIR)) PYTHONPATH=$(abspath tools/census):$(abspath src); set -e; \
	python3 bench_e2e/run.py --smoke --out $(CENSUS_DIR)/e2e.json >/dev/null; \
	$(MAKE) -s -n $(SMOKE_TIERS) | grep '^python -m repro' | sh -e >/dev/null; \
	for command in fig4 rtt failover availability campaign overload trace metrics; do \
		python -m repro $$command >/dev/null; \
	done; \
	$(MAKE) -s examples >/dev/null
	python tools/census/sitecustomize.py $(CENSUS_DIR)

outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: test bench

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
