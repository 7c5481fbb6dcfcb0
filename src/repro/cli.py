"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro fig4 [--max-peers 16] [--seed 42] [--json]
    python -m repro rtt [--samples 200] [--json]
    python -m repro failover [--heartbeat 1.0] [--json]
    python -m repro availability [--replicas 6] [--duration 180] [--json]
    python -m repro campaign [--duration 90] [--workload enroll] [--loss 0.01] [--json]
    python -m repro overload [--rates 125,250,375,500] [--queue-bound 8]
    python -m repro shard [--shards 1,2,4] [--replicas 2] [--rate-multiple 3.0]
                          [--skip-rebalance] [--json]
    python -m repro check [--seeds 5] [--schedules 50] [--timeout 300]
                          [--regions 2] [--capacity] [--saga] [--self-test]
                          [--replay FILE] [--out FILE] [--json]
    python -m repro trace [--samples 20] [--crash] [--last 5] [--json]
    python -m repro metrics [--samples 50] [--crash] [--json | --csv]
    python -m repro wan [--smoke] [--out BENCH_wan.json] [--json]
    python -m repro saga [--smoke] [--out BENCH_saga.json] [--json]
    python -m repro capacity [--smoke] [--out BENCH_capacity.json] [--json]
    python -m repro dlq [--sagas 3] [--requeue] [--json]

Each subcommand prints the same tables the corresponding benchmark
asserts on (see EXPERIMENTS.md).  The first four (the paper's §5) and
``wan`` / ``saga`` / ``capacity`` are *gated*: one runner under
``repro.bench`` returns a record whose ``assertions`` are the paper-shape
gates, and the command exits 1 if one fails.  Common flags — ``--seed``,
``--duration``, ``--json`` — are shared parent parsers, so they work
uniformly before or after the subcommand name.  ``overload`` sweeps an
open-loop arrival rate across the deployment's saturation knee and shows
what bounded queues + load-aware dispatch do to shed rate and tail
latency.
"""

from __future__ import annotations

import argparse
import json as json_module
from typing import List, Optional, Tuple

from .bench import capacity, format_phase_breakdown, format_table, paper, saga, wan
from .bench.harness import check_record, quiet
from .bench.overload import run_overload_point
from .core import ScenarioConfig, WhisperSystem
from .core.dispatch import DISPATCH_POLICIES
from .soap import RequestTimeout, SoapFault

__all__ = ["main"]


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .core import FaultCampaign

    campaign = FaultCampaign(
        seed=args.seed,
        duration=args.duration,
        replicas=args.replicas,
        mtbf=args.mtbf,
        mttr=args.mttr,
        partitions=args.partitions,
        partition_duration=args.partition_duration,
        workload=args.workload,
        loss_rate=args.loss,
    )
    report = campaign.run()
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _cmd_overload(args: argparse.Namespace) -> int:
    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    config = ScenarioConfig(
        seed=args.seed,
        replicas=args.replicas,
        dispatch=args.dispatch,
        queue_bound=args.queue_bound,
        request_timeout=2.0,
        max_attempts=6,
        deadline_budget=args.deadline,
    )
    points = [
        run_overload_point(rate, duration=args.duration, config=config)
        for rate in rates
    ]
    if args.json:
        print(json_module.dumps([p.to_dict() for p in points], indent=2))
        return 0
    knee = points[0].capacity if points else 0.0
    bound = "unbounded" if args.queue_bound is None else str(args.queue_bound)
    print(format_table(
        ["rate", "load", "offered", "ok", "shed", "shed rate",
         "accepted avail", "tput", "p50 ms", "p99 ms"],
        [p.row() for p in points],
        title=(f"Overload sweep — {args.replicas} replicas, knee ~{knee:.0f}/s, "
               f"dispatch {args.dispatch}, queue bound {bound}"),
    ))
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    """Sharding sweep: read scaling, message growth, rebalance safety."""
    from .bench.sharding import run_rebalance, run_shard_sweep, shard_capacity

    shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]
    points = run_shard_sweep(
        shard_counts=shard_counts,
        replicas=args.replicas,
        rate_multiple=args.rate_multiple,
        duration=args.duration,
        seed=args.seed,
        message_window=args.window,
    )
    rebalance = None
    if not args.skip_rebalance:
        rebalance = run_rebalance(
            shards=max(shard_counts),
            replicas=args.replicas,
            seed=args.seed,
        )

    if args.json:
        payload = {
            "sweep": [p.to_dict() for p in points],
            "speedup": (
                points[-1].throughput / points[0].throughput
                if points and points[0].throughput > 0
                else None
            ),
            "rebalance": None if rebalance is None else rebalance.to_dict(),
        }
        print(json_module.dumps(payload, indent=2))
        return 0

    knee = shard_capacity(args.replicas)
    print(format_table(
        ["shards", "offered/s", "requests", "ok", "shed",
         "tput", "p50 ms", "p99 ms", "msgs"],
        [p.row() for p in points],
        title=(
            f"Shard scaling — {args.replicas} replicas/shard "
            f"(knee ~{knee:.0f}/s each), offered "
            f"{args.rate_multiple:.1f}x one shard's knee, "
            f"{args.duration:.0f}s Poisson + {args.window:.0f}s message window"
        ),
    ))
    if len(points) > 1 and points[0].throughput > 0:
        speedup = points[-1].throughput / points[0].throughput
        print(f"\nspeedup at {points[-1].shards} shards vs "
              f"{points[0].shards}: {speedup:.2f}x")
    if rebalance is not None:
        print()
        print(format_table(
            ["metric", "value"],
            rebalance.rows(),
            title=(
                "Rebalance — whole shard group crashed mid-enrollment "
                "(ring-successor handoff, per-group dedup journals)"
            ),
        ))
        print("exactly-once across handoff: "
              + ("HELD" if rebalance.exactly_once else "VIOLATED"))
    return 0 if rebalance is None or rebalance.exactly_once else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """Schedule exploration: 0 = clean, 1 = counterexample, 2 = checker broken."""
    from .check import (
        CheckScenario,
        SagaCheckScenario,
        ScheduleExplorer,
        replay_repro,
        saga_self_test,
        self_test,
    )

    if args.replay:
        ok, result, expected = replay_repro(args.replay)
        payload = {
            "replay": args.replay,
            "match": ok,
            "digest": result.digest(),
            "expected_digest": expected["digest"],
            "violations": result.violations,
        }
        if args.json:
            print(json_module.dumps(payload, indent=2))
        elif ok:
            print(f"replay {args.replay}: byte-identical "
                  f"({len(result.violations)} violation(s) reproduced)")
            for violation in result.violations:
                print(f"  - {violation}")
        else:
            print(f"replay {args.replay}: DIVERGED "
                  f"(got {result.digest()[:16]}…, "
                  f"expected {expected['digest'][:16]}…)")
        return 0 if ok else 2

    if args.self_test:
        outcome = (saga_self_test if args.saga else self_test)(
            seed=args.seed,
            repro_path=args.out,
            time_budget=args.timeout,
        )
        if args.json:
            print(json_module.dumps(outcome, indent=2))
        else:
            status = "OK" if outcome["ok"] else "FAILED"
            title = (
                "saga checker self-test (compensation disabled)"
                if args.saga
                else "checker self-test (epoch fencing disabled)"
            )
            print(f"{title}: {status}")
            for key in ("violations", "shrunk_schedule", "shrink_runs",
                        "repro_path", "replay_ok", "tries"):
                if key in outcome:
                    print(f"  {key:16}: {outcome[key]}")
        # The self-test *must* catch the seeded regression: a clean pass
        # means the checker itself is broken, which outranks a mere
        # counterexample.
        return 0 if outcome["ok"] else 2

    explorer = ScheduleExplorer(
        (
            SagaCheckScenario()
            if args.saga
            else CheckScenario(
                shards=args.shards,
                regions=args.regions,
                capacity=args.capacity,
            )
        ),
        seeds=range(args.seed, args.seed + args.seeds),
        schedules_per_seed=args.schedules,
        max_ops=args.max_ops,
        time_budget=args.timeout,
        repro_path=args.out,
    )
    report = explorer.explore()
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.clean else 1


def _observed_run(
    seed: int, samples: int, crash: bool = False, replicas: int = 4
) -> Tuple[WhisperSystem, object]:
    """Deploy the student service and drive ``samples`` requests through it.

    With ``crash=True`` the group's coordinator is crashed shortly after
    the workload starts, so the traces show the full failure story: a
    timed-out ``invoke``, a ``recover`` span, re-``bind``, and retry.
    """
    system = WhisperSystem(ScenarioConfig(seed=seed, replicas=replicas))
    service = system.deploy_student_service()
    system.settle(6.0)
    node, soap = system.add_client("obs-client")
    if crash:
        victim = service.group.coordinator_peer()
        system.failures.crash_at(system.env.now + 0.8, victim.node.name)

    def loop():
        for index in range(samples):
            try:
                yield from soap.call(
                    service.address, service.path, "StudentInformation",
                    {"ID": f"S{(index % 200) + 1:05d}"}, timeout=60.0,
                )
            except (SoapFault, RequestTimeout):
                pass  # keep driving under failures
            yield system.env.timeout(0.1)

    system.env.run(until=node.spawn(loop()))
    return system, service


def _cmd_trace(args: argparse.Namespace) -> int:
    system, _service = _observed_run(args.seed, args.samples, crash=args.crash)
    if args.json:
        print(system.obs.traces_to_json(limit=args.last, indent=2))
        return 0
    for trace in system.obs.recent_traces(limit=args.last):
        print(trace.format())
        print()
    print(format_phase_breakdown(
        system.obs.phase_summary(),
        title=f"Per-phase latency over {args.samples} requests"
        + (" (coordinator crashed mid-run)" if args.crash else ""),
    ))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.json and args.csv:
        raise SystemExit("--json and --csv are mutually exclusive")
    system, _service = _observed_run(args.seed, args.samples, crash=args.crash)
    if args.json:
        print(system.obs.to_json(indent=2))
        return 0
    if args.csv:
        print(system.obs.phases_to_csv(), end="")
        return 0
    counters = system.obs.metrics.counters
    print(format_table(
        ["counter", "value"],
        [[name, counter.value] for name, counter in sorted(counters.items())],
        title="Counters",
    ))
    print()
    print(format_phase_breakdown(system.obs.phase_summary()))
    return 0


#: The gated benches: command -> (runner, formatter, runner keyword
#: arguments, help).  Every runner returns a record (``schema``, ``seed``,
#: rows, ``assertions``, ``ok``); a row here is the whole registration.
_GATED = {
    "fig4": (paper.run_fig4, paper.format_fig4, ("seed", "max_peers"),
             "Figure 4: messages vs b-peers"),
    "rtt": (paper.run_rtt, paper.format_rtt, ("seed", "samples"),
            "failure-free RTT: packet level and end to end"),
    "failover": (paper.run_failover, paper.format_failover, ("seed", "heartbeat"),
                 "worst-case RTT (coordinator crash) vs detection period"),
    "availability": (paper.run_availability, paper.format_availability,
                     ("seed", "replicas", "duration"),
                     "availability under churn vs replication degree"),
    "wan": (wan.run_wan, wan.format_record, ("seed", "scale"),
            "multi-region gossip: convergence, staleness, message economy"),
    "saga": (saga.run_saga_bench, saga.format_record, ("scale",),
             "saga bench: availability + atomicity under faults, vs the "
             "no-compensation baseline"),
    "capacity": (capacity.run_capacity, capacity.format_record, ("seed", "scale"),
                 "adaptive capacity: diurnal trace, autoscaled vs static-max, "
                 "plus breaker drill and cache gates"),
}

#: The option each of those keyword arguments is read from (``seed`` is the
#: shared parent).  A bench with a ``scale`` also takes ``--out``: its
#: record is a committed ``BENCH_<name>.json``.
_GATED_OPTIONS = {
    "max_peers": ("--max-peers", dict(type=int, default=16)),
    "samples": ("--samples", dict(type=int, default=200)),
    "heartbeat": ("--heartbeat", dict(type=float, default=1.0)),
    "replicas": ("--replicas", dict(
        type=int, default=6,
        help="largest replication degree swept (1, 2, 4, 6 up to this)")),
    "duration": ("--duration", dict(
        type=float, default=180.0, help="run length in simulated seconds")),
    "scale": ("--smoke", dict(
        dest="scale", action="store_const", const="smoke", default="full",
        help="the CI tier: reduced sweeps, same assertions")),
}


def _gated_bench(args: argparse.Namespace) -> int:
    """Run the bench, write its record if it keeps one, print it, gate it."""
    run, format_record, keywords, _help = _GATED[args.command]
    record = run(
        progress=quiet if args.json else print,
        **{keyword: getattr(args, keyword) for keyword in keywords},
    )
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as handle:
            handle.write(json_module.dumps(record, indent=2) + "\n")
    if args.json:
        print(json_module.dumps(record, indent=2))
    else:
        print(format_record(record))
        if out:
            print(f"wrote {out}")
    failures = check_record(record, args.command)
    for failure in failures:
        print(failure)
    return 0 if not failures else 1


def _cmd_dlq(args: argparse.Namespace) -> int:
    """Inspect (and optionally requeue) dead-lettered sagas."""
    from .check import run_dlq_demo

    demo = run_dlq_demo(
        seed=args.seed, sagas=args.sagas, requeue=args.requeue
    )
    if args.json:
        print(json_module.dumps(demo, indent=2))
    else:
        print(f"dead-letter queue after a {demo['outage']:.0f}s outage of "
              f"{', '.join(demo['cancel_hosts'])} "
              f"({demo['parked']} saga(s) parked):")
        for line in demo["entries"]:
            print(f"  {line}")
        if args.requeue:
            print("\nafter outage heal + requeue:")
            for line in demo.get("entries_after", []):
                print(f"  {line}")
            print("final states: " + ", ".join(
                f"{saga_id}={state}"
                for saga_id, state in sorted(demo["states"].items())
            ))
        print(f"\npending entries: {demo['pending_after']}, "
              f"atomicity violations: {len(demo['violations'])}")
        for violation in demo["violations"]:
            print(f"  - {violation}")
    if demo["violations"]:
        return 1
    if args.requeue:
        return 0 if demo["pending_after"] == 0 else 1
    return 0 if demo["parked"] > 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Whisper reproduction — run the paper's experiments.",
    )
    parser.add_argument("--seed", type=int, default=42, help="root RNG seed")

    # Shared flags as parent parsers.  ``default=argparse.SUPPRESS`` keeps
    # a subcommand-level ``--seed``/``--duration`` from clobbering the
    # top-level value (or the per-command ``set_defaults``) when the flag
    # is not actually on the command line.
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="root RNG seed"
    )
    duration_parent = argparse.ArgumentParser(add_help=False)
    duration_parent.add_argument(
        "--duration", type=float, default=argparse.SUPPRESS,
        help="run length in simulated seconds",
    )
    json_parent = argparse.ArgumentParser(add_help=False)
    json_parent.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, (_run, _format, keywords, help_text) in _GATED.items():
        parents = [seed_parent, json_parent] if "seed" in keywords else [json_parent]
        bench = subparsers.add_parser(name, parents=parents, help=help_text)
        for keyword in keywords:
            if keyword in _GATED_OPTIONS:
                flag, spec = _GATED_OPTIONS[keyword]
                bench.add_argument(flag, **spec)
        if "scale" in keywords:
            bench.add_argument(
                "--out", default=f"BENCH_{name}.json",
                help=f"where to write the {name} record",
            )
        bench.set_defaults(func=_gated_bench)

    campaign = subparsers.add_parser(
        "campaign",
        parents=[seed_parent, duration_parent, json_parent],
        help="seeded fault campaign (churn + partitions) with invariant audit",
    )
    campaign.add_argument("--replicas", type=int, default=4)
    campaign.add_argument("--mtbf", type=float, default=25.0)
    campaign.add_argument("--mttr", type=float, default=10.0)
    campaign.add_argument("--partitions", type=int, default=2)
    campaign.add_argument("--partition-duration", type=float, default=6.0)
    campaign.add_argument(
        "--workload", choices=("lookup", "enroll"), default="lookup",
        help="probe workload: read-only lookups or mutating enrollments",
    )
    campaign.add_argument(
        "--loss", type=float, default=0.0,
        help="network-wide message loss rate (e.g. 0.01 for 1%%)",
    )
    campaign.set_defaults(func=_cmd_campaign, duration=90.0)

    overload = subparsers.add_parser(
        "overload",
        parents=[seed_parent, duration_parent, json_parent],
        help="saturation sweep: shed rate + tail latency across the knee",
    )
    overload.add_argument(
        "--rates", default="125,250,375,500",
        help="comma-separated open-loop arrival rates (requests/s)",
    )
    overload.add_argument("--replicas", type=int, default=4)
    overload.add_argument(
        "--dispatch", choices=sorted(DISPATCH_POLICIES), default="least-outstanding",
    )
    overload.add_argument(
        "--queue-bound", type=int, default=8,
        help="per-member admission bound (0 = unbounded)",
    )
    overload.add_argument(
        "--deadline", type=float, default=2.0,
        help="per-request deadline budget in seconds",
    )
    overload.set_defaults(func=_cmd_overload, duration=5.0)

    shard = subparsers.add_parser(
        "shard",
        parents=[seed_parent, json_parent],
        help="semantic sharding: read scaling, message growth, rebalance",
    )
    shard.add_argument(
        "--shards", default="1,2,4",
        help="comma-separated shard counts to sweep",
    )
    shard.add_argument(
        "--replicas", type=int, default=2,
        help="replicas per shard group (fixed across the sweep)",
    )
    shard.add_argument(
        "--rate-multiple", type=float, default=3.0,
        help="offered load as a multiple of one shard group's knee",
    )
    shard.add_argument(
        "--duration", type=float, default=8.0,
        help="Poisson workload duration per point (simulated seconds)",
    )
    shard.add_argument(
        "--window", type=float, default=10.0,
        help="steady-state message-count window per point",
    )
    shard.add_argument(
        "--skip-rebalance", action="store_true",
        help="skip the shard-group-crash rebalance audit",
    )
    shard.set_defaults(func=_cmd_shard)

    check = subparsers.add_parser(
        "check",
        parents=[seed_parent, json_parent],
        help="schedule exploration: invariants under perturbed orderings",
    )
    check.add_argument(
        "--seeds", type=int, default=5,
        help="how many root seeds to explore (starting at --seed)",
    )
    check.add_argument(
        "--schedules", type=int, default=50,
        help="perturbed schedules per seed (plus one baseline run each)",
    )
    check.add_argument(
        "--max-ops", type=int, default=4,
        help="maximum fault ops per random schedule",
    )
    check.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock budget in real seconds (truncates, never fails)",
    )
    check.add_argument(
        "--out", default="whisper-check-repro.json",
        help="where to write the repro file if a violation is found",
    )
    check.add_argument(
        "--replay", metavar="FILE", default=None,
        help="re-execute a saved repro file (either scenario's: the file "
             "names its format) and verify its digest",
    )
    check.add_argument(
        "--self-test", action="store_true",
        help="disable epoch fencing (with --saga: compensation) and "
             "require the checker to catch, shrink, and replay the "
             "resulting violation",
    )
    check.add_argument(
        "--shards", type=int, default=1,
        help="federated shard groups for the explored enroll service "
             "(cross-shard schedules audit ring handoff safety)",
    )
    check.add_argument(
        "--regions", type=int, default=1,
        help="WAN regions the explored group spans (region-isolation "
             "schedules audit election safety across WAN splits)",
    )
    check.add_argument(
        "--capacity", action="store_true",
        help="arm the adaptive-capacity layer (autoscaler + breaker + "
             "cache) and add forced scale ops to explored schedules",
    )
    check.add_argument(
        "--saga", action="store_true",
        help="explore the saga scenario instead: random fault schedules "
             "(orchestrator crashes included) under the atomicity audit",
    )
    check.set_defaults(func=_cmd_check)

    trace = subparsers.add_parser(
        "trace",
        parents=[seed_parent, json_parent],
        help="per-request phase span trees + phase breakdown",
    )
    trace.add_argument("--samples", type=int, default=20)
    trace.add_argument("--crash", action="store_true",
                       help="crash the coordinator mid-run (shows recovery)")
    trace.add_argument("--last", type=int, default=5,
                       help="how many recent traces to print")
    trace.set_defaults(func=_cmd_trace)

    metrics = subparsers.add_parser(
        "metrics",
        parents=[seed_parent, json_parent],
        help="aggregated counters + per-phase latency histograms",
    )
    metrics.add_argument("--samples", type=int, default=50)
    metrics.add_argument("--crash", action="store_true",
                         help="crash the coordinator mid-run (shows recovery)")
    metrics.add_argument("--csv", action="store_true",
                         help="emit the phase breakdown as CSV")
    metrics.set_defaults(func=_cmd_metrics)

    dlq = subparsers.add_parser(
        "dlq",
        parents=[seed_parent, json_parent],
        help="dead-letter queue: park sagas whose compensation exhausted "
             "its budget, inspect, optionally requeue",
    )
    dlq.add_argument(
        "--sagas", type=int, default=3,
        help="insolvent sagas to submit against the dead CancelLoan group",
    )
    dlq.add_argument(
        "--requeue", action="store_true",
        help="after the outage heals, requeue every pending entry and "
             "re-audit atomicity",
    )
    dlq.set_defaults(func=_cmd_dlq)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "last", 0) < 0:
        parser.error(f"argument --last: must be >= 0, got {args.last}")
    if getattr(args, "queue_bound", None) == 0:
        args.queue_bound = None
    return args.func(args)
