"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro fig4 [--max-peers 16] [--seed 42] [--json]
    python -m repro rtt [--samples 200] [--json]
    python -m repro failover [--heartbeat 1.0] [--json]
    python -m repro availability [--replicas 6] [--duration 180] [--json]
    python -m repro campaign [--json]
    python -m repro exactly-once [--json]
    python -m repro overload [--seed 42] [--json]
    python -m repro shard [--seed 42] [--json]
    python -m repro check [--seeds 5] [--schedules 50] [--timeout 300]
                          [--regions 2] [--capacity] [--saga] [--self-test]
                          [--replay FILE] [--out FILE] [--json]
    python -m repro trace [--samples 20] [--crash] [--last 5] [--json]
    python -m repro metrics [--samples 50] [--crash] [--json | --csv]
    python -m repro wan [--out BENCH_wan.json] [--json]
    python -m repro saga [--out BENCH_saga.json] [--json]
    python -m repro capacity [--out BENCH_capacity.json] [--json]
    python -m repro dlq [--sagas 3] [--requeue] [--json]

Each subcommand prints the same tables the corresponding benchmark
asserts on (see EXPERIMENTS.md).  The first four (the paper's §5), the
extensions ``campaign`` / ``exactly-once`` / ``overload`` / ``shard`` and
``wan`` / ``saga`` / ``capacity`` are *gated*: one runner under
``repro.bench`` returns a record whose ``assertions`` are the paper-shape
gates, and the command exits 1 if one fails.  Common flags — ``--seed``,
``--json`` — are shared parent parsers, so they work uniformly before or
after the subcommand name.
"""

from __future__ import annotations

import argparse
import json as json_module
import sys
from typing import List, Optional, Tuple

from .bench import (
    campaign,
    capacity,
    format_phase_breakdown,
    format_table,
    overload,
    paper,
    saga,
    sharding,
    wan,
)
from .bench.harness import check_record, quiet
from .core import ScenarioConfig, UnsupportedScenarioError, WhisperSystem
from .soap import RequestTimeout, SoapFault

__all__ = ["main"]


def _cmd_check(args: argparse.Namespace) -> int:
    """Schedule exploration: 0 = clean, 1 = counterexample, 2 = checker
    broken or a usage error (one line on stderr)."""
    from .check import (
        CheckScenario,
        SagaCheckScenario,
        ScheduleExplorer,
        load_repro,
        saga_self_test,
        self_test,
    )

    # The axis flags shape the explored enroll scenario; no other mode
    # reads them, so naming one there is a mistake, not a no-op.
    axes = [flag for flag, given in (
        ("--shards", args.shards != 1),
        ("--regions", args.regions != 1),
        ("--capacity", args.capacity),
    ) if given]
    modes = [flag for flag, given in (
        ("--replay", args.replay),
        ("--self-test", args.self_test),
        ("--saga", args.saga),
    ) if given]
    if axes and modes:
        return _usage_error(
            "check",
            f"{modes[0]} does not read {' / '.join(axes)}: the axis flags "
            f"shape only the explored enroll scenario"
        )

    if args.replay:
        try:
            scenario, schedule, expected = load_repro(args.replay)
        except (OSError, ValueError) as error:
            return _usage_error("check", f"--replay: {error}")
        result = scenario.run(schedule)
        ok = result.digest() == expected["digest"]
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
                else "checker self-test (elector and proxy fencing disabled)"
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
    try:
        report = explorer.explore()
    except UnsupportedScenarioError as error:
        # Raised by the first deployment, before any schedule has run.
        return _usage_error("check", str(error))
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.clean else 1


def _usage_error(command: str, message: str) -> int:
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return 2


def _observed_run(
    seed: int, samples: int, crash: bool = False
) -> Tuple[WhisperSystem, object]:
    """Deploy the student service on 4 replicas and drive ``samples``
    requests through it.

    With ``crash=True`` the group's coordinator is crashed shortly after
    the workload starts, so the traces show the full failure story: a
    timed-out ``invoke``, a ``recover`` span, re-``bind``, and retry.
    """
    system = WhisperSystem(ScenarioConfig(seed=seed, replicas=4))
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
    "wan": (wan.run_wan, wan.format_record, ("seed",),
            "multi-region gossip: convergence, staleness, message economy"),
    "saga": (saga.run_saga_bench, saga.format_record, (),
             "saga bench: availability + atomicity under faults, vs the "
             "no-compensation baseline"),
    "capacity": (capacity.run_capacity, capacity.format_record, ("seed",),
                 "adaptive capacity: diurnal trace, autoscaled vs static-max, "
                 "plus breaker drill and cache gates"),
    "campaign": (campaign.run_campaign, campaign.format_campaign, (),
                 "seeded fault campaigns: availability vs. MTBF with the "
                 "invariant audit"),
    "exactly-once": (campaign.run_exactly_once, campaign.format_exactly_once, (),
                     "enroll campaigns under churn, partitions and loss: no "
                     "invocation applied twice"),
    "overload": (overload.run_overload, overload.format_overload, ("seed",),
                 "past the knee: bounded queues vs. unbounded, least-outstanding "
                 "vs. round-robin"),
    "shard": (sharding.run_shard, sharding.format_shard, ("seed",),
              "semantic sharding: read scaling, message growth, rebalance"),
}

#: The option each of those keyword arguments is read from (``seed`` is the
#: shared parent).
_GATED_OPTIONS = {
    "max_peers": ("--max-peers", dict(type=int, default=16)),
    "samples": ("--samples", dict(type=int, default=200)),
    "heartbeat": ("--heartbeat", dict(type=float, default=1.0)),
    "replicas": ("--replicas", dict(
        type=int, default=6,
        help="largest replication degree swept (1, 2, 4, 6 up to this)")),
    "duration": ("--duration", dict(
        type=float, default=180.0, help="run length in simulated seconds")),
}

#: The benches whose record is committed as ``BENCH_<name>.json``; each
#: also takes ``--out``.
_KEPT_RECORDS = ("wan", "saga", "capacity")


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
    # a subcommand-level ``--seed`` from clobbering the top-level value
    # when the flag is not actually on the command line.
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="root RNG seed"
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
        if name in _KEPT_RECORDS:
            bench.add_argument(
                "--out", default=f"BENCH_{name}.json",
                help=f"where to write the {name} record",
            )
        bench.set_defaults(func=_gated_bench)

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
        help="disable the electors' and the proxy's epoch fence (with "
             "--saga: compensation) and require the checker to catch, "
             "shrink, and replay the resulting violation",
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


#: The least value of each count option; ``main`` rejects a smaller one
#: before any command runs (``--schedules 0`` is the baseline run alone).
_LEAST_COUNT = {
    "seeds": 1,
    "schedules": 0,
    "max_ops": 1,
    "shards": 1,
    "regions": 1,
    "samples": 1,
    "last": 0,
    "sagas": 1,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for option, least in _LEAST_COUNT.items():
        value = getattr(args, option, least)
        if value < least:
            flag = "--" + option.replace("_", "-")
            return _usage_error(
                args.command, f"argument {flag}: must be >= {least}, got {value}"
            )
    return args.func(args)
