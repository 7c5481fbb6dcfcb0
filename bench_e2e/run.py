#!/usr/bin/env python3
"""bench_e2e: a client request through the whole Whisper stack, on the wall clock.

Run from the root of a checkout:

``python3 bench_e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (the form BENCHMARK.json's
    driver uses).  The last line of stdout is one JSON object with the
    keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
    end-to-end metrics untraced, the per-layer metrics traced.  The line
    before it (``detail: {...}``) carries everything the run computed.

``python3 bench_e2e/run.py --seed 42 [--traced] [--smoke]``
    The whole suite: every workload in a fresh subprocess, three
    untraced repeats in interleaved order, a table of every end-to-end
    metric, and ``bench_e2e/out/results.json`` for ``compare.py``.

``python3 bench_e2e/run.py --manifest``
    Print BENCHMARK.json as the catalogue in ``metrics.py`` defines it.

The timed window is fixed on the simulated clock: ``--seconds S`` asks
for ``Workload.window_sim × S / 10`` simulated seconds, which is about S
host seconds on the box the constants were sized on.  One seed therefore
always serves the same requests, and its sim metrics repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

REPEATS = 3
RUN_SECONDS = 10
#: ``--smoke``: a twentieth of the window (and short soaks).
SMOKE_SECONDS = 0.5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of the timed window: each workload serves "
                             "window_sim simulated seconds per 10 asked for, "
                             "about that many host seconds on the reference box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="suite: add one traced run per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="short warm-ups and windows (a functional check, "
                             "not a measurement)")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json from metrics.py and exit")
    parser.add_argument("--out", default=os.path.join(OUT, "results.json"),
                        help="suite: where the results JSON goes")
    return parser.parse_args(argv)


# -- one run, in this process ---------------------------------------------------------


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"bench_e2e: no product source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    from measure import run_workload
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench_e2e: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS
    result = run_workload(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        spans_path=os.path.join(OUT, f"trace-{args.workload}.json"),
    )
    for violation in result.violations:
        print(f"bench_e2e: {args.workload}: {violation}", file=sys.stderr)

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    values = {**result.end_to_end, **result.per_layer}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "info": result.info,
        "metrics": values,
    }
    print("detail: " + json.dumps(detail))
    reported = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not result.violations,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name, *_ in reported
        },
    }))
    return 1 if result.violations else 0


# -- the suite, in subprocesses ---------------------------------------------------------


def _child(workload, seed, trace, smoke, seconds=None):
    """Run one workload in a fresh interpreter; returns its detail dict."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace))]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_e2e: {workload} (trace={int(trace)}) failed "
                         f"with exit code {completed.returncode}")
    detail = json.loads(lines[-2].removeprefix("detail: "))
    detail["result"] = json.loads(lines[-1])
    return detail


def _git_commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_suite(args) -> int:
    sys.path.insert(0, SOURCE)
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    runs = {name: [] for name in names}
    repeats = 1 if args.smoke else REPEATS
    # Interleaved (w1 … w5, then again) so drift on a shared box spreads
    # over the workloads instead of landing on the last one.
    for repeat in range(repeats):
        for name in names:
            print(f"[{repeat + 1}/{repeats}] {name} ...", file=sys.stderr)
            runs[name].append(
                _child(name, args.seed, False, args.smoke, args.seconds)
            )

    traced = {}
    if args.traced:
        for name in names:
            print(f"[traced] {name} ...", file=sys.stderr)
            # Same seed, same window: the hook must not move a sim metric.
            reference = runs[name][0]
            traced[name] = _child(name, args.seed, True, args.smoke, args.seconds)
            mismatched = [
                metric for metric, _, _, _, clock, _ in END_TO_END
                if clock == "sim"
                and traced[name]["metrics"][metric] != reference["metrics"][metric]
            ]
            if mismatched:
                raise SystemExit(
                    f"bench_e2e: {name}: traced run changed sim metrics {mismatched}"
                )

    workloads = {}
    for name in names:
        samples = {
            metric: [run["metrics"][metric] for run in runs[name]]
            for metric, *_ in END_TO_END
        }
        workloads[name] = {
            "why": WORKLOADS[name].why,
            "requests": [run["info"]["requests"] for run in runs[name]],
            "latency_samples": [run["info"]["latency_samples"] for run in runs[name]],
            "end_to_end": {
                metric: {
                    "median": statistics.median(values),
                    "min": min(values),
                    "max": max(values),
                    "samples": values,
                }
                for metric, values in samples.items()
            },
            "per_layer_untraced": {
                metric: runs[name][0]["metrics"][metric]
                for metric, *_ in PER_LAYER
                if metric in runs[name][0]["metrics"]
            },
        }
        if name in traced:
            workloads[name]["per_layer"] = {
                metric: traced[name]["metrics"][metric] for metric, *_ in PER_LAYER
            }
            workloads[name]["traced_info"] = traced[name]["info"]

    record = {
        "schema": "bench_e2e/1",
        "command": "python3 bench_e2e/run.py " + " ".join(sys.argv[1:]),
        "seed": args.seed,
        "smoke": args.smoke,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "workloads": workloads,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    units = {name: (unit, clock) for name, unit, _, _, clock, _ in END_TO_END}
    for name in names:
        entry = workloads[name]
        print(f"\n== {name}  (requests per run: {entry['requests']}, "
              f"latency samples: {entry['latency_samples']})")
        for metric, stats in entry["end_to_end"].items():
            unit, clock = units[metric]
            print(f"  {metric:<18} {stats['median']:>12.4f} {unit:<6} {clock:<5} "
                  f"min {stats['min']:.4f}  max {stats['max']:.4f}  n={repeats}")
        shown = entry["per_layer_untraced"]
        print(f"  run.cpu_growth_ratio {shown['run.cpu_growth_ratio']:.3f}   run.fail_share "
              f"{shown['run.fail_share']:.4f}   run.unavail_sim_s "
              f"{shown['run.unavail_sim_s']:.3f}")
        if name in traced:
            unit_of = {metric: unit for metric, unit, *_ in PER_LAYER}
            for metric, value in entry["per_layer"].items():
                print(f"    {metric:<40} {value:>14.4f} {unit_of[metric]}")
    print(f"\nwrote {os.path.relpath(args.out, ROOT)}")
    return 0


def manifest():
    """BENCHMARK.json, from the catalogue."""
    sys.path.insert(0, SOURCE)
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench_e2e/run.py"],
        "paths": ["bench_e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": workload.why} for name, workload in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in PER_LAYER
        ],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is not None:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
