#!/usr/bin/env python3
"""The ten-pair protocol as one command: alternating parent/change runs of
one ``bench_e2e`` workload, one fresh seed per pair.

``python3 benchmarks/e2e_pairs.py --workload read_seed --seeds 1001-1010 --parent REV [--metric M] [--also W,...]``
(``make e2e-pairs WORKLOAD=... SEEDS=... PARENT=... [METRIC=...] [ALSO=...]``)

The parent side is ``REV`` exported with ``git archive`` into a scratch
directory (``/root/scratch`` if it exists, else ``$TMPDIR``) — committed
source, and nothing is added to this repository's ``.git``.  The change side
is the tree this file sits in: commit first, because tracked files that differ
from ``HEAD`` are measured as they are, with a warning and a note in the claim.
Each seed runs ``python3 bench_e2e/run.py --workload W --seed S --seconds N
--trace 0`` (``N``: ``BENCHMARK.json``'s ``run_seconds``) once in each tree, one
after the other, the side that goes first alternating.

Printed: per-side median and quartiles and the change's wins for every
end-to-end metric of ``BENCHMARK.json``, whether the six simulated metrics
were bit-identical per seed, and the verdict on the claimed metric (``--metric``:
any end-to-end metric of ``BENCHMARK.json``, which also says which direction is
better; ``cpu_ms_per_req`` unless named) by the rule of the choosing-metrics
guide (the change wins at least nine tenths of the pairs, ties counting for
neither, and the medians differ by more than the distance between the parent's
own quartiles), and per metric ``ok`` / ``regressed`` / ``unresolved`` by its
``bound`` in ``BENCHMARK.json`` — the rule of ``bench_e2e/compare.py``: unresolved
when the parent's inter-quartile distance exceeds the bound, unless the two
sides' runs do not interleave.  ``--also`` runs the same seeds, after the same
parent export, on the other workloads named and prints that table for each:
the gate's second question (did anything else get worse?) in the same session.
Written to ``--out``: the ``claim`` object in the shape ``BENCH_e2e.json`` records
use — the per-metric rows, the seeds and, per pair, only the claimed metric and
``failed`` (every pair's full metric block made PR 17's claim 69 KB).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 bench_e2e/run.py --workload {workload} --seed {seed} --seconds {seconds:g} --trace 0"
#: Decided by the seed alone: equal on both sides unless the message flow moved.
SIM_METRICS = (
    "sim_p50_ms", "sim_p99_ms", "sim_goodput_rps", "msgs_per_req", "bytes_per_req", "ok_share",
)  # fmt: skip


def parse_seeds(text):
    """``"1001-1010"`` or ``"7,11,42"`` (or a mix) -> a list of ints."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _git(*arguments):
    command = ["git", "-C", ROOT, *arguments]
    return subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def change_revision():
    """``HEAD``'s short name, marked when tracked files differ from it."""
    sha = _git("rev-parse", "--short", "HEAD")
    if _git("status", "--porcelain", "--untracked-files=no"):
        print("e2e_pairs: WARNING: tracked files differ from HEAD; the change side "
              "is the working tree, not a commit", file=sys.stderr)  # fmt: skip
        sha += " + uncommitted edits"
    return sha


def export_parent(revision, scratch):
    """``git archive REV`` unpacked under ``scratch``; returns the commit's
    short name and the directory."""
    sha = _git("rev-parse", "--short", revision + "^{commit}")
    tree = os.path.join(scratch, f"e2e-pairs-parent-{sha}")
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.Popen(
        ["git", "-C", ROOT, "archive", "--format=tar", sha], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"e2e_pairs: git archive {sha} failed")
    return sha, tree


def run_once(tree, workload, seed, seconds):
    """One run in ``tree``; its end-to-end metric values plus ``failed``."""
    command = COMMAND.format(workload=workload, seed=seed, seconds=seconds).split()
    command[0] = sys.executable
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"e2e_pairs: {' '.join(command)} failed in {tree}")
    result = json.loads(lines[-1])
    values = {name: cell["value"] for name, cell in result["metrics"].items()}
    values["failed"] = result["failed"]
    return values


def run_pairs(trees, workload, seeds, seconds, run):
    """One pair per seed through ``run`` (:func:`run_once`); even pairs run
    the parent first, odd ones the change."""
    pairs = []
    for index, seed in enumerate(seeds):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run(trees[side], workload, seed, seconds)
        pairs.append(pair)
        print(f"pair {index + 1}/{len(seeds)} seed {seed} ({' then '.join(order)}) done",
              file=sys.stderr)  # fmt: skip
    return pairs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def summarise(pairs, manifest):
    """One row per end-to-end metric: each side's quartiles, the change's wins
    and losses (ties are neither), and whether the verdict rule is met."""
    rows = []
    for metric in manifest["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        p_low, p_mid, p_high = _quartiles(parent)
        c_low, c_mid, c_high = _quartiles(change)
        better = c_mid < p_mid if lower else c_mid > p_mid
        relative = (c_mid - p_mid) / p_mid if p_mid else 0.0
        interleaved = min(change) <= max(parent) and min(parent) <= max(change)
        if interleaved and p_mid and (p_high - p_low) / abs(p_mid) > metric["bound"]:
            status = "unresolved"
        else:
            status = "regressed" if (relative if lower else -relative) > metric["bound"] else "ok"
        rows.append({
            "metric": name, "unit": metric["unit"],
            "parent": (p_low, p_mid, p_high), "change": (c_low, c_mid, c_high),
            "wins": wins, "losses": losses, "pairs": len(pairs),
            "relative": relative, "status": status,
            "gain": better and wins >= 0.9 * len(pairs)
            and abs(c_mid - p_mid) > (p_high - p_low),
        })  # fmt: skip
    return rows


def sim_mismatches(pairs):
    """Seeds on which some simulated metric differs between the sides."""
    return [
        pair["seed"] for pair in pairs
        if any(pair["parent"][name] != pair["change"][name] for name in SIM_METRICS)
    ]  # fmt: skip


def format_rows(rows):
    lines = [f"{'metric':<16} {'parent q1 / median / q3':>34}   {'change q1 / median / q3':>34}"
             f"   {'median':>7}  {'by bound':<10}  wins"]  # fmt: skip
    for row in rows:
        parent = " / ".join(f"{value:.5g}" for value in row["parent"])
        change = " / ".join(f"{value:.5g}" for value in row["change"])
        lines.append(
            f"{row['metric']:<16} {parent:>34}   {change:>34}   {row['relative']:+7.1%}"
            f"  {row['status']:<10}  {row['wins']}/{row['pairs']}"
            + (f" ({row['losses']} lost)" if row["losses"] else "")
        )
    return "\n".join(lines)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", default="cpu_ms_per_req",
                        choices=[metric["name"] for metric in manifest["end_to_end"]],
                        help="the end-to-end metric the gain is claimed on")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="fresh seeds, one per pair: 1001-1010 or 7,11,42")
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--also", default=[], type=lambda text: text.split(","),
                        help="other workloads to pair on the same seeds: w1,w2,...")
    parser.add_argument("--out", default=None, help="where the claim JSON goes")
    args = parser.parse_args(argv)
    unknown = set(args.also) - {workload["name"] for workload in manifest["workloads"]}
    if unknown:
        parser.error(f"--also names no workload of BENCHMARK.json: {sorted(unknown)}")

    seconds = manifest["run_seconds"]
    change = change_revision()
    scratch = "/root/scratch" if os.path.isdir("/root/scratch") else tempfile.gettempdir()
    parent, exported = export_parent(args.parent, scratch)
    trees = {"parent": exported, "change": ROOT}
    measured = {}
    try:
        for workload in [args.workload, *args.also]:
            measured[workload] = run_pairs(trees, workload, args.seeds, seconds, run_once)
    finally:
        shutil.rmtree(exported, ignore_errors=True)

    tables = {}
    for workload, pairs in measured.items():
        rows = tables[workload] = summarise(pairs, manifest)
        print(f"{workload}: {len(pairs)} alternating pairs, parent {parent}, change {change}")
        print(format_rows(rows))
        moved = sim_mismatches(pairs)
        print("simulated metrics: "
              + (f"DIFFER on seeds {moved}" if moved else "bit-identical on every seed"))
        failed = {side: sum(pair[side]["failed"] for pair in pairs) for side in trees}
        print(f"failed requests: parent {failed['parent']}, change {failed['change']}")
        if workload != args.workload:
            continue
        claimed = next(row for row in rows if row["metric"] == args.metric)
        met = claimed["gain"] and failed["change"] <= failed["parent"]
        print(f"claim on {args.metric}: {'met' if met else 'NOT met'} "
              f"({claimed['wins']} of {claimed['pairs']} pairs, median {claimed['relative']:+.1%}, "
              f"parent inter-quartile distance "
              f"{claimed['parent'][2] - claimed['parent'][0]:.4g} {claimed['unit']})")

    keep = (args.metric, "failed")
    claim = {
        "metric": args.metric,
        "workload": args.workload,
        "command": COMMAND.format(workload=args.workload, seed="<seed>", seconds=seconds),
        "about": f"{len(args.seeds)} alternating parent/change pairs, one seed per pair; parent "
        f"{parent} exported with git archive, change the working tree at {change}",
        "seeds": args.seeds,
        "rows": tables.pop(args.workload),
        "also": tables,
        "pairs": [
            {"seed": pair["seed"], "order": pair["order"],
             **{side: {name: pair[side][name] for name in keep} for side in trees}}
            for pair in measured[args.workload]
        ],
    }  # fmt: skip
    out = args.out or os.path.join(scratch, f"e2e-pairs-{args.workload}.json")
    with open(out, "w") as handle:
        json.dump(claim, handle, indent=1)
        handle.write("\n")
    print(f"claim written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
