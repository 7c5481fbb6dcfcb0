#!/usr/bin/env python3
"""Compare two suite records: ``python3 bench_e2e/compare.py A.json B.json``.

A is the parent, B the change; both are files written by
``run.py --seed N [--out FILE]``.  One row per (workload, end-to-end
metric), judged by the bound in ``metrics.py``:

``ok``          B's median is no worse than A's by more than the bound.
``regressed``   it is worse by more than the bound.
``unresolved``  the run-to-run spread on either side is wider than the
                bound and the two sides' runs interleave, so the
                medians cannot be told apart either way.

A workload that only one of the two records holds is a ``regressed``
row of its own.  Exits 1 on any ``regressed`` row, and on any rise in
``run.fail_share``.
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END

__all__ = ["compare", "judge"]


def judge(parent, change, better: str, bound: float):
    """``(status, worsening)`` for one metric's two sample lists.

    ``worsening`` is the share of the parent's median by which the
    change's median is worse (negative = better).
    """
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = parent["median"], change["median"]
    worsening = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    a = [sign * value for value in parent["samples"]]
    b = [sign * value for value in change["samples"]]
    spread = max(
        (max(side["samples"]) - min(side["samples"])) / abs(side["median"])
        if side["median"] else 0.0
        for side in (parent, change)
    )
    separated = max(b) < min(a) or min(b) > max(a)
    if spread > bound and not separated:
        return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def compare(record_a, record_b):
    """Rows ``(workload, metric, a, b, worsening, bound, status)``."""
    rows = []
    nan = float("nan")
    for workload in sorted(set(record_a["workloads"]) ^ set(record_b["workloads"])):
        rows.append((workload, "(in one record only)", nan, nan, nan, 0.0, "regressed"))
    for workload, entry_a in record_a["workloads"].items():
        entry_b = record_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, _, better, bound, _, _ in END_TO_END:
            stats_a = entry_a["end_to_end"][metric]
            stats_b = entry_b["end_to_end"][metric]
            status, worsening = judge(stats_a, stats_b, better, bound)
            rows.append((workload, metric, stats_a["median"], stats_b["median"],
                         worsening, bound, status))
        fail_a = entry_a["per_layer_untraced"]["run.fail_share"]
        fail_b = entry_b["per_layer_untraced"]["run.fail_share"]
        rows.append((workload, "run.fail_share", fail_a, fail_b, fail_b - fail_a,
                     0.0, "regressed" if fail_b > fail_a else "ok"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows = compare(*records)
    print(f"{'workload':<14} {'metric':<20} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  status")
    for workload, metric, a, b, worsening, bound, status in rows:
        print(f"{workload:<14} {metric:<20} {a:>12.4f} {b:>12.4f} "
              f"{worsening:>+9.2%} {bound:>6.1%}  {status}")
    regressed = [row for row in rows if row[-1] == "regressed"]
    unresolved = [row for row in rows if row[-1] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
