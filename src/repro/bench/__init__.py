"""The benchmark harness: workloads, sweeps, statistics, reports.

Reproduces the paper's §5 methodology on the simulated testbed: message
counts per configuration (Figure 4), RTT monitoring (the §5 latency
results), and throughput/latency under load, plus the ablation sweeps
listed in DESIGN.md.
"""

from .harness import Sweep, SweepPoint, run_sweep
from .report import ascii_plot, format_phase_breakdown, format_sweep, format_table
from .stats import LinearFit, Summary, linear_fit, percentile, summarize
from .workload import (
    ClosedLoopWorkload,
    PoissonWorkload,
    ProbeWorkload,
    WorkloadResult,
    student_arguments,
)

__all__ = [
    "ClosedLoopWorkload",
    "LinearFit",
    "PoissonWorkload",
    "ProbeWorkload",
    "Summary",
    "Sweep",
    "SweepPoint",
    "WorkloadResult",
    "ascii_plot",
    "format_phase_breakdown",
    "format_sweep",
    "format_table",
    "linear_fit",
    "percentile",
    "run_sweep",
    "student_arguments",
    "summarize",
]
