"""The experiment runner: parameter sweeps over fresh systems.

Each sweep point builds a brand-new :class:`WhisperSystem` (fresh clock,
fresh RNG streams, fresh hosts) via a caller-supplied factory, runs a
measurement callable against it, and collects one row.  Rows print through
:mod:`repro.bench.report` in the same shape as the paper's tables/figures.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Sequence

__all__ = [
    "SweepPoint",
    "Sweep",
    "run_sweep",
    "Progress",
    "quiet",
    "bench_record",
    "format_assertions",
    "check_record",
]


@dataclass
class SweepPoint:
    """One row of an experiment: the swept value plus measured columns."""

    parameter: Any
    measurements: Dict[str, Any] = field(default_factory=dict)

    def row(self, columns: Sequence[str]) -> List[Any]:
        return [self.parameter] + [self.measurements.get(c) for c in columns]


@dataclass
class Sweep:
    """A completed sweep: named parameter, measured columns, one row each."""

    name: str
    parameter_name: str
    points: List[SweepPoint] = field(default_factory=list)

    def series(self, column: str) -> List[Any]:
        return [point.measurements.get(column) for point in self.points]

    def parameters(self) -> List[Any]:
        return [point.parameter for point in self.points]

    def columns(self) -> List[str]:
        seen: List[str] = []
        for point in self.points:
            for key in point.measurements:
                if key not in seen:
                    seen.append(key)
        return seen



#: Measure signature: ``measure(parameter) -> {column: value}``.
Measure = Callable[[Any], Dict[str, Any]]


def run_sweep(
    name: str, parameter_name: str, values: Iterable[Any], measure: Measure
) -> Sweep:
    """Run ``measure`` once at every swept value."""
    sweep = Sweep(name=name, parameter_name=parameter_name)
    for value in values:
        sweep.points.append(SweepPoint(parameter=value, measurements=measure(value)))
    return sweep


#: How a gated bench reports the phase it is starting: the CLI passes
#: ``print``, everything else the silent default.
Progress = Callable[[str], None]


def quiet(_text: str) -> None:
    """The default :data:`Progress`: say nothing."""


def bench_record(
    name: str, body: Dict[str, Any], assertions: Dict[str, bool]
) -> Dict[str, Any]:
    """The record every gated bench returns: header, rows, gates, verdict.

    ``body`` carries the bench's own keys (seed, sizes, row sets); the
    gates the bench asserts go in as named booleans and come back as
    ``assertions`` plus their conjunction ``ok``.
    """
    return {
        "schema": f"repro-{name}/1",
        "generated_by": f"python -m repro {name}",
        "python": platform.python_version(),
        **body,
        "assertions": assertions,
        "ok": all(assertions.values()),
    }


def format_assertions(record: Dict[str, Any]) -> str:
    """The ``assertions:`` footer line of a formatted record."""
    return "assertions: " + ", ".join(
        f"{name}={'ok' if held else 'FAIL'}"
        for name, held in record["assertions"].items()
    )


def check_record(record: Dict[str, Any], label: str) -> List[str]:
    """Human-readable failures for a record's assertions (empty = pass)."""
    return [
        f"{label} assertion failed: {name}"
        for name, held in record.get("assertions", {}).items()
        if not held
    ]
