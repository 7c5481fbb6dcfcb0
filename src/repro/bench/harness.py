"""The experiment runner: parameter sweeps over fresh systems.

Each sweep point builds a brand-new :class:`WhisperSystem` (fresh clock,
fresh RNG streams, fresh hosts) via a caller-supplied factory, runs a
measurement callable against it, and collects one row.  Rows print through
:mod:`repro.bench.report` in the same shape as the paper's tables/figures.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import ScenarioConfig
from ..core.system import WhisperSystem

__all__ = [
    "SweepPoint",
    "Sweep",
    "run_sweep",
    "fig4_counts",
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

    def __getitem__(self, key: str) -> Any:
        return self.measurements[key]

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

    def to_csv(self) -> str:
        """The sweep as CSV (parameter column first), for offline plotting."""

        def cell(value: Any) -> str:
            text = str(value)
            if any(ch in text for ch in ",\"\n"):
                text = '"' + text.replace('"', '""') + '"'
            return text

        columns = self.columns()
        lines = [",".join(cell(c) for c in [self.parameter_name] + columns)]
        for point in self.points:
            lines.append(",".join(cell(v) for v in point.row(columns)))
        return "\n".join(lines) + "\n"

    def to_json(self, indent: Optional[int] = None) -> str:
        """The sweep as JSON, for machine-readable benchmark exports.

        Non-JSON-native measurement values (e.g. nested phase summaries
        are fine; arbitrary objects fall back to ``str``) never make the
        export raise.
        """
        payload = {
            "name": self.name,
            "parameter": self.parameter_name,
            "points": [
                {"parameter": point.parameter, **point.measurements}
                for point in self.points
            ],
        }
        return json.dumps(payload, indent=indent, default=str)


#: Measure signature: ``measure(parameter) -> {column: value}``.
Measure = Callable[[Any], Dict[str, Any]]


def run_sweep(
    name: str,
    parameter_name: str,
    values: Iterable[Any],
    measure: Measure,
    repeats: int = 1,
    reduce: Optional[Callable[[List[Dict[str, Any]]], Dict[str, Any]]] = None,
) -> Sweep:
    """Run ``measure`` at every swept value; optionally repeat and reduce.

    With ``repeats > 1``, ``measure`` is called that many times per value
    (callers vary seeds inside), and ``reduce`` combines the dicts (default:
    arithmetic mean of numeric columns).
    """
    sweep = Sweep(name=name, parameter_name=parameter_name)
    for value in values:
        runs = [measure(value) for _ in range(repeats)]
        if len(runs) == 1:
            combined = runs[0]
        else:
            combined = (reduce or _mean_reduce)(runs)
        sweep.points.append(SweepPoint(parameter=value, measurements=combined))
    return sweep


def _mean_reduce(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    combined: Dict[str, Any] = {}
    for key in runs[0]:
        values = [run[key] for run in runs if key in run]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            combined[key] = sum(values) / len(values)
        else:
            combined[key] = values[0]
    return combined


def fig4_counts(
    config: ScenarioConfig, settle: float = 10.0
) -> Tuple[int, int, Dict[str, int]]:
    """Message counts of the Figure-4 probe: deploy, settle, one invocation.

    What the byte-identity guards compare: two configs that must describe
    the same deployment have to return equal ``(sent, delivered,
    sent-by-category)`` triples.
    """
    system = WhisperSystem(config)
    service = system.deploy_student_service()
    system.settle(settle)
    node, _soap = system.add_client()
    system.run_process(
        service.invoke("StudentInformation", {"ID": "S00001"}), node
    )
    return (
        system.trace.sent_total,
        system.trace.delivered_total,
        dict(system.trace.sent_by_category),
    )


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
