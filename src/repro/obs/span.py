"""Request-scoped tracing: spans on the simulated clock.

The paper's §5 evaluation attributes multi-second worst-case RTTs to
*specific phases* of a request — remote discovery, coordinator re-bind
after a crash — not to the request as a whole.  A :class:`Span` is one
timed phase (``discover``, ``bind``, ``invoke``, ``recover``, ``elect``,
``execute``); a :class:`RequestTrace` is the tree of spans for one
proxy invocation, rooted at a synthetic ``request`` span.

Everything is stamped with the *simulation* clock (callers pass
``env.now``), so traces are deterministic and comparable across runs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

__all__ = ["PHASES", "Span", "RequestTrace"]

#: The canonical phase names of one Whisper request's lifecycle.
PHASES = ("discover", "bind", "invoke", "recover", "elect", "execute")


class Span:
    """One timed phase of a request (or of group maintenance).

    A span starts when created and ends when :meth:`finish` is called;
    both instants are simulated time.  Spans nest: :meth:`child` opens a
    sub-span, so e.g. a ``recover`` span can contain the ``bind`` and
    ``invoke`` retries it covers.  References run downwards only (children,
    no parent), so a trace evicted from the ring dies by reference count.
    """

    __slots__ = ("name", "start", "end", "tags", "children")

    def __init__(
        self,
        name: str,
        start: float,
        tags: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.children: List["Span"] = []

    # -- lifecycle ------------------------------------------------------------

    def child(self, name: str, now: float, **tags: Any) -> "Span":
        """Open a nested span starting at ``now``."""
        span = Span(name, now)
        span.tags = tags  # a fresh dict per call: no copy needed
        self.children.append(span)
        return span

    def finish(self, now: float, **tags: Any) -> "Span":
        """Close the span at ``now`` (idempotent); merge ``tags`` in."""
        if self.end is None:
            self.end = now
        if tags:
            self.tags.update(tags)
        return self

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        """Elapsed simulated seconds, or ``None`` while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    # -- traversal / export ------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.tags:
            data["tags"] = dict(self.tags)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    def format(self, indent: int = 0) -> str:
        """A one-span-per-line tree rendering (durations in ms)."""
        if self.duration is None:
            timing = f"@{self.start:.6f}s (open)"
        else:
            timing = f"@{self.start:.6f}s {self.duration * 1000:.3f}ms"
        tags = ""
        if self.tags:
            tags = " " + " ".join(f"{k}={v}" for k, v in sorted(self.tags.items()))
        lines = [f"{'  ' * indent}{self.name} {timing}{tags}"]
        lines.extend(child.format(indent + 1) for child in self.children)
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = f"{self.duration * 1000:.3f}ms" if self.finished else "open"
        return f"<Span {self.name} {state}>"


def _close_open(spans: List[Span], now: float) -> None:
    """End every open span at ``now``, in :meth:`Span.walk` order, descending
    only into spans with children (as :func:`_sum_phases`; DESIGN.md §6.18)."""
    for span in spans:
        if span.end is None:
            span.end = now
        if span.children:
            _close_open(span.children, now)


def _sum_phases(spans: List[Span], totals: Dict[str, float]) -> None:
    for span in spans:
        if span.end is not None:
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start)
        if span.children:
            _sum_phases(span.children, totals)


class RequestTrace:
    """The span tree of one proxy invocation.

    The root span is named ``request`` and tagged with the operation; the
    proxy opens phase spans under it via :meth:`begin`.  ``recover`` spans
    may *overlap* sibling ``bind``/``invoke`` spans: recovery is defined as
    the interval from the first failure signal to request completion
    (matching ``ProxyStats.failover_durations``), during which re-bind and
    retry phases keep their own spans.
    """

    __slots__ = ("operation", "request_id", "root", "status")

    def __init__(self, operation: str, request_id: int, now: float):
        self.operation = operation
        self.request_id = request_id
        self.root = Span(
            "request", now, tags={"operation": operation, "request_id": request_id}
        )
        self.status: Optional[str] = None

    # -- recording -----------------------------------------------------------

    def begin(self, phase: str, now: float, **tags: Any) -> Span:
        """Open a phase span under the root (a nested one is
        :meth:`Span.child` of its parent)."""
        return self.root.child(phase, now, **tags)

    def finish(self, now: float, status: str = "ok") -> None:
        """Close the trace: force-close any open span, stamp the outcome."""
        self.root.finish(now)
        _close_open(self.root.children, now)
        self.status = status
        self.root.tags["status"] = status

    @property
    def duration(self) -> Optional[float]:
        return self.root.duration

    # -- aggregation / export -----------------------------------------------------

    def spans(self) -> List[Span]:
        """Every span below the root, in depth-first order."""
        return [span for span in self.root.walk() if span is not self.root]

    def phase_durations(self) -> Dict[str, float]:
        """Total finished-span seconds per phase name (root excluded)."""
        totals: Dict[str, float] = {}
        _sum_phases(self.root.children, totals)
        return totals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "operation": self.operation,
            "request_id": self.request_id,
            "status": self.status,
            "root": self.root.to_dict(),
        }

    def format(self) -> str:
        return self.root.format()

    def __repr__(self) -> str:
        return (
            f"<RequestTrace {self.operation}#{self.request_id} "
            f"{self.status or 'in-flight'}>"
        )
