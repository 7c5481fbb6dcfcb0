"""Host self time by layer, measured from outside the product.

A ``sys.setprofile`` hook keeps a *layer stack* that mirrors the Python
call stack: a call into a function whose file sits under
``src/repro/<pkg>/`` enters that package's layer (``core`` is split by
module); a call into anything else — stdlib, C functions — stays in the
caller's layer, so ElementTree time is charged to ``soap`` and heap
operations to ``simnet``.  Generator resumes and yields arrive as
ordinary call/return events, so a process suspended in the middle of a
``yield from`` chain re-enters each layer of the chain when it resumes;
``generator.throw()`` (how the simulator delivers timeouts and faults)
enters only the innermost generator, again as a call event.

The stack is keyed on frames: a return pops only the entry its own call
pushed.  A return from a frame the hook never saw called would mean the
interpreter resumed a frame without a call event; it is ignored, counted
in ``unpaired_returns``, and a traced run with any is reported incorrect.

The clock is read only when the layer changes.  ``self_ns[layer]`` is
therefore the time control spent *in* that layer, ``entries[layer]`` the
number of times control crossed into it from another layer (a count that
repeats exactly for a fixed seed).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["LAYERS", "HARNESS", "LayerTracer", "layer_of_path", "product_tracer"]

#: No new request is sampled once this many spans are held: an open-loop
#: request sampled during an outage stays in flight for seconds while
#: hundreds of others run, and its window records them all.
MAX_SPANS = 20_000

#: The product's layers, named after its modules.
LAYERS = (
    "soap",
    "wsdl",
    "ontology",
    "core.matching",
    "p2p",
    "election",
    "core.proxy",
    "core.bpeer",
    "core.journal",
    "core.dispatch",
    "core.sharding",
    "core.rescache",
    "core.breaker",
    "backend",
    "obs",
    "simnet",
    "workflow",
)
#: Everything that is not one of :data:`LAYERS`: the benchmark itself and
#: product modules off the request path (``core.system``, ``check`` audits).
HARNESS = "harness"

_PACKAGE_LAYERS = frozenset(
    ("soap", "wsdl", "ontology", "p2p", "election", "backend", "obs", "simnet",
     "workflow")
)
#: ``core`` modules that are a layer of their own; the proxy's helpers
#: (retry policy, typed results, the Web-service front, QoS selection)
#: are charged to ``core.proxy``.
_CORE_LAYERS = {
    "matching": "core.matching",
    "proxy": "core.proxy",
    "retry": "core.proxy",
    "result": "core.proxy",
    "errors": "core.proxy",
    "sws": "core.proxy",
    "webservice": "core.proxy",
    "bpeer": "core.bpeer",
    "bpeer_group": "core.bpeer",
    "journal": "core.journal",
    "dispatch": "core.dispatch",
    "sharding": "core.sharding",
    "rescache": "core.rescache",
    "breaker": "core.breaker",
}


def layer_of_path(filename: str, package_root: str) -> Optional[str]:
    """The layer owning ``filename``, or ``None`` to inherit the caller's.

    ``package_root`` is the directory of the ``repro`` package; files
    outside it (stdlib) inherit.
    """
    if not filename.startswith(package_root + os.sep):
        return None
    parts = filename[len(package_root) + 1:].split(os.sep)
    if parts[0] == "core" and len(parts) > 1:
        return _CORE_LAYERS.get(parts[1].removesuffix(".py"), HARNESS)
    if parts[0] == "qos":
        return "core.proxy"
    return parts[0] if parts[0] in _PACKAGE_LAYERS else HARNESS


class LayerTracer:
    """Layer stack + self-time accounting + sampled spans."""

    def __init__(self, classify: Callable[[str], Optional[str]], layers=LAYERS):
        """``classify`` maps a code object's filename to a layer name, or
        ``None`` for code that is charged to whichever layer called it."""
        self.names = tuple(layers) + (HARNESS,)
        self._index = {name: index for index, name in enumerate(self.names)}
        self._classify_path = classify
        self._code_layer: Dict[Any, int] = {}
        self.self_ns = [0] * len(self.names)
        self.entries = [0] * len(self.names)
        #: Closed spans of sampled requests, in closing order.
        self.spans: List[Dict[str, Any]] = []
        #: ``[request, env]`` while a sampled request is in flight.
        self._sampling: Optional[List[Any]] = None
        self._request_meta: List[Dict[str, Any]] = []
        self._running = False
        #: Returns from frames the hook saw no call for (0 = every layer
        #: entry was seen, so the stack mirrored the interpreter's).
        self.unpaired_returns = 0

    # -- start / stop ------------------------------------------------------------------

    def start(self) -> None:
        """Install the hook; the caller's frame is the harness base.

        May be called again after :meth:`stop`: totals and spans carry on.
        """
        code_layer = self._code_layer
        index = self._index
        harness = index[HARNESS]
        classify_path = self._classify_path
        self_ns = self.self_ns
        entries = self.entries
        spans = self.spans
        clock = time.perf_counter_ns
        # Parallel stacks: the frame each call event pushed, and the layer
        # control was in before it.  This frame returns to the harness.
        frames: List[Any] = [sys._getframe()]
        stack: List[int] = [harness]
        open_spans: List[Dict[str, Any]] = []
        # state[0] = current layer, state[1] = time of the last change.
        state = [harness, clock()]
        tracer = self

        def classify(code) -> int:
            name = classify_path(code.co_filename)
            layer = code_layer[code] = -1 if name is None else index[name]
            return layer

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                layer = code_layer.get(code)
                if layer is None:
                    layer = classify(code)
                current = state[0]
                frames.append(frame)
                stack.append(current)
                if layer >= 0 and layer != current:
                    now = clock()
                    self_ns[current] += now - state[1]
                    state[0] = layer
                    state[1] = now
                    entries[layer] += 1
                    sampling = tracer._sampling
                    if sampling is not None:
                        open_spans.append(
                            {
                                "layer": layer,
                                "function": code.co_qualname,
                                "start_ns": now,
                                "depth": len(stack),
                                "parent": open_spans[-1]["id"] if open_spans else None,
                                "id": len(spans) + len(open_spans),
                                "request": sampling[0],
                                "event": sampling[1].events_processed,
                            }
                        )
            elif event == "return":
                if not frames or frames[-1] is not frame:
                    tracer.unpaired_returns += 1
                else:
                    frames.pop()
                    previous = stack.pop()
                    current = state[0]
                    if previous != current:
                        now = clock()
                        self_ns[current] += now - state[1]
                        state[0] = previous
                        state[1] = now
                        if open_spans and open_spans[-1]["depth"] == len(stack) + 1:
                            span = open_spans.pop()
                            span["end_ns"] = now
                            spans.append(span)

        self._state = state
        self._running = True
        sys.setprofile(profile)

    def stop(self) -> None:
        sys.setprofile(None)
        if self._running:
            now = time.perf_counter_ns()
            self.self_ns[self._state[0]] += now - self._state[1]
            self._running = False

    # -- sampled requests ----------------------------------------------------------------

    def begin_request(self, request: int, env) -> None:
        """Keep spans from now until :meth:`end_request` (one at a time)."""
        if self._sampling is None and len(self.spans) < MAX_SPANS:
            self._sampling = [request, env]

    def end_request(self, request: int, system, started: float) -> None:
        if self._sampling is None or self._sampling[0] != request:
            return
        self._sampling = None
        # The product's own trace of this request, when it kept one: the
        # newest RequestTrace that lies inside the request's interval.
        trace_id = None
        now = system.env.now
        for trace in reversed(system.obs.recent_traces(16)):
            root = trace.root
            if root.start >= started and root.end is not None and root.end <= now:
                trace_id = trace.request_id
                break
        self._request_meta.append(
            {
                "request": request,
                "trace_id": trace_id,
                "sim_start": started,
                "sim_end": now,
            }
        )

    # -- results ------------------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"self_ns": self.self_ns[i], "entries": self.entries[i]}
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path: str) -> None:
        """Write the sampled spans (ids are local to this file)."""
        names = self.names
        payload = {
            "clock": "time.perf_counter_ns",
            "requests": self._request_meta,
            "spans": [
                {**span, "layer": names[span["layer"]]} for span in self.spans
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def product_tracer() -> LayerTracer:
    """A tracer over the ``repro`` package as imported, with the
    benchmark's own files as the harness."""
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    harness_root = os.path.dirname(os.path.abspath(__file__))

    def classify(filename: str) -> Optional[str]:
        if filename.startswith(harness_root + os.sep):
            return HARNESS
        return layer_of_path(filename, package_root)

    return LayerTracer(classify)
