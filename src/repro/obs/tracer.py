"""Structured event tracer emitting Chrome ``trace_event`` JSON.

The tracer records three kinds of events against a monotonic wall-clock:

* **spans** — nestable begin/end pairs (``ph: "B"``/``"E"``) wrapping a
  unit of simulator work (a kernel launch, an SCU operation, one
  algorithm iteration);
* **instants** — point-in-time markers (``ph: "i"``);
* **counters** — named value series (``ph: "C"``) that Perfetto and
  ``chrome://tracing`` render as stacked graphs (e.g. frontier size per
  iteration).

The output of :meth:`Tracer.to_chrome` is the JSON-object flavour of the
Trace Event Format, loadable directly by Perfetto;
:meth:`Tracer.write_jsonl` writes the same events one JSON object per
line for ad-hoc ``jq``-style analysis.

Tracing must never perturb the simulation, so the tracer only *records*:
it takes no locks, mutates no simulator state, and when disabled (the
:data:`NULL_TRACER` singleton) every operation is a constant-time no-op
— hot paths guard any argument construction behind ``tracer.enabled``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

from ..errors import ObservabilityError

#: pid/tid the single-threaded simulator reports in trace events.
TRACE_PID = 1
TRACE_TID = 1


class SpanHandle:
    """Mutable handle to a span; lets the body attach result args.

    Arguments attached via :meth:`annotate` are emitted on the span's
    end event (Perfetto merges begin- and end-event args), so a phase
    can record its *outcome* — simulated time, DRAM bytes — computed
    after the span began.  Annotating a closed span adds to the end
    event it already emitted: a launch whose cost is priced after its
    span closed still lands its outcome there.
    """

    __slots__ = ("name", "category", "start_us", "extra", "end_event")

    def __init__(self, name: str, category: str, start_us: float):
        self.name = name
        self.category = category
        self.start_us = start_us
        self.extra: Dict[str, Any] = {}
        #: the emitted end event, once the span closed
        self.end_event: Dict[str, Any] | None = None

    def annotate(self, **args: Any) -> "SpanHandle":
        self.extra.update(args)
        if self.end_event is not None and self.extra:
            self.end_event["args"] = self.extra
        return self


class Tracer:
    """Collects trace events; one instance per observed run."""

    enabled = True

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._t0 = clock()
        self._stack: List[SpanHandle] = []
        self.events: List[Dict[str, Any]] = []

    # -- time ---------------------------------------------------------------

    def _now_us(self) -> float:
        """Microseconds since tracer creation (Chrome traces use us)."""
        return (self._clock() - self._t0) / 1000.0

    @property
    def depth(self) -> int:
        """Current span nesting depth."""
        return len(self._stack)

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, category: str = "sim", **args: Any) -> SpanHandle:
        """Open a span; prefer the :meth:`span` context manager."""
        ts = self._now_us()
        handle = SpanHandle(name, category, ts)
        self._stack.append(handle)
        event = {
            "name": name,
            "cat": category,
            "ph": "B",
            "ts": ts,
            "pid": TRACE_PID,
            "tid": TRACE_TID,
        }
        if args:
            event["args"] = args
        self.events.append(event)
        return handle

    def end(self) -> None:
        """Close the innermost open span."""
        if not self._stack:
            raise ObservabilityError("Tracer.end() called with no open span")
        handle = self._stack.pop()
        event = {
            "name": handle.name,
            "cat": handle.category,
            "ph": "E",
            "ts": self._now_us(),
            "pid": TRACE_PID,
            "tid": TRACE_TID,
        }
        if handle.extra:
            event["args"] = handle.extra
        handle.end_event = event
        self.events.append(event)

    @contextmanager
    def span(self, name: str, category: str = "sim", **args: Any) -> Iterator[SpanHandle]:
        """Nestable span context: ``with tracer.span("bfs.iteration"): ...``."""
        handle = self.begin(name, category, **args)
        try:
            yield handle
        finally:
            self.end()

    # -- instants and counters ----------------------------------------------

    def instant(self, name: str, category: str = "sim", **args: Any) -> Dict[str, Any]:
        """Record a marker; returns its args, which a caller may still
        fill in (an event with args holds the same dict)."""
        event = {
            "name": name,
            "cat": category,
            "ph": "i",
            "s": "t",  # thread-scoped marker
            "ts": self._now_us(),
            "pid": TRACE_PID,
            "tid": TRACE_TID,
        }
        if args:
            event["args"] = args
        self.events.append(event)
        return args

    def counter(self, name: str, **values: float) -> None:
        """Record one sample of a counter series (``frontier.size`` etc.)."""
        if not values:
            raise ObservabilityError(f"counter {name!r} needs at least one value")
        self.events.append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": self._now_us(),
                "pid": TRACE_PID,
                "tid": TRACE_TID,
                "args": {k: float(v) for k, v in values.items()},
            }
        )

    # -- export -------------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The JSON-object flavour of the Chrome Trace Event Format."""
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro-scu simulator"},
        }

    def write_chrome(self, path: str) -> None:
        """Write a ``trace.json`` loadable by chrome://tracing / Perfetto."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle)

    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per line (for jq / pandas consumption)."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event) + "\n")


class _NullSpan:
    """Shared no-op span: context manager and handle in one object."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **args: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracer: every operation is a constant-time no-op."""

    enabled = False

    def __init__(self):  # no clock reads, no buffers
        self.events = []
        self._stack = []

    def begin(self, name: str, category: str = "sim", **args: Any) -> SpanHandle:
        return _NULL_SPAN  # type: ignore[return-value]

    def end(self) -> None:
        pass

    def span(self, name: str, category: str = "sim", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "sim", **args: Any) -> Dict[str, Any]:
        return args

    def counter(self, name: str, **values: float) -> None:
        pass


#: Process-wide disabled tracer; the default everywhere.
NULL_TRACER = NullTracer()
