"""Span-based tracing with a context-var current span.

A :class:`Tracer` produces a tree of timed :class:`Span` objects::

    with tracer.span("simulate.hour", hour=h):
        ...

Library code opens spans through ``obs.span``
(:class:`repro.obs.runtime.span`), which also counts the interval in
the stage metrics, so one primitive feeds both records.

The current span rides a :mod:`contextvars` variable, so nested library
code (the DNS resolver, the TCP state machine) can annotate whatever span
is active without plumbing arguments::

    tracer.current().event("tcp.failure", outcome="no_connection")

When the tracer is disabled (the default), ``span()`` yields a shared
no-op span and records nothing -- instrumentation stays in place at
near-zero cost.  When enabled, finished spans are kept in memory and/or
streamed to a JSONL sink (one JSON object per line, ``type`` being
``span`` or ``event``), which ``repro obs`` can replay.  Live progress
events (:mod:`repro.obs.live`) use the same :func:`event_record` shape,
so a run directory's ``trace.jsonl`` holds both.
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


def event_record(
    name: str,
    time: float,
    fields: Dict[str, Any],
    span: Optional[int] = None,
) -> Dict[str, Any]:
    """The one JSONL shape of a point-in-time event.

    Trace events (:meth:`Tracer.event`) and live progress events
    (:class:`repro.obs.live.bus.QueueEmitter`) share it, so a run's
    spans and its progress stream replay from one file.
    """
    return {
        "type": "event", "name": name, "time": time, "span": span,
        "fields": fields,
    }


@dataclass
class Span:
    """One timed operation with attributes and point-in-time events."""

    name: str
    span_id: int
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    start_wall: float = 0.0
    _start_perf: float = 0.0
    duration: float = 0.0
    events: List[Dict[str, Any]] = field(default_factory=list)

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes on the span."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, /, **fields: Any) -> None:
        """Record a point-in-time event inside this span."""
        self.events.append({"name": name, "fields": fields})

    @property
    def is_null(self) -> bool:
        """False for real spans."""
        return False

    def to_record(self) -> Dict[str, Any]:
        """The JSONL representation of a finished span."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start_wall,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    name = ""
    span_id = -1
    parent_id = None
    attrs: Dict[str, Any] = {}
    duration = 0.0
    events: List[Dict[str, Any]] = []

    def set(self, **attrs: Any) -> "_NullSpan":  # noqa: D102 - no-op
        return self

    def event(self, name: str, /, **fields: Any) -> None:  # noqa: D102 - no-op
        pass

    @property
    def is_null(self) -> bool:
        """True: this span records nothing."""
        return True


NULL_SPAN = _NullSpan()

_null_ctx = contextlib.nullcontext(NULL_SPAN)


class Tracer:
    """Builds the span tree and streams records to an optional sink."""

    def __init__(self) -> None:
        self.enabled = False
        self.keep_in_memory = True
        self.spans: List[Span] = []  # finished spans, completion order
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("repro_obs_span", default=None)
        )
        self._sink: Optional[io.TextIOBase] = None
        self._owns_sink = False
        self._lock = threading.Lock()
        self._next_id = 1

    # -- configuration -------------------------------------------------------

    def enable(self, sink_path: Optional[str] = None, keep_in_memory: bool = True):
        """Turn tracing on, optionally streaming JSONL to ``sink_path``."""
        self.enabled = True
        self.keep_in_memory = keep_in_memory
        if sink_path is not None:
            self._sink = open(sink_path, "w", encoding="utf-8")
            self._owns_sink = True
        return self

    def close(self) -> None:
        """Flush and close the sink if this tracer opened it."""
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
            self._sink = None
            self._owns_sink = False

    def reset(self) -> None:
        """Drop recorded spans and restart span ids (test support)."""
        with self._lock:
            self.spans = []
            self._next_id = 1

    # -- span API ------------------------------------------------------------

    def current(self):
        """The innermost active span, or the shared null span."""
        span = self._current.get()
        return span if span is not None else NULL_SPAN

    def span(self, name: str, **attrs: Any):
        """Context manager: open a child span of the current span."""
        if not self.enabled:
            return _null_ctx
        return self._span_ctx(name, attrs)

    def _new_span(self, name: str, attrs: Dict[str, Any]) -> Span:
        """A span starting now, as a child of the current span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = self._current.get()
        return Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
            start_wall=time.time(),
            _start_perf=time.perf_counter(),
        )

    @contextlib.contextmanager
    def _span_ctx(self, name: str, attrs: Dict[str, Any]):
        span = self._new_span(name, dict(attrs))
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - span._start_perf
            self._current.reset(token)
            self._record(span)

    def record_finished(
        self, name: str, started: float, duration: float, **attrs: Any
    ) -> None:
        """Record a span that ran elsewhere as a child of the current span.

        ``started`` is the ``perf_counter()`` reading when it began --
        comparable across a ``fork``, as the clock is system-wide -- and
        ``duration`` its wall seconds.  Only the trace sees it: the
        parallel driver records its workers' shards this way, after
        their stage metrics were already counted in the workers.
        """
        if not self.enabled:
            return
        span = self._new_span(name, attrs)
        span.start_wall -= span._start_perf - started
        span.duration = duration
        self._record(span)

    def event(self, name: str, /, **fields: Any) -> None:
        """Record a standalone event (attached to the current span if any).

        Events always go to the sink; they additionally land on the
        current span's ``events`` list when one is active.
        """
        if not self.enabled:
            return
        span = self._current.get()
        if span is not None:
            span.event(name, **fields)
        self._write(
            event_record(
                name, time.time(), fields,
                span=span.span_id if span is not None else None,
            )
        )

    # -- recording -----------------------------------------------------------

    def _record(self, span: Span) -> None:
        if self.keep_in_memory:
            with self._lock:
                self.spans.append(span)
        record = span.to_record()
        if span.events:
            record["events"] = span.events
        self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:
        if self._sink is None:
            return
        with self._lock:
            self._sink.write(json.dumps(record, default=str) + "\n")

    # -- introspection -------------------------------------------------------

    def roots(self) -> List[Span]:
        """Finished spans with no parent."""
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        """Finished direct children of ``span``."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> List[Span]:
        """All finished spans with the given name."""
        return [s for s in self.spans if s.name == name]
