"""Process-wide observability state and the instrumentation surface.

Library code reaches the active registry/tracer through this module so a
CLI run (or a test) can swap in a fresh :class:`MetricsRegistry`, a
:class:`NullRegistry`, or an enabled :class:`Tracer` without threading
objects through every constructor::

    from repro import obs

    obs.counter("dns_resolutions_total").inc()
    with obs.span("simulate.hour", hour=h) as sp:
        ...
        sp.add_items(n_transactions)
    obs.event("rng.fork", name="faults", seed=123)

:class:`span` is the one interval primitive: every layer that runs
records one row in the stage metrics and, when tracing is on, one trace
span.  :func:`event` is the one point-in-time record.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import sys
from time import perf_counter
from typing import Optional, Tuple

from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.tracing import Tracer

logger = logging.getLogger("repro")


class NullEmitter:
    """Disabled progress emitter: ``emit`` is a no-op.

    The live-telemetry counterpart of :class:`NullRegistry` -- engine
    code guards the (mildly) expensive per-hour count summation behind
    ``emitter.enabled`` so a non-``--live`` run pays one attribute read
    per hour and nothing else.
    """

    enabled = False

    def emit(self, kind: str, /, **fields) -> None:  # noqa: D102 - no-op
        pass


NULL_EMITTER = NullEmitter()

_registry: MetricsRegistry = MetricsRegistry()
_tracer: Tracer = Tracer()
_emitter = NULL_EMITTER

NULL_REGISTRY = NullRegistry()


def registry() -> MetricsRegistry:
    """The active metrics registry."""
    return _registry


def tracer() -> Tracer:
    """The active tracer."""
    return _tracer


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Install ``new`` as the active registry; returns the previous one."""
    global _registry
    old, _registry = _registry, new
    return old


def set_tracer(new: Tracer) -> Tracer:
    """Install ``new`` as the active tracer; returns the previous one."""
    global _tracer
    old, _tracer = _tracer, new
    return old


def emitter():
    """The active progress emitter (a no-op unless live telemetry is on)."""
    return _emitter


def set_emitter(new):
    """Install ``new`` as the active emitter; returns the previous one."""
    global _emitter
    old, _emitter = _emitter, new
    return old


@contextlib.contextmanager
def use(
    registry_: Optional[MetricsRegistry] = None,
    tracer_: Optional[Tracer] = None,
):
    """Temporarily install a registry and/or tracer (test support)."""
    old_registry = set_registry(registry_) if registry_ is not None else None
    old_tracer = set_tracer(tracer_) if tracer_ is not None else None
    try:
        yield (registry_ or _registry, tracer_ or _tracer)
    finally:
        if old_registry is not None:
            set_registry(old_registry)
        if old_tracer is not None:
            set_tracer(old_tracer)


# -- convenience pass-throughs (the instrumentation surface) ------------------


def counter(name: str, **labels: str):
    """Counter from the active registry."""
    return _registry.counter(name, **labels)


def gauge(name: str, **labels: str):
    """Gauge from the active registry."""
    return _registry.gauge(name, **labels)


def histogram(name: str, buckets: Optional[Tuple[float, ...]] = None, **labels: str):
    """Histogram from the active registry."""
    return _registry.histogram(name, buckets, **labels)


class span:
    """Time one layer into the stage metrics and the trace.

    On exit, also when the body raises, the active registry gains one
    ``stage_calls_total{stage=name}`` and the elapsed wall seconds in
    ``stage_seconds_total``, plus ``stage_items_total`` when the body
    counted items.  When the active tracer is enabled the interval is
    also a trace span (carrying ``items``).  The yielded handle offers
    :meth:`set`, :meth:`event` and :meth:`add_items`.

    As a decorator, ``@obs.span("report.table3")`` opens a fresh span
    per call, so recursion and threads each get their own state, and
    the registry and tracer are looked up at call time.
    """

    __slots__ = ("name", "attrs", "_items", "_started", "_trace_cm", "_span")

    def __init__(self, name: str, **attrs) -> None:
        self.name = name
        self.attrs = attrs
        self._items = 0

    def __enter__(self) -> "span":
        self._trace_cm = _tracer.span(self.name, **self.attrs)
        self._span = self._trace_cm.__enter__()
        self._started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter() - self._started
        name = self.name
        _registry.counter("stage_calls_total", stage=name).inc()
        _registry.counter("stage_seconds_total", stage=name).inc(elapsed)
        if self._items:
            _registry.counter("stage_items_total", stage=name).inc(self._items)
            self._span.set(items=self._items)
        return self._trace_cm.__exit__(exc_type, exc, tb)

    def __call__(self, func):
        name, attrs = self.name, self.attrs

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with span(name, **attrs):
                return func(*args, **kwargs)

        return wrapper

    def add_items(self, count: int) -> None:
        """Count ``count`` work units against this layer."""
        self._items += int(count)

    def set(self, **attrs) -> "span":
        """Attach attributes to the trace span (no-op when not tracing)."""
        self._span.set(**attrs)
        return self

    def event(self, name: str, /, **fields) -> None:
        """Record an event inside the trace span (no-op when not tracing)."""
        self._span.event(name, **fields)


def current_span():
    """The active tracer's innermost span (a null span when idle)."""
    return _tracer.current()


def event(name: str, /, **fields) -> None:
    """Record an event on the active tracer's event log.

    Also logged at DEBUG level on the ``repro`` logger so ``-v -v`` runs
    show the event stream even without a trace file.
    """
    _tracer.event(name, **fields)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("event %s %s", name, fields)


def inherited_emitter(worker: int):
    """An emitter bound to the telemetry queue inherited over fork.

    Facade for :func:`repro.obs.live.bus.inherited_emitter` so engine
    code (the parallel worker bootstrap) never imports ``obs.live``
    internals -- the layering contract reserves those for the obs layer
    itself.  Only a loaded bus can have parked a queue, so when the
    parent never imported :mod:`repro.obs.live.bus` this returns
    :data:`NULL_EMITTER` without importing anything: a forked worker
    loads no module the parent did not.
    """
    bus = sys.modules.get("repro.obs.live.bus")
    if bus is None:
        return NULL_EMITTER
    return bus.inherited_emitter(worker)
