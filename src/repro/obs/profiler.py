"""Lightweight stage profiler.

Records per-stage wall time and call/item counts into the active metrics
registry under three canonical metrics::

    stage_calls_total{stage=...}     how many times the stage ran
    stage_seconds_total{stage=...}   cumulative wall-clock seconds
    stage_items_total{stage=...}     work units processed (optional)

so every exporter (Prometheus text, the ``obs summary`` table, the bench
baseline) sees one uniform per-stage breakdown.  Use either the context
manager or the decorator::

    with stage("simulate.hours") as st:
        ...
        st.add_items(n_transactions)

    @timed("classify.category_summary")
    def category_summary(dataset): ...
"""

from __future__ import annotations

import functools
import time
from typing import Optional

from repro.obs import runtime


class StageTimer:
    """Handle yielded by :func:`stage`: lets the body report item counts."""

    __slots__ = ("name", "_items", "started")

    def __init__(self, name: str) -> None:
        self.name = name
        self._items = 0
        self.started = time.perf_counter()

    def add_items(self, count: int) -> None:
        """Count ``count`` work units against this stage."""
        self._items += int(count)

    @property
    def elapsed(self) -> float:
        """Seconds since the stage opened."""
        return time.perf_counter() - self.started


class stage:
    """Context manager timing one stage run into the registry.

    Implemented as a class (not ``@contextmanager``) to keep the per-call
    overhead at two ``perf_counter`` calls plus three counter bumps.
    """

    __slots__ = ("name", "_timer", "_span_cm", "_span")

    def __init__(self, name: str, **attrs) -> None:
        self.name = name
        self._timer: Optional[StageTimer] = None
        self._span_cm = runtime.span(name, **attrs)
        self._span = None

    def __enter__(self) -> StageTimer:
        self._span = self._span_cm.__enter__()
        self._timer = StageTimer(self.name)
        return self._timer

    def __exit__(self, exc_type, exc, tb) -> bool:
        timer = self._timer
        elapsed = timer.elapsed
        reg = runtime.registry()
        reg.counter("stage_calls_total", stage=self.name).inc()
        reg.counter("stage_seconds_total", stage=self.name).inc(elapsed)
        if timer._items:
            reg.counter("stage_items_total", stage=self.name).inc(timer._items)
        if timer._items and not self._span.is_null:
            self._span.set(items=timer._items)
        self._span_cm.__exit__(exc_type, exc, tb)
        return False


def timed(name: str):
    """Decorator: run the function as a profiled stage named ``name``."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with stage(name):
                return func(*args, **kwargs)

        wrapper.__wrapped_stage__ = name
        return wrapper

    return decorate
