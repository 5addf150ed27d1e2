"""repro.obs -- metrics and tracing for the whole pipeline.

The measurement substrate for the reproduction itself: the paper is a
measurement study, and this package is how the simulator and analyses
measure *themselves*.  Two pieces:

* **Metrics** (:mod:`repro.obs.metrics`): a dependency-free, thread-safe
  :class:`MetricsRegistry` of counters, gauges, and fixed-bucket
  histograms, exported as Prometheus text or a human summary table.
* **Tracing** (:mod:`repro.obs.tracing`): a tree of timed spans; a
  context-var current span lets nested library code (DNS resolver, TCP
  connection, wget) annotate without plumbing; spans/events stream to a
  JSONL file that ``repro obs`` replays.

One primitive feeds both: ``with obs.span("simulate.hour", hour=h):`` (or
``@obs.span("report.table3")``) counts the interval in the uniform
``stage_{calls,seconds,items}_total{stage=...}`` metrics and, when
tracing is on, records it as a span.  ``obs.event`` is the one
point-in-time record.

Everything is off-by-default-cheap: the default tracer is disabled (spans
are shared no-ops) and a :class:`NullRegistry` can be installed to make
metric calls no-ops too, so instrumentation can stay inline in hot paths.
The two exporters load on first use: only a run that exports its
metrics compiles :mod:`repro.obs.exporters`.
"""

from repro import lazy_exports
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.runtime import (
    NULL_EMITTER,
    NULL_REGISTRY,
    NullEmitter,
    counter,
    current_span,
    emitter,
    event,
    gauge,
    histogram,
    inherited_emitter,
    logger,
    registry,
    set_emitter,
    set_registry,
    set_tracer,
    span,
    tracer,
    use,
)
from repro.obs.tracing import NULL_SPAN, Span, Tracer

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Tracer",
    "Span",
    "NULL_SPAN",
    "registry",
    "tracer",
    "set_registry",
    "set_tracer",
    "NullEmitter",
    "NULL_EMITTER",
    "emitter",
    "set_emitter",
    "inherited_emitter",
    "use",
    "counter",
    "gauge",
    "histogram",
    "span",
    "current_span",
    "event",
    "logger",
    "summary_table",
    "to_prometheus_text",
]

__getattr__ = lazy_exports(globals(), {
    "summary_table": "repro.obs.exporters",
    "to_prometheus_text": "repro.obs.exporters",
})
