"""repro.obs.live -- streaming telemetry for in-flight simulations.

The live layer on top of :mod:`repro.obs`: simulation workers emit
structured progress events over a multiprocessing queue
(:mod:`~repro.obs.live.bus`), the parent folds them into windowed
state (:mod:`~repro.obs.live.aggregate`) feeding

* a live ANSI terminal dashboard (:mod:`~repro.obs.live.dashboard`,
  behind ``repro simulate --live``),
* a Prometheus-format ``/metrics`` HTTP endpoint
  (:mod:`~repro.obs.live.server`, behind ``--serve-metrics PORT``), and
* an ``events.jsonl`` stream persisted into the run registry and
  replayed post-hoc by ``repro runs show --timeline``
  (:mod:`~repro.obs.live.timeline`), and
* the online failure-detection pipeline (:mod:`repro.obs.online`,
  behind ``--detect``): episode/blame analysis folded hour by hour from
  the committed count arrays, whose alerts surface on the dashboard, on
  ``/alerts``, and in the run registry's ``alerts.jsonl``.

Import as ``from repro.obs import live`` -- :mod:`repro.obs` itself
does **not** import this package eagerly (the CLI and the parallel
driver pull it in only when telemetry is requested), so the zero-cost
default path stays zero-cost.

Determinism contract: nothing here draws randomness or writes into the
dataset; the dataset digest is bit-identical with telemetry on or off,
at any worker count.
"""

from repro.obs.live.aggregate import LiveAggregator, knee_of_rates
from repro.obs.live.bus import QueueEmitter, TelemetryBus, inherited_emitter
from repro.obs.live.dashboard import LiveDashboard, render, render_plain, sparkline
from repro.obs.live.events import EVENT_KINDS, FAILURE_FIELDS, SCHEMA, hour_rate
from repro.obs.live.server import MetricsServer
from repro.obs.live.session import LiveSession
from repro.obs.live.timeline import load_events, render_timeline

__all__ = [
    "EVENT_KINDS",
    "FAILURE_FIELDS",
    "LiveAggregator",
    "LiveDashboard",
    "LiveSession",
    "MetricsServer",
    "QueueEmitter",
    "SCHEMA",
    "TelemetryBus",
    "hour_rate",
    "inherited_emitter",
    "knee_of_rates",
    "load_events",
    "render",
    "render_plain",
    "render_timeline",
    "sparkline",
]
