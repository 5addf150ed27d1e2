"""repro.obs.live -- streaming telemetry for in-flight simulations.

The live layer on top of :mod:`repro.obs`: simulation workers emit
progress events -- trace events, :func:`repro.obs.tracing.event_record`
-- over a multiprocessing queue (:mod:`~repro.obs.live.bus`), the
parent folds them into windowed state
(:mod:`~repro.obs.live.aggregate`) feeding

* a live ANSI terminal dashboard (:mod:`~repro.obs.live.dashboard`,
  behind ``repro simulate --live``),
* a Prometheus-format ``/metrics`` HTTP endpoint
  (:mod:`~repro.obs.live.server`, behind ``--serve-metrics PORT``), and
* the run's ``trace.jsonl`` in the run registry, where the events
  follow the span trace; ``repro obs`` counts them and ``repro runs
  show --timeline`` replays them through the same fold
  (:mod:`~repro.obs.live.timeline`), and
* the online failure-detection pipeline (:mod:`repro.obs.online`,
  behind ``--detect``): episode/blame analysis folded hour by hour from
  the committed count arrays, whose alerts surface on the dashboard, on
  ``/alerts``, and in the run registry's ``alerts.jsonl``.

Import the submodules by name; this package re-exports nothing, and
neither :mod:`repro.obs` nor :mod:`repro.world.parallel` imports it.
The CLI loads :mod:`~repro.obs.live.session` only for ``--live``,
``--serve-metrics`` or ``--detect``, and the session loads the
dashboard and the HTTP server only when those flags ask for them.  A
forked worker binds to the telemetry queue only when the parent loaded
the bus (:func:`repro.obs.runtime.inherited_emitter`).

Determinism contract: nothing here draws randomness or writes into the
dataset; the dataset digest is bit-identical with telemetry on or off,
at any worker count.
"""
