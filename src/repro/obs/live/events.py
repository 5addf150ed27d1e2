"""The streaming-telemetry event vocabulary.

A progress event is a trace event (:func:`repro.obs.tracing.event_record`)::

    {"type": "event", "name": "hour_done", "time": <unix>, "span": null,
     "fields": {"worker": <index or None>, "seq": <per-emitter counter>,
                ...kind-specific fields...}}

The kinds mirror the simulation's natural grain:

* ``run_start`` / ``run_done`` -- the whole month: hour count, worker
  count, engine, and (on completion) the per-failure-type totals;
* ``shard_start`` / ``shard_done`` -- one worker's contiguous hour
  block, with the worker's wall and CPU seconds on completion;
* ``hour_done`` -- one simulated hour: its RNG stream id and the
  per-failure-type transaction counts for that hour.

Per-entity hour stats are not on the bus.  The online detector
(:mod:`repro.obs.online`) folds them from the committed count arrays
instead
(:meth:`~repro.obs.online.detector.OnlineDetector.fold_block`): once
per batch run when the simulation returns, once per serve chunk.  The bus
only carries what ``--live`` and ``/metrics`` show while the run is in
flight.

The same records travel three paths: the multiprocessing queue from
workers to the parent, the run directory's ``trace.jsonl`` (appended
after the span trace; ``repro obs`` counts them and ``repro runs show
--timeline`` replays them), and the live aggregator feeding the
dashboard and the ``/metrics`` endpoint.

Other names are carried, persisted, and ignored by the fold -- the
stream is additive, like every other schema in this repository.
"""

from __future__ import annotations

RUN_START = "run_start"
RUN_DONE = "run_done"
SHARD_START = "shard_start"
SHARD_DONE = "shard_done"
HOUR_DONE = "hour_done"

#: The per-failure-type count fields an ``hour_done`` event carries
#: (and a ``run_done`` event totals).  Order is presentation order.
FAILURE_FIELDS = ("dns", "tcp", "http", "masked")
