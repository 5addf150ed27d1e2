"""The streaming-telemetry event vocabulary.

Every record on the telemetry bus is one flat JSON-serializable dict::

    {"type": "hour_done", "t": <unix>, "seq": <per-emitter counter>,
     "worker": <index or None>, ...kind-specific fields...}

The kinds (``EVENT_KINDS``) mirror the simulation's natural grain:

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

The same dicts travel three paths: the multiprocessing queue from
workers to the parent, the ``events.jsonl`` file persisted into
``runs/<run-id>/`` (replayed by ``repro runs show --timeline``), and the
live aggregator feeding the dashboard and the ``/metrics`` endpoint.

Unknown kinds are carried, persisted, and ignored by consumers -- the
stream is additive, like every other schema in this repository.
"""

from __future__ import annotations

from typing import Any

#: Schema identifier stamped on the ``run_start`` event (and therefore
#: the first line of every persisted ``events.jsonl``).
SCHEMA = "repro.live-events/1"

RUN_START = "run_start"
RUN_DONE = "run_done"
SHARD_START = "shard_start"
SHARD_DONE = "shard_done"
HOUR_DONE = "hour_done"

EVENT_KINDS = frozenset({
    RUN_START, RUN_DONE, SHARD_START, SHARD_DONE, HOUR_DONE,
})

#: The per-failure-type count fields an ``hour_done`` event carries
#: (and a ``run_done`` event totals).  Order is presentation order.
FAILURE_FIELDS = ("dns", "tcp", "http", "masked")


def is_event(record: Any) -> bool:
    """True when ``record`` looks like a telemetry event dict."""
    return isinstance(record, dict) and isinstance(record.get("type"), str)
