"""Long-horizon observability: bounded history + SLO tracking.

``repro.obs.horizon`` is what lets the ``repro serve`` daemon run
*indefinitely*: everything in here is O(window), never O(run length).

* :mod:`repro.obs.horizon.history` -- :class:`HistoryStore`, a
  multi-resolution ring-buffer time series (raw hour -> 6h -> day ->
  week rollups) over the per-hour entity stats the online detector
  folds; backs the ``/history`` endpoint.
* :mod:`repro.obs.horizon.slo` -- :class:`SLOEngine`, per-side and
  per-region availability, error-budget consumption, multi-window burn
  rates, and Cloud-Uptime-Archive-style MTBF/MTTR per entity; backs
  ``/slo``, the ``repro_slo_*`` gauges, and ``repro slo RUN``.

Layering: this package may import ``repro.core`` (knee/dataset
constants) and is imported by ``repro.serve`` and ``repro.obs.live`` --
never by ``world/`` or ``core/`` engines (enforced by ``repro lint``'s
ARC rules).
"""
