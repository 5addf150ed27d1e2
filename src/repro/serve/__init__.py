"""Service mode: the continuous simulation daemon behind ``repro serve``.

The batch pipeline diagnoses a *recorded* month; this package runs the
same engine as an always-on service -- sim-time chunks through the
columnar/parallel engine, every chunk committed durably
(:mod:`repro.obs.runstore.chunks`) and folded into the streaming
detector (:mod:`repro.obs.online`), with the unified HTTP read API
(:mod:`repro.obs.live.server`) mounted on top.  Kill it at any point;
``repro serve --resume RUN`` continues from the last committed sim-hour
with a bit-identical final digest.
"""
