"""Online failure detection: streaming episode/blame analysis.

The batch pipeline (:mod:`repro.core.episodes`, :mod:`repro.core.blame`)
answers "what happened last month?".  This package answers the
operational question the paper's infrastructure would face in
production: *while* the month is being simulated, detect failure
episodes as they open, attribute blame incrementally, and alert --
then, after the run, prove the online verdicts match the batch ones.

Pieces:

* :mod:`~repro.obs.online.detector` -- the incremental pipeline
  (telemetry-bus subscriber; deterministic at any worker count);
* :mod:`~repro.obs.online.rules` -- the declarative alert-rule engine
  (TOML/JSON rule files, three rule kinds);
* :mod:`~repro.obs.online.report` -- ``repro detect``: post-run
  scoring of online vs batch (precision/recall, blame agreement,
  detection-latency distribution, digest reproduction).
"""
