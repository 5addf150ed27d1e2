"""One CLI invocation's live-telemetry wiring, composed and torn down.

:class:`LiveSession` is what ``repro simulate --live --serve-metrics
PORT`` actually constructs: a :class:`~repro.obs.live.bus.TelemetryBus`
spooling events to a temp file, a
:class:`~repro.obs.live.aggregate.LiveAggregator` subscribed to it,
optionally a :class:`~repro.obs.live.dashboard.LiveDashboard` (when
``--live``), a :class:`~repro.obs.live.server.MetricsServer` (when
``--serve-metrics``), and an
:class:`~repro.obs.online.detector.OnlineDetector` (when ``--detect``,
or implied by ``--alert-rules``) folding per-hour entity stats into
episodes, blame, and alerts.  The detector is not on the bus: the CLI
hands it the finished dataset once (:meth:`LiveSession.fold_dataset`),
the same committed-array feed the serve daemon uses per chunk.
Detection also wires the long-horizon observers
(:class:`~repro.obs.horizon.history.HistoryStore`,
:class:`~repro.obs.horizon.slo.SLOEngine`) onto the detector's ordered
hour stream, so batch runs serve the same ``/history`` and ``/slo``
documents -- and ``repro_slo_*`` gauges -- as the serve daemon.
``stop()`` tears everything down in reverse order; the spool file
survives until :meth:`cleanup` so the run recorder can append it to
``runs/<run-id>/trace.jsonl`` (after the span trace, when ``--trace``
wrote one) once the content-addressed run id becomes known, and the
detector's exported alert stream rides along into ``alerts.jsonl``.
Each optional part loads only when its flag asks for it: a batch
``--detect`` run never imports the dashboard or :mod:`http.server`.
"""

from __future__ import annotations

import os
import tempfile
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.obs.live.aggregate import LiveAggregator
from repro.obs.live.bus import TelemetryBus

if TYPE_CHECKING:
    from repro.obs.live.dashboard import LiveDashboard
    from repro.obs.live.server import MetricsServer


class LiveSession:
    """Bus + aggregator + optional dashboard / ``/metrics`` server /
    online detector."""

    def __init__(
        self,
        dashboard: bool = False,
        serve_port: Optional[int] = None,
        stream=None,
        detect: bool = False,
        rules_path: Optional[str] = None,
    ) -> None:
        self.detector = None
        self.history = None
        self.slo = None
        if detect or rules_path is not None:
            # Imported lazily: plain --live/--serve-metrics sessions
            # never pay for the online pipeline.
            from repro.obs.horizon.history import HistoryStore
            from repro.obs.horizon.slo import SLOEngine
            from repro.obs.online.detector import OnlineDetector
            from repro.obs.online.rules import load_rules

            # Before the spool exists: a bad rule file leaves nothing
            # behind in the temp directory.
            rules = load_rules(rules_path) if rules_path else None
            # The horizon observers ride the detector's hour cursor, so
            # batch runs get the same /history and /slo surfaces (and
            # worker-count invariance) the serve daemon has.
            self.history = HistoryStore()
            self.slo = SLOEngine()
            self.detector = OnlineDetector(
                rules=rules, observers=[self.history, self.slo]
            )
        fd, self.spool_path = tempfile.mkstemp(
            prefix="repro-events-", suffix=".jsonl"
        )
        os.close(fd)
        self.aggregator = LiveAggregator(
            slo_provider=(
                self.slo.document if self.slo is not None else None
            ),
        )
        self.bus = TelemetryBus(spool_path=self.spool_path)
        self.bus.subscribe(self.aggregator.update)
        self.dashboard: Optional[LiveDashboard] = None
        if dashboard:
            from repro.obs.live.dashboard import LiveDashboard

            self.dashboard = LiveDashboard(
                self.aggregator,
                stream=stream,
                alerts_provider=(
                    self.detector.snapshot
                    if self.detector is not None else None
                ),
            )
            self.bus.subscribe(self.dashboard.update)
        self.server: Optional[MetricsServer] = None
        if serve_port is not None:
            from repro.obs.live.server import MetricsServer

            self.server = MetricsServer(
                serve_port, aggregator=self.aggregator,
                detector=self.detector,
                history_provider=(
                    self.history.document
                    if self.history is not None else None
                ),
                slo_provider=(
                    self.slo.document if self.slo is not None else None
                ),
                gauges_provider=(
                    (lambda: [self.slo.to_registry()])
                    if self.slo is not None else None
                ),
            )
        self._started = False

    @property
    def port(self) -> Optional[int]:
        """The metrics server's bound port, when one is serving."""
        return self.server.port if self.server is not None else None

    def start(self) -> "LiveSession":
        """Start the server (if any) and the bus; install the emitter."""
        if self.server is not None:
            self.server.start()
        self.bus.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Final drain, last dashboard frame, server shutdown."""
        if not self._started:
            return
        self._started = False
        self.bus.stop()
        if self.dashboard is not None:
            self.dashboard.close()
        if self.server is not None:
            self.server.stop()

    def fold_dataset(self, dataset) -> None:
        """Fold a finished run's dataset into the detector (if any).

        One ``run_start`` with the world's roster, then every hour of
        the dataset as one block -- alerts therefore land when the
        simulation returns, with sim-hour latencies unchanged.
        """
        if self.detector is None:
            return
        world = dataset.world
        self.detector.update(
            {"type": "run_start", "hours": world.hours, **world.roster()}
        )
        self.detector.fold_block(dataset.arrays(), 0)

    def export_alerts(self) -> Optional[Dict[str, Any]]:
        """The detector's persistable alert stream (None when off)."""
        if self.detector is None:
            return None
        return self.detector.export()

    def cleanup(self) -> None:
        """Remove the spool file (after the recorder copied it, if ever)."""
        try:
            os.unlink(self.spool_path)
        except OSError:
            pass

    def __enter__(self) -> "LiveSession":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
        self.cleanup()
