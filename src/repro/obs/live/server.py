"""The live HTTP read API for in-flight and daemonized simulations.

``repro simulate --serve-metrics PORT`` and the ``repro serve`` daemon
both mount a :class:`MetricsServer`: a daemon-threaded stdlib HTTP
server exposing a small, versioned, read-only API over the process's
observability state:

* ``/metrics`` -- Prometheus text exposition: the active
  :class:`~repro.obs.metrics.MetricsRegistry` plus the live
  aggregator's and online detector's gauges (``repro_live_*`` /
  ``repro_alert_*``), so a month-long run can sit on an existing
  Prometheus/Grafana stack while it is still in flight;
* ``/healthz`` -- liveness probe (JSON, always 200 while serving);
* ``/status`` -- the run's progress document: sim-clock, chunk cursor,
  ETA, worker lanes (the daemon's status provider, else the live
  aggregator's snapshot);
* ``/alerts`` -- the online detector's alert snapshot;
* ``/episodes`` -- the full episode log (open + closed, with latency);
* ``/blame`` -- running blame attribution and the current verdict --
  queryable sim-hours after fault onset, not at month-end;
* ``/runs`` -- the run registry listing (the same serializer as
  ``repro runs list --json``);
* ``/history`` -- the long-horizon downsampled history rings
  (:class:`~repro.obs.horizon.history.HistoryStore`; ``?series=``, ``?res=``,
  ``?entity=``, ``?from=``, ``?to=`` select a slice; bad parameters are
  a 400 with the offending name);
* ``/slo`` -- per-side availability, error-budget consumption,
  multi-window burn rates, MTBF/MTTR
  (:class:`~repro.obs.horizon.slo.SLOEngine`);
* ``/`` -- a JSON index of the above.  Unknown paths get a 404 with a
  JSON error body listing the valid endpoints.

Every JSON document is stamped ``"api": "repro.live-api/1"``; fields
are only ever added within a major (the manifest compatibility rule).

The server only ever *reads* observability state -- it can neither slow
the determinism-critical path nor perturb it, and a scrape mid-run
leaves the dataset digest bit-identical to an unscraped run (asserted
in CI).

The graceful-shutdown half lives apart, in
:mod:`repro.obs.live.shutdown`, so a run that installs signal handlers
without serving HTTP never loads :mod:`http.server`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple,
)
from urllib.parse import parse_qsl

from repro.obs import runtime

if TYPE_CHECKING:
    from repro.obs.live.aggregate import LiveAggregator

DEFAULT_HOST = "127.0.0.1"

#: Seconds between ``serve_forever``'s shutdown checks: the longest
#: :meth:`MetricsServer.stop` waits.  Every serve run pays one stop after
#: its last chunk is durable, so this stays well under the stdlib's 0.5 s.
SHUTDOWN_POLL_SECONDS = 0.05

#: API schema stamped on every JSON response; additive within a major.
API_VERSION = "repro.live-api/1"

#: The route catalog: path -> one-line description (the ``/`` index and
#: every 404 body list exactly these).
ENDPOINTS = {
    "/": "this index",
    "/healthz": "liveness probe",
    "/status": "run progress: sim-clock, chunk cursor, ETA, worker lanes",
    "/metrics": "Prometheus text exposition",
    "/alerts": "online detector alert snapshot",
    "/episodes": "episode log (open + closed) with detection latency",
    "/blame": "running blame attribution and verdict",
    "/runs": "recorded run registry listing",
    "/history": (
        "downsampled long-horizon history "
        "(?series=&res=&entity=&from=&to=)"
    ),
    "/slo": "availability, error budget, burn rates, MTBF/MTTR",
}


class MetricsServer:
    """The versioned read API on a daemon thread (see module docstring)."""

    def __init__(
        self,
        port: int,
        aggregator: Optional[LiveAggregator] = None,
        registry_provider: Optional[Callable[[], object]] = None,
        host: str = DEFAULT_HOST,
        detector=None,
        status_provider: Optional[Callable[[], Dict[str, Any]]] = None,
        runs_provider: Optional[Callable[[], Dict[str, Any]]] = None,
        history_provider: Optional[
            Callable[[Dict[str, str]], Dict[str, Any]]
        ] = None,
        slo_provider: Optional[Callable[[], Dict[str, Any]]] = None,
        gauges_provider: Optional[Callable[[], Sequence[Any]]] = None,
    ) -> None:
        self.aggregator = aggregator
        #: An :class:`~repro.obs.online.detector.OnlineDetector` (or
        #: anything with ``snapshot()``/``episodes_document()``/
        #: ``blame_document()``/``to_registry()``); backs ``/alerts``,
        #: ``/episodes``, ``/blame`` and the ``repro_alert_*`` gauges.
        self.detector = detector
        #: The daemon's ``/status`` document factory; when absent the
        #: live aggregator's snapshot serves instead.
        self.status_provider = status_provider
        #: The ``/runs`` document factory (see
        #: :func:`repro.obs.runstore.store.runs_index`).
        self.runs_provider = runs_provider
        #: ``/history``: ``params -> document`` (the daemon passes
        #: ``HistoryStore.document``); a ``KeyError`` from the provider
        #: names a bad query parameter and becomes a 400.
        self.history_provider = history_provider
        #: ``/slo``: the SLO engine's document factory.
        self.slo_provider = slo_provider
        #: Extra gauge registries merged into ``/metrics`` with the
        #: ``repro_`` prefix (the daemon's serve/SLO gauges).
        self.gauges_provider = gauges_provider
        self._registry_provider = registry_provider or runtime.registry
        self._requested = (host, port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self.scrapes = 0

    # -- rendering ------------------------------------------------------------

    def render_metrics(self) -> str:
        """The full exposition body: process registry + live gauges."""
        from repro.obs.exporters import to_prometheus_text

        body = to_prometheus_text(self._registry_provider())
        if self.aggregator is not None:
            body += to_prometheus_text(
                self.aggregator.to_registry(), prefix="repro_"
            )
        if self.detector is not None:
            body += to_prometheus_text(
                self.detector.to_registry(), prefix="repro_"
            )
        if self.gauges_provider is not None:
            for registry in self.gauges_provider():
                body += to_prometheus_text(registry, prefix="repro_")
        return body

    # -- JSON documents -------------------------------------------------------

    def _index_document(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "service": "repro live metrics endpoint; scrape /metrics",
            "endpoints": dict(ENDPOINTS),
        }

    def _healthz_document(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"ok": True, "scrapes": self.scrapes}

    def _status_document(self) -> Tuple[int, Dict[str, Any]]:
        if self.status_provider is not None:
            return 200, dict(self.status_provider())
        if self.aggregator is not None:
            return 200, self.aggregator.snapshot()
        return 404, {"error": "no status source wired for this run"}

    def _alerts_document(self) -> Tuple[int, Dict[str, Any]]:
        if self.detector is None:
            return 404, {"error": "online detection not enabled for this run"}
        return 200, self.detector.snapshot()

    def _episodes_document(self) -> Tuple[int, Dict[str, Any]]:
        if self.detector is None:
            return 404, {"error": "online detection not enabled for this run"}
        return 200, self.detector.episodes_document()

    def _blame_document(self) -> Tuple[int, Dict[str, Any]]:
        if self.detector is None:
            return 404, {"error": "online detection not enabled for this run"}
        return 200, self.detector.blame_document()

    def _runs_document(self) -> Tuple[int, Dict[str, Any]]:
        if self.runs_provider is None:
            return 404, {"error": "no run registry wired for this server"}
        return 200, dict(self.runs_provider())

    def _history_document(
        self, query: str
    ) -> Tuple[int, Dict[str, Any]]:
        if self.history_provider is None:
            return 404, {
                "error": "long-horizon history not enabled for this run"
            }
        params = dict(parse_qsl(query, keep_blank_values=True))
        try:
            return 200, dict(self.history_provider(params))
        except KeyError as exc:
            return 400, {"error": str(exc.args[0]) if exc.args else "bad query"}

    def _slo_document(self) -> Tuple[int, Dict[str, Any]]:
        if self.slo_provider is None:
            return 404, {"error": "SLO tracking not enabled for this run"}
        return 200, dict(self.slo_provider())

    def _not_found_document(self, route: str) -> Tuple[int, Dict[str, Any]]:
        return 404, {
            "error": f"no such endpoint: {route}",
            "endpoints": dict(ENDPOINTS),
        }

    # -- lifecycle ------------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        """The bound port (meaningful after :meth:`start`)."""
        if self._httpd is None:
            return None
        return self._httpd.server_address[1]

    def start(self) -> "MetricsServer":
        """Bind and start serving on a daemon thread."""
        server = self
        json_routes: Dict[str, Callable[[], Tuple[int, Dict[str, Any]]]] = {
            "/": server._index_document,
            "/healthz": server._healthz_document,
            "/status": server._status_document,
            "/alerts": server._alerts_document,
            "/episodes": server._episodes_document,
            "/blame": server._blame_document,
            "/runs": server._runs_document,
            "/slo": server._slo_document,
        }

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                route, _, query = self.path.partition("?")
                if route == "/history":
                    status, document = server._history_document(query)
                    self._reply(
                        status, _encode_json(document),
                        "application/json; charset=utf-8",
                    )
                    return
                if route == "/metrics":
                    body = server.render_metrics().encode("utf-8")
                    server.scrapes += 1
                    self._reply(
                        200, body,
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                    return
                handler = json_routes.get(route)
                if handler is None:
                    status, document = server._not_found_document(route)
                else:
                    status, document = handler()
                self._reply(
                    status, _encode_json(document),
                    "application/json; charset=utf-8",
                )

            def _reply(
                self, status: int, body: bytes, content_type: str
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args) -> None:
                runtime.logger.debug(
                    "metrics server: " + format, *args
                )

        self._httpd = ThreadingHTTPServer(self._requested, Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL_SECONDS},
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        runtime.logger.info(
            "serving /metrics on http://%s:%d", *self._httpd.server_address[:2]
        )
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def _encode_json(document: Dict[str, Any]) -> bytes:
    """Serialize a response document, stamped with the API version."""
    stamped = {"api": API_VERSION, **document}
    return (json.dumps(stamped, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )
