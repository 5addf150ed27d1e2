"""Graceful shutdown: SIGTERM/SIGINT become one stop request.

:class:`ShutdownCoordinator` installs the signal handlers that let the
batch ``--live``/``--serve-metrics``/``--detect`` path and the ``repro
serve`` daemon flush in-flight work, finalize the run record, and stop
their server cleanly instead of dying mid-write.  It needs only
:mod:`signal` and :mod:`threading`, so installing it never loads the
HTTP server (:mod:`repro.obs.live.server`).
"""

from __future__ import annotations

import signal
import threading
from typing import Any, Dict, List, Optional

from repro.obs import runtime


class ShutdownCoordinator:
    """SIGTERM/SIGINT -> one graceful-shutdown request, two flavors.

    ``raise_interrupt=False`` (the daemon): the first signal sets a flag
    the serve loop polls at chunk boundaries, so the in-flight chunk is
    finished and committed before the run record is finalized and the
    server stopped.  ``raise_interrupt=True`` (batch
    ``--serve-metrics``): the signal is converted to
    :class:`KeyboardInterrupt` so the CLI's existing ``finally``
    teardown (live session stop, trace close, metrics export) runs
    exactly as it does for a ^C.

    Handlers are only installable from the main thread (a stdlib
    restriction); elsewhere :meth:`install` is a no-op and returns
    ``False`` -- the flag can still be set programmatically via
    :meth:`request_stop`.  :meth:`restore` puts the previous handlers
    back (tests install/restore around ``os.kill``).
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self, raise_interrupt: bool = False) -> None:
        self.raise_interrupt = raise_interrupt
        self._stop = threading.Event()
        self._previous: Dict[int, Any] = {}
        #: Signal numbers received, in order (observability/tests).
        self.signals_seen: List[int] = []

    def _handle(self, signum, frame) -> None:
        self.signals_seen.append(int(signum))
        self._stop.set()
        runtime.logger.info(
            "received signal %d; finishing in-flight work", signum
        )
        if self.raise_interrupt:
            raise KeyboardInterrupt

    def install(self) -> bool:
        """Install the handlers; False when not on the main thread."""
        try:
            for sig in self.SIGNALS:
                self._previous[sig] = signal.signal(sig, self._handle)
        except ValueError:
            # signal.signal outside the main thread; callers fall back
            # to programmatic request_stop().
            self.restore()
            return False
        return True

    def restore(self) -> None:
        """Reinstall whatever handlers were active before install()."""
        while self._previous:
            sig, previous = self._previous.popitem()
            try:
                signal.signal(sig, previous)
            except (ValueError, TypeError):
                pass

    def request_stop(self) -> None:
        """Programmatic stop request (same flag the signals set)."""
        self._stop.set()

    def stop_requested(self) -> bool:
        return self._stop.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a stop is requested (or the timeout elapses)."""
        return self._stop.wait(timeout)
