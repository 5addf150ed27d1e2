"""The live ANSI terminal dashboard (and its dumb-terminal fallback).

Rendering is split in two so tests never need a terminal:

* :func:`render` -- pure: an aggregator snapshot in, a multi-line
  string out (progress bar + ETA, per-worker shard lanes, per-failure-
  type rate sparklines and, with detection on, the alerts pane with the
  detector's per-side episode thresholds);
* :class:`LiveDashboard` -- the bus subscriber that throttles redraws
  and owns the terminal: on a capable TTY it repaints in place with
  cursor-home escapes; on a dumb terminal (or any non-TTY stderr, e.g.
  CI logs) it degrades to one plain progress line per refresh.

Everything writes to *stderr*: stdout stays reserved for the dataset
digest and report output, which CI and tests parse.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

_HOME_AND_CLEAR = "\x1b[H\x1b[J"


def sparkline(values: List[float], width: int = 32) -> str:
    """Unicode block sparkline of ``values``, scaled to their max."""
    if not values:
        return ""
    tail = values[-width:]
    peak = max(tail)
    if peak <= 0:
        return _SPARK_BLOCKS[0] * len(tail)
    chars = []
    for v in tail:
        idx = int(v / peak * (len(_SPARK_BLOCKS) - 1) + 0.5)
        chars.append(_SPARK_BLOCKS[max(0, min(idx, len(_SPARK_BLOCKS) - 1))])
    return "".join(chars)


def _bar(fraction: float, width: int) -> str:
    filled = int(max(0.0, min(1.0, fraction)) * width + 0.5)
    return "#" * filled + "-" * (width - filled)


def _fmt_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _fmt_count(n: int) -> str:
    if n >= 10_000_000:
        return f"{n / 1e6:.0f}M"
    if n >= 1_000_000:
        return f"{n / 1e6:.1f}M"
    if n >= 10_000:
        return f"{n / 1e3:.0f}k"
    return str(n)


def render(snapshot: Dict[str, Any], width: int = 78) -> str:
    """The full dashboard frame for one aggregator snapshot."""
    hours_total = snapshot.get("hours_total") or 0
    hours_done = snapshot.get("hours_done") or 0
    fraction = hours_done / hours_total if hours_total else 0.0
    transactions = snapshot.get("transactions") or 0
    elapsed = snapshot.get("elapsed_seconds") or 0.0
    tx_rate = transactions / elapsed if elapsed > 0 else 0.0

    lines = [
        f"repro simulate -- live ({snapshot.get('engine') or '?'} engine)",
        (
            f"[{_bar(fraction, width - 26)}] "
            f"{hours_done:>4}/{hours_total or '?'} hours {fraction:6.1%}"
        ),
        (
            f"elapsed {_fmt_seconds(elapsed):<8} "
            f"eta {_fmt_seconds(snapshot.get('eta_seconds')):<8} "
            f"{_fmt_count(transactions)} transactions "
            f"({_fmt_count(int(tx_rate))}/s)"
        ),
    ]

    lanes = snapshot.get("lanes") or []
    if lanes:
        lines.append("")
        lines.append("-- workers --")
        for lane in lanes:
            total = lane.get("hours_total")
            done = lane.get("hours_done") or 0
            lane_fraction = done / total if total else 0.0
            state = "done" if lane.get("done") else (
                f"hour {lane['last_hour']}" if lane.get("last_hour") is not None
                else "starting"
            )
            span = (
                f"[{lane['hour_start']},{lane['hour_stop']})"
                if lane.get("hour_start") is not None else "[?]"
            )
            lines.append(
                f"  w{lane['worker']:<3} {span:<12} "
                f"[{_bar(lane_fraction, 24)}] {done:>4}/{total or '?':<4} "
                f"{state}"
            )

    window = snapshot.get("rate_window") or {}
    if any(window.values()):
        lines.append("")
        lines.append(f"-- failure rates (last {len(next(iter(window.values())))}h) --")
        for field, series in window.items():
            current = series[-1] if series else 0.0
            lines.append(
                f"  {field:<7} {current:7.2%}  {sparkline(series)}"
            )

    online = snapshot.get("online")
    if online is not None:
        lines.append("")
        lines.append(f"-- alerts ({online.get('alert_count') or 0} fired) --")
        recent = online.get("alerts") or []
        for alert in recent[-4:]:
            entity = f" {alert['entity']}" if alert.get("entity") else ""
            lines.append(
                f"  h{alert.get('hour', '?'):<4} "
                f"[{alert.get('severity', '?')}] "
                f"{alert.get('rule', '?')}{entity}"
            )
        if not recent:
            lines.append("  (none)")
        thresholds = online.get("thresholds") or {}
        if thresholds:
            # The detector's per-side knee; while a side's rate CDF is
            # too degenerate for one it runs at the paper's fallback f.
            lines.append("  episode thresholds: " + ", ".join(
                f"{side} {value:.2%}" if value is not None
                else f"{side} fallback"
                for side, value in thresholds.items()
            ))
        open_episodes = online.get("open_episodes") or []
        if open_episodes:
            shown = ", ".join(
                f"{e['side']} {e['entity']}" for e in open_episodes[:4]
            )
            more = (
                f" (+{len(open_episodes) - 4} more)"
                if len(open_episodes) > 4 else ""
            )
            lines.append(f"  open episodes: {shown}{more}")

    if snapshot.get("finished"):
        lines.append("simulation finished; finalizing ...")
    return "\n".join(line[:width] for line in lines)


def render_plain(snapshot: Dict[str, Any]) -> str:
    """One-line dumb-terminal progress summary."""
    hours_total = snapshot.get("hours_total") or 0
    hours_done = snapshot.get("hours_done") or 0
    fraction = hours_done / hours_total if hours_total else 0.0
    failures = snapshot.get("failures") or {}
    parts = [
        f"live: {hours_done}/{hours_total or '?'} hours ({fraction:.1%})",
        f"eta {_fmt_seconds(snapshot.get('eta_seconds'))}",
        f"tx {_fmt_count(snapshot.get('transactions') or 0)}",
    ]
    parts.extend(
        f"{field}={count}" for field, count in failures.items() if count
    )
    online = snapshot.get("online")
    if online is not None:
        parts.append(f"alerts={online.get('alert_count') or 0}")
    return "  ".join(parts)


def ansi_capable(stream=None, environ=None) -> bool:
    """Whether ``stream`` (default stderr) can take in-place repaints."""
    stream = stream if stream is not None else sys.stderr
    environ = environ if environ is not None else os.environ
    if environ.get("TERM", "").lower() in ("", "dumb"):
        return False
    isatty = getattr(stream, "isatty", None)
    return bool(isatty and isatty())


class LiveDashboard:
    """Throttled terminal renderer, subscribed to the telemetry bus."""

    def __init__(
        self,
        aggregator,
        stream=None,
        interval_seconds: float = 0.5,
        clock: Callable[[], float] = time.time,
        ansi: Optional[bool] = None,
        alerts_provider: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.aggregator = aggregator
        self.stream = stream if stream is not None else sys.stderr
        self.interval_seconds = interval_seconds
        self._clock = clock
        self.ansi = ansi_capable(self.stream) if ansi is None else ansi
        #: When online detection is on, a callable returning the
        #: detector's snapshot -- merged into each frame's snapshot as
        #: ``online`` so :func:`render` draws the alerts pane.
        self.alerts_provider = alerts_provider
        self._last_render = 0.0
        self.frames = 0

    def update(self, event: Dict[str, Any]) -> None:
        """Bus callback: repaint if the refresh interval has passed."""
        now = self._clock()
        if now - self._last_render < self.interval_seconds:
            return
        self._last_render = now
        self.draw()

    def draw(self) -> None:
        """Render one frame unconditionally."""
        snapshot = self.aggregator.snapshot()
        if self.alerts_provider is not None:
            snapshot["online"] = self.alerts_provider()
        try:
            if self.ansi:
                self.stream.write(_HOME_AND_CLEAR + render(snapshot) + "\n")
            else:
                self.stream.write(render_plain(snapshot) + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            return
        self.frames += 1

    def close(self) -> None:
        """Final frame so the terminal ends on the completed state."""
        self.draw()
