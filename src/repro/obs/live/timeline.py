"""Post-hoc replay of a recorded progress stream as a timeline.

``repro runs show REF --timeline`` loads the run's ``trace.jsonl``
(:func:`repro.obs.replay.load_trace`) and folds its progress events
through the same :class:`~repro.obs.live.aggregate.LiveAggregator` the
dashboard reads, with a clock pinned to the last event.  It renders
what the live dashboard showed at the end of the run: one density lane
per worker (each column is an equal slice of wall time, shaded by how
many hours that worker completed in it), the per-shard summary, and
the final per-failure-type totals.  Together with the span tree in the
same file this makes any past run's progress inspectable without
re-running it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.live.aggregate import LiveAggregator
from repro.obs.live.events import FAILURE_FIELDS, HOUR_DONE

_DENSITY_BLOCKS = " ▁▂▃▄▅▆▇█"


def _density_row(times: List[float], t0: float, t1: float, width: int) -> str:
    """Shade ``width`` equal wall-time columns by event count."""
    counts = [0] * width
    span = max(t1 - t0, 1e-9)
    for t in times:
        column = int((t - t0) / span * width)
        counts[min(max(column, 0), width - 1)] += 1
    peak = max(counts) if counts else 0
    if peak == 0:
        return " " * width
    row = []
    for c in counts:
        idx = int(c / peak * (len(_DENSITY_BLOCKS) - 1) + 0.5)
        row.append(_DENSITY_BLOCKS[min(idx, len(_DENSITY_BLOCKS) - 1)])
    return "".join(row)


def replay(
    events: List[Dict[str, Any]],
) -> Tuple[LiveAggregator, Dict[str, Any]]:
    """Fold recorded events as the live session did.

    Returns the aggregator and its final snapshot, taken with the clock
    pinned to the last event.
    """
    last = max((float(e.get("time") or 0.0) for e in events), default=0.0)
    aggregator = LiveAggregator(clock=lambda: last)
    for event in events:
        aggregator.update(event)
    return aggregator, aggregator.snapshot()


def render_timeline(
    events: List[Dict[str, Any]], width: int = 60,
) -> Optional[str]:
    """The timeline view of a recorded event stream (None: no progress)."""
    aggregator, snap = replay(events)
    if not snap["events_seen"]:
        return None
    t0 = aggregator.started_at
    duration = snap["elapsed_seconds"]

    lines = [
        f"timeline: {snap['events_seen']} events over {duration:.2f}s "
        f"({snap['hours_done']} hours simulated)"
    ]
    if snap["hours_total"] is not None:
        lines.append(
            f"run: hours={snap['hours_total']} workers={snap['workers']} "
            f"engine={snap['engine'] or '?'}"
        )

    lanes = [lane for lane in snap["lanes"] if lane["hours_done"]]
    if lanes:
        lines.append("")
        lines.append(
            "-- per-worker hour completions "
            f"(each column ~{duration / width:.3f}s) --"
        )
        hour_times: Dict[int, List[float]] = {}
        for e in events:
            if e.get("name") == HOUR_DONE:
                worker = int((e.get("fields") or {}).get("worker") or 0)
                hour_times.setdefault(worker, []).append(
                    float(e.get("time") or 0.0)
                )
        for lane in lanes:
            worker = lane["worker"]
            row = _density_row(
                hour_times.get(worker, []), t0, t0 + duration, width
            )
            span = (
                f"[{lane['hour_start']},{lane['hour_stop']})"
                if lane["hour_start"] is not None else ""
            )
            suffix = f"{lane['hours_done']}h"
            if lane["done"]:
                suffix += f" cpu={lane['cpu_seconds']:.2f}s"
            lines.append(f"  w{worker:<3} |{row}| {span} {suffix}")

    if snap["transactions"]:
        lines.append("")
        breakdown = "  ".join(
            f"{f}={snap['failures'][f]}" for f in FAILURE_FIELDS
        )
        lines.append(
            f"totals: {snap['transactions']} transactions  {breakdown}"
        )
    if snap["finished"]:
        lines.append("run completed (run_done recorded)")
    elif snap["hours_done"]:
        lines.append("(stream ends without run_done -- interrupted run?)")
    return "\n".join(lines)
