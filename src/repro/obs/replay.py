"""Replay a JSONL trace file back into a span tree and summary.

``repro obs trace.jsonl`` uses this to turn the streamed records back
into something a human can read: the reconstructed span tree (repeated
siblings of the same name are collapsed into one aggregate line) plus a
per-name duration table and the event log highlights (e.g. the
``rng.fork`` seed events that make a run reproducible from its trace,
and the live progress events -- ``hour_done`` and the rest -- that a
recorded run appends after its spans).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple,
)

from repro.obs.tracing import event_record


@dataclass
class TraceNode:
    """One span reconstructed from the JSONL stream."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    duration: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    children: List["TraceNode"] = field(default_factory=list)


@dataclass
class LoadedTrace:
    """A parsed trace file: span forest plus standalone events."""

    roots: List[TraceNode]
    spans: Dict[int, TraceNode]
    events: List[Dict[str, Any]]

    @property
    def span_count(self) -> int:
        """Total spans in the trace."""
        return len(self.spans)


def load_trace(path: str) -> LoadedTrace:
    """Parse a JSONL trace file into a :class:`LoadedTrace`.

    Lines that are not valid JSON objects are skipped (a crashed run may
    leave a torn final line).  This is the one reader of a run's event
    log: ``repro obs`` and ``repro runs show --timeline`` both load
    through it, and it also reads a legacy flat ``events.jsonl``.
    """
    spans: Dict[int, TraceNode] = {}
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            kind = record.get("type")
            if isinstance(kind, str) and kind not in ("span", "event"):
                # A flat ``repro.live-events/1`` record: an
                # ``events.jsonl`` written before progress events were
                # trace events (the manifest's legacy ``events_file``).
                legacy = {k: v for k, v in record.items() if k != "type"}
                record = event_record(kind, legacy.pop("t", None), legacy)
                kind = "event"
            if kind == "span":
                node = TraceNode(
                    span_id=int(record["id"]),
                    parent_id=record.get("parent"),
                    name=str(record.get("name", "?")),
                    start=float(record.get("start", 0.0)),
                    duration=float(record.get("duration", 0.0)),
                    attrs=record.get("attrs") or {},
                    events=record.get("events") or [],
                )
                spans[node.span_id] = node
            elif kind == "event":
                events.append(record)
    roots: List[TraceNode] = []
    for node in spans.values():
        parent = spans.get(node.parent_id) if node.parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in spans.values():
        node.children.sort(key=lambda n: n.start)
    roots.sort(key=lambda n: n.start)
    return LoadedTrace(roots=roots, spans=spans, events=events)


def tail_records(
    path: str,
    poll_interval: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield records from ``path`` as they are appended (``tail -f``).

    Existing records are yielded first, then the file is polled every
    ``poll_interval`` seconds for new lines.  A torn final line (the
    writer mid-append) is buffered until its newline arrives, so a
    record is never yielded half-parsed.  ``stop`` is polled at EOF;
    returning True ends the stream (tests and the CLI's Ctrl-C path).
    """
    with open(path, "r", encoding="utf-8") as fh:
        buffer = ""
        while True:
            chunk = fh.readline()
            if chunk:
                buffer += chunk
                if not buffer.endswith("\n"):
                    continue
                line, buffer = buffer.strip(), ""
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record
                continue
            if stop is not None and stop():
                return
            sleep(poll_interval)


def format_record(record: Dict[str, Any]) -> str:
    """One compact ``--follow`` line for a streamed span or event."""
    kind = record.get("type")
    if kind == "span":
        return (
            f"span  {record.get('name', '?')}  "
            f"{float(record.get('duration', 0.0)):.3f}s"
            f"{_fmt_attrs(record.get('attrs') or {})}"
        )
    if kind == "event":
        fields = record.get("fields") or {}
        body = " ".join(f"{k}={v}" for k, v in list(fields.items())[:6])
        return f"event {record.get('name', '?')}  {body}".rstrip()
    return json.dumps(record, sort_keys=True)


def _fmt_attrs(attrs: Dict[str, Any], limit: int = 3) -> str:
    if not attrs:
        return ""
    shown = list(attrs.items())[:limit]
    body = ", ".join(f"{k}={v}" for k, v in shown)
    if len(attrs) > limit:
        body += ", ..."
    return f" [{body}]"


def render_tree(trace: LoadedTrace, collapse_threshold: int = 3) -> str:
    """Render the span forest; same-name sibling groups are collapsed.

    A run of >= ``collapse_threshold`` same-name siblings (e.g. 744
    ``simulate.hour`` spans) renders as one aggregate line with count,
    total, and mean duration.
    """
    lines: List[str] = []

    def walk(nodes: List[TraceNode], depth: int) -> None:
        indent = "  " * depth
        groups: Dict[str, List[TraceNode]] = {}
        order: List[str] = []
        for node in nodes:
            if node.name not in groups:
                groups[node.name] = []
                order.append(node.name)
            groups[node.name].append(node)
        for name in order:
            members = groups[name]
            if len(members) >= collapse_threshold:
                total = sum(n.duration for n in members)
                mean_ms = total / len(members) * 1000.0
                lines.append(
                    f"{indent}{name} x{len(members)}  "
                    f"total={total:.3f}s mean={mean_ms:.2f}ms"
                )
                merged: List[TraceNode] = []
                for member in members:
                    merged.extend(member.children)
                walk(merged, depth + 1)
            else:
                for node in members:
                    lines.append(
                        f"{indent}{node.name}  {node.duration:.3f}s"
                        f"{_fmt_attrs(node.attrs)}"
                    )
                    walk(node.children, depth + 1)

    walk(trace.roots, 0)
    return "\n".join(lines)


def aggregate_by_name(trace: LoadedTrace) -> List[Tuple[str, int, float]]:
    """(name, count, total_seconds) rows, slowest first."""
    totals: Dict[str, Tuple[int, float]] = {}
    for node in trace.spans.values():
        count, total = totals.get(node.name, (0, 0.0))
        totals[node.name] = (count + 1, total + node.duration)
    rows = [(name, c, t) for name, (c, t) in totals.items()]
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows


def summarize(trace: LoadedTrace) -> str:
    """The full ``repro obs`` output: tree, aggregates, event digest."""
    lines = [
        f"trace: {trace.span_count} spans, {len(trace.events)} events",
        "",
        "-- span tree --",
        render_tree(trace) or "(no spans)",
        "",
        "-- by span name --",
        f"{'name':<38} {'count':>8} {'total_s':>10} {'mean_ms':>10}",
    ]
    for name, count, total in aggregate_by_name(trace):
        lines.append(
            f"{name:<38} {count:>8} {total:>10.3f} "
            f"{total / count * 1000.0:>10.2f}"
        )
    event_counts: Dict[str, int] = {}
    for record in trace.events:
        event_counts[record.get("name", "?")] = (
            event_counts.get(record.get("name", "?"), 0) + 1
        )
    if event_counts:
        lines.append("")
        lines.append("-- events --")
        for name in sorted(event_counts):
            lines.append(f"{name:<38} {event_counts[name]:>8}")
    seeds = [
        record for record in trace.events
        if record.get("name") in ("rng.fork", "rng.stream", "rng.np_stream")
    ]
    if seeds:
        lines.append("")
        lines.append("-- rng seeds (replay these to reproduce the run) --")
        for record in seeds[:40]:
            fields = record.get("fields", {})
            lines.append(
                f"{record['name']:<14} {str(fields.get('name', '?')):<28} "
                f"seed={fields.get('seed')}"
            )
        if len(seeds) > 40:
            lines.append(f"... and {len(seeds) - 40} more")
    return "\n".join(lines)
