"""Post-run detection-quality scoring: ``repro detect RUN``.

Rebuilds a recorded run's dataset from its recorded plan (hours,
per-hour rate, seed, planted fault), checks it against the manifest's
dataset digest, folds it through a fresh
:class:`~repro.obs.online.detector.OnlineDetector` -- the same
:meth:`~repro.obs.online.detector.OnlineDetector.fold_block` feed the
run itself used -- and scores the online pipeline against the batch
analysis of the same dataset:

* **episode precision / recall** -- the online end-of-run episode cells
  (entity-hours flagged under the final online threshold) against the
  batch :func:`repro.core.episodes.episode_matrix` under
  :func:`~repro.core.episodes.detect_knee`.  These are 1.0 / 1.0 by
  construction (shared knee code, identical rates) -- scoring them is
  the regression trap that keeps it that way;
* **blame agreement** -- the online running buckets against the batch
  Table 5 classification, :func:`repro.core.blame.run_blame_analysis`
  at the paper's f = 5% (no pair exclusion on either side: an online
  observer cannot know which pairs will prove permanent);
* **detection latency** -- the onset-to-alert gap distribution of the
  hysteresis detector, the number the planted-fault SLO bounds;
* **digest reproduction** -- re-exporting the replayed alert stream
  must land on the byte digest recorded in the run manifest.

The verdict is appended to the committed bench trajectory as a
``detect`` entry (carrying the alert count + digest so ``repro runs
check`` gains an alert-stream baseline), and the CLI exits non-zero on
any mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.blame import run_blame_analysis
from repro.core.episodes import (
    client_rate_matrix,
    detect_knee,
    episode_matrix,
    server_rate_matrix,
)
from repro.obs.online.detector import BLAME_THRESHOLD, OnlineDetector
from repro.obs.online.rules import RuleError, rules_from_dicts
from repro.obs.runstore.manifest import RunManifest
from repro.obs.runstore.store import ALERTS_FILE, serialize_alerts


class DetectError(RuntimeError):
    """The run cannot be scored (no alert stream, digest drift...)."""


@dataclass
class DetectReport:
    """Everything ``repro detect`` renders and gates on."""

    run_id: str
    hours: int
    #: Per-side episode-set agreement online vs batch.
    episode_cells: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Online vs batch blame buckets at f = 5%.
    blame_online: Dict[str, int] = field(default_factory=dict)
    blame_batch: Dict[str, int] = field(default_factory=dict)
    #: Final thresholds, per side: online knee vs batch knee.
    thresholds: Dict[str, Dict[str, float]] = field(default_factory=dict)
    latency: Dict[str, Any] = field(default_factory=dict)
    alert_count: int = 0
    alerts_by_rule: Dict[str, int] = field(default_factory=dict)
    #: Replayed-stream digest and whether it matches the manifest's.
    digest: Optional[str] = None
    digest_recorded: Optional[str] = None

    @property
    def blame_match(self) -> bool:
        """True when online and batch bucket counts agree exactly."""
        return self.blame_online == self.blame_batch

    @property
    def digest_match(self) -> Optional[bool]:
        """True/False vs the recorded digest; None when none recorded."""
        if self.digest_recorded is None:
            return None
        return self.digest == self.digest_recorded

    @property
    def ok(self) -> bool:
        """The gate: exact episode sets, exact blame, digest reproduced."""
        for side_scores in self.episode_cells.values():
            if side_scores["precision"] != 1.0 or side_scores["recall"] != 1.0:
                return False
        if not self.blame_match:
            return False
        if self.digest_match is False:
            return False
        return True

    def trajectory_entry(self, config: Dict[str, Any]) -> Dict[str, Any]:
        """The ``detect`` bench observation appended to the trajectory."""
        return {
            "bench": "detect",
            "config": dict(config),
            "run_id": self.run_id,
            "alerts": {"count": self.alert_count, "digest": self.digest},
            "detect": {
                "episode_cells": self.episode_cells,
                "blame_match": self.blame_match,
                "latency": self.latency,
                "ok": self.ok,
            },
        }


def _read_events(path: Path) -> List[Dict[str, Any]]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DetectError(f"cannot read {path}: {exc}")
    events: List[Dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # tolerate a torn tail line
        if isinstance(record, dict):
            events.append(record)
    return events


def _rules_from_run(run_dir: Path) -> Optional[List[Any]]:
    """The rules the original run alerted with (its ``alerts.jsonl``
    header), so the replay fires the same alerts; None when the run
    predates alert persistence (defaults apply)."""
    path = run_dir / ALERTS_FILE
    if not path.is_file():
        return None
    for record in _read_events(path):
        if record.get("type") == "header":
            try:
                return rules_from_dicts(record.get("rules") or [])
            except RuleError as exc:
                raise DetectError(f"{path}: bad rules header: {exc}")
    return None


def _cell_scores(
    online: Set[Tuple[int, int]], batch: Set[Tuple[int, int]]
) -> Dict[str, float]:
    true_positive = len(online & batch)
    precision = true_positive / len(online) if online else 1.0
    recall = true_positive / len(batch) if batch else 1.0
    return {
        "online": len(online),
        "batch": len(batch),
        "precision": precision,
        "recall": recall,
    }


def run_detect(run_dir: Path, manifest: RunManifest) -> DetectReport:
    """Score one recorded run's online detection against batch."""
    # The serve layer re-simulates the plan: obs may not import the
    # world that simulates it.
    from repro.serve.daemon import plan_simulator

    if not (run_dir / ALERTS_FILE).is_file():
        raise DetectError(
            f"{manifest.run_id}: no {ALERTS_FILE} in {run_dir} -- record "
            "the run with --detect (or --alert-rules) first"
        )
    recorded = manifest.dataset.get("digest")
    if recorded is None:
        raise DetectError(
            f"{manifest.run_id}: no dataset digest recorded -- the run "
            "never reached its horizon"
        )
    try:
        dataset = plan_simulator(manifest.config).run().dataset
    except (KeyError, TypeError, ValueError) as exc:
        raise DetectError(
            f"{manifest.run_id}: cannot rebuild the dataset from its "
            f"recorded plan {manifest.config}: {exc}"
        )
    rebuilt = dataset.digest()
    if rebuilt != recorded:
        raise DetectError(
            f"{manifest.run_id}: the rebuilt dataset digests to {rebuilt}, "
            f"the manifest records {recorded} -- the code no longer "
            "reproduces this run"
        )

    world = dataset.world
    detector = OnlineDetector(rules=_rules_from_run(run_dir))
    detector.update(
        {"type": "run_start", "hours": world.hours, **world.roster()}
    )
    detector.fold_block(dataset.arrays(), 0)
    report = DetectReport(run_id=manifest.run_id, hours=world.hours)

    for side, matrix in (
        ("client", client_rate_matrix(dataset)),
        ("server", server_rate_matrix(dataset)),
    ):
        batch_knee = detect_knee(matrix)
        report.thresholds[side] = {
            "online": detector.final_threshold(side), "batch": batch_knee,
        }
        batch_flags = episode_matrix(matrix, batch_knee)
        batch_cells = {
            (int(i), int(h)) for i, h in zip(*np.nonzero(batch_flags))
        }
        report.episode_cells[side] = _cell_scores(
            detector.final_flags(side), batch_cells
        )

    batch = run_blame_analysis(dataset, BLAME_THRESHOLD).breakdown
    report.blame_online = dict(sorted(detector.blame.items()))
    report.blame_batch = {
        "both": batch.both, "client": batch.client_side,
        "other": batch.other, "server": batch.server_side,
    }

    snap = detector.snapshot()
    report.latency = snap["detection_latency_hours"]
    report.alert_count = snap["alert_count"]
    report.alerts_by_rule = snap["alerts_by_rule"]

    exported = detector.export()
    report.digest = hashlib.sha256(
        serialize_alerts(exported["lines"])
    ).hexdigest()
    report.digest_recorded = (manifest.alerts_summary or {}).get("digest")
    return report


def render_report(report: DetectReport) -> str:
    """Human-readable ``repro detect`` output."""
    lines: List[str] = []
    lines.append(
        f"detection quality for run {report.run_id} "
        f"({report.hours} hours)"
    )
    lines.append("")
    lines.append("-- episode sets (online final vs batch) --")
    for side in ("client", "server"):
        scores = report.episode_cells.get(side)
        if scores is None:
            continue
        thresholds = report.thresholds.get(side, {})
        lines.append(
            f"{side:<7} precision={scores['precision']:.3f} "
            f"recall={scores['recall']:.3f} "
            f"(online {scores['online']} cells, batch {scores['batch']}; "
            f"f_online={thresholds.get('online', 0):.4f} "
            f"f_batch={thresholds.get('batch', 0):.4f})"
        )
    lines.append("")
    lines.append(f"-- blame at f={BLAME_THRESHOLD:.0%} (online vs batch) --")
    for bucket in ("server", "client", "both", "other"):
        a = report.blame_online.get(bucket, 0)
        b = report.blame_batch.get(bucket, 0)
        marker = "" if a == b else "   <-- MISMATCH"
        lines.append(f"{bucket:<7} {a:>10} vs {b:>10}{marker}")
    lines.append("")
    latency = report.latency or {}
    if latency.get("count"):
        lines.append(
            f"detection latency (hours): mean={latency['mean']:.2f} "
            f"p50={latency['p50']} max={latency['max']} "
            f"over {latency['count']} episodes"
        )
    else:
        lines.append("detection latency: no episodes opened")
    lines.append(
        f"alerts fired: {report.alert_count} "
        + (
            "(" + ", ".join(
                f"{rule}={count}"
                for rule, count in sorted(report.alerts_by_rule.items())
            ) + ")"
            if report.alerts_by_rule else ""
        )
    )
    if report.digest_match is None:
        lines.append(f"alert digest: {report.digest} (none recorded to compare)")
    elif report.digest_match:
        lines.append(f"alert digest: reproduced ({report.digest[:16]}...)")
    else:
        lines.append("alert digest: MISMATCH")
        lines.append(f"  recorded: {report.digest_recorded}")
        lines.append(f"  replayed: {report.digest}")
    lines.append("")
    lines.append("PASS" if report.ok else "FAIL")
    return "\n".join(lines)
