"""The on-disk run registry and the per-invocation recorder.

Layout (under the runs root, default ``./runs``, overridable with
``--runs-dir`` or the ``REPRO_RUNS_DIR`` environment variable)::

    runs/
      <run-id>/
        manifest.json     # RunManifest document
        evidence.json     # EvidenceBundle document (when collected)
        trace.jsonl       # the run's event log: the --trace span trace,
                          # then the live progress spool (either optional)

Because run ids are content-addressed, re-running an identical
configuration on the same revision lands on the same directory and
refreshes it in place -- the registry stores *distinct* runs, not a
log of invocations (the bench trajectory plays that role).

:class:`RunRecorder` is the CLI-facing half: construct it when a
command starts, feed it the simulation result and evidence as they
appear, and :meth:`~RunRecorder.finalize` writes the manifest.  All
wall-clock reads flow through the injected ``clock`` so the module
stays DET003-clean by construction, not by suppression.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.runstore.manifest import (
    ManifestError,
    RunManifest,
    canonical_json,
    manifest_from_dict,
)

if TYPE_CHECKING:
    from repro.obs.runstore.evidence import EvidenceBundle

#: Default registry root, relative to the working directory.
DEFAULT_RUNS_DIR = "runs"

#: Environment override for the registry root (tests point it at tmp).
ENV_RUNS_DIR = "REPRO_RUNS_DIR"

MANIFEST_FILE = "manifest.json"
EVIDENCE_FILE = "evidence.json"
TRACE_FILE = "trace.jsonl"
ALERTS_FILE = "alerts.jsonl"


class RunStoreError(RuntimeError):
    """A registry operation failed (missing run, ambiguous prefix ...)."""


def resolve_runs_dir(explicit: Optional[Union[str, Path]] = None) -> Path:
    """The registry root: explicit flag > $REPRO_RUNS_DIR > ./runs."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_RUNS_DIR)
    if env:
        return Path(env)
    return Path(DEFAULT_RUNS_DIR)


def _write_json_atomic(path: Path, payload: Any) -> None:
    """Write JSON via a sibling temp file + rename (no torn documents)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


def serialize_alerts(lines: List[Dict[str, Any]]) -> bytes:
    """Canonical ``alerts.jsonl`` bytes: one canonical-JSON line each.

    The same function serves writing and the ``repro detect``
    digest-reproduction check, so "bit-identical alert stream" means
    exactly these bytes.
    """
    return "".join(
        canonical_json(line) + "\n" for line in lines
    ).encode("utf-8")


def _git_revision() -> Optional[str]:
    """The current git commit hash, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


class RunStore:
    """Read/write access to one registry root."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- writing -------------------------------------------------------------

    def run_dir(self, run_id: str) -> Path:
        """The directory backing ``run_id`` (not necessarily existing)."""
        return self.root / run_id

    def write(
        self,
        manifest: RunManifest,
        evidence: Optional[EvidenceBundle] = None,
        trace_path: Optional[Union[str, Path]] = None,
        spool_path: Optional[Union[str, Path]] = None,
        alerts: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist a run; returns its directory.

        The run's one event log, ``trace.jsonl``, is the ``--trace``
        file at ``trace_path`` (if any) followed by the live-telemetry
        spool at ``spool_path`` (if non-empty), which was written during
        the run because run ids are content-addressed over the dataset
        digest, so the destination directory is only known now.
        ``repro obs`` and ``runs show --timeline`` both replay it.

        ``alerts`` is an :meth:`OnlineDetector.export` document
        (``lines`` + ``summary``); the lines are serialized canonically
        into ``alerts.jsonl`` and the stream's SHA-256 lands in
        ``manifest.alerts_summary["digest"]`` -- the number ``runs
        check`` and CI hold bit-identical across worker counts.
        """
        run_dir = self.run_dir(manifest.run_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        if evidence is not None:
            _write_json_atomic(run_dir / EVIDENCE_FILE, evidence.to_dict())
        logs = [
            path for path in (trace_path, spool_path)
            if path is not None and os.path.isfile(path)
            and os.path.getsize(path) > 0
        ]
        if logs:
            with open(run_dir / TRACE_FILE, "wb") as out:
                for path in logs:
                    with open(path, "rb") as source:
                        shutil.copyfileobj(source, out)
            manifest.trace_file = TRACE_FILE
        if alerts is not None:
            body = serialize_alerts(alerts.get("lines") or [])
            (run_dir / ALERTS_FILE).write_bytes(body)
            manifest.alerts_file = ALERTS_FILE
            manifest.alerts_summary = {
                **(alerts.get("summary") or {}),
                "digest": hashlib.sha256(body).hexdigest(),
            }
        _write_json_atomic(run_dir / MANIFEST_FILE, manifest.to_dict())
        return run_dir

    # -- reading -------------------------------------------------------------

    def run_ids(self) -> List[str]:
        """All run ids present, sorted lexicographically."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and (p / MANIFEST_FILE).is_file()
        )

    def resolve(self, ref: str) -> str:
        """Resolve ``ref`` (full id, unique prefix, or ``latest``)."""
        ids = self.run_ids()
        if not ids:
            raise RunStoreError(f"no runs recorded under {self.root}")
        if ref == "latest":
            manifests = [self.load(run_id) for run_id in ids]
            manifests.sort(key=lambda m: (m.created_unix, m.run_id))
            return manifests[-1].run_id
        matches = [run_id for run_id in ids if run_id.startswith(ref)]
        if not matches:
            raise RunStoreError(
                f"no run matching {ref!r} under {self.root} "
                f"(have: {', '.join(ids)})"
            )
        if len(matches) > 1:
            raise RunStoreError(
                f"ambiguous run ref {ref!r}: matches {', '.join(matches)}"
            )
        return matches[0]

    def load(self, ref: str) -> RunManifest:
        """Load the manifest for ``ref`` (id, unique prefix, ``latest``)."""
        run_id = ref if (self.root / ref / MANIFEST_FILE).is_file() else self.resolve(ref)
        path = self.root / run_id / MANIFEST_FILE
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RunStoreError(f"cannot read {path}: {exc}")
        try:
            return manifest_from_dict(document)
        except ManifestError as exc:
            raise RunStoreError(f"{path}: {exc}")

    def load_evidence(self, ref: str) -> Optional[EvidenceBundle]:
        """The evidence bundle for ``ref``, or None if none was stored."""
        run_id = self.resolve(ref)
        path = self.root / run_id / EVIDENCE_FILE
        if not path.is_file():
            return None
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RunStoreError(f"cannot read {path}: {exc}")
        from repro.obs.runstore.evidence import EvidenceBundle

        return EvidenceBundle.from_dict(document)

    def list_manifests(self) -> List[RunManifest]:
        """Every manifest, oldest first."""
        manifests = [self.load(run_id) for run_id in self.run_ids()]
        manifests.sort(key=lambda m: (m.created_unix, m.run_id))
        return manifests


def run_summary(manifest: RunManifest) -> Dict[str, Any]:
    """One run's machine-readable listing record.

    The single serializer behind both ``repro runs list --json`` and the
    daemon's ``/runs`` endpoint, so the two surfaces can never drift.
    Summarizes rather than dumps: the full manifest stays one
    ``runs show`` away.
    """
    config = manifest.config
    return {
        "run_id": manifest.run_id,
        "schema": manifest.schema,
        "command": manifest.command,
        "engine": manifest.engine,
        "config": {
            "hours": config.get("hours"),
            "per_hour": config.get("per_hour"),
            "seed": config.get("seed"),
            "workers": config.get("workers"),
            "fault": config.get("fault"),
        },
        "git_rev": manifest.git_rev,
        "created_unix": manifest.created_unix,
        "dataset_digest": manifest.dataset.get("digest"),
        "alerts": {
            "count": manifest.alerts_summary.get("count"),
            "digest": manifest.alerts_summary.get("digest"),
        } if manifest.alerts_summary else None,
        "wall_seconds": manifest.timings.get("wall_seconds"),
    }


def runs_index(store: "RunStore") -> Dict[str, Any]:
    """The registry as one JSON document (oldest run first)."""
    runs = [run_summary(m) for m in store.list_manifests()]
    return {
        "runs_dir": str(store.root),
        "count": len(runs),
        "runs": runs,
    }


class RunRecorder:
    """Accumulates one invocation's facts and writes them on finalize.

    The recorder is deliberately forgiving: a registry that cannot be
    written must never fail the run it is recording, so callers wrap
    :meth:`finalize` and downgrade errors to a warning.
    """

    def __init__(
        self,
        command: str,
        argv: List[str],
        config: Dict[str, Any],
        runs_dir: Optional[Union[str, Path]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.command = command
        self.argv = list(argv)
        self.config = dict(config)
        self.store = RunStore(resolve_runs_dir(runs_dir))
        self._clock = clock
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        self.engine: Optional[str] = None
        self.dataset_info: Dict[str, Any] = {}
        self.evidence: Optional[EvidenceBundle] = None
        self.worker_cpu_seconds: Optional[float] = None

    def record_result(self, result: Any) -> None:
        """Capture dataset identity from a ``SimulationResult``."""
        from repro.core.dataset import fingerprint_sha256

        dataset = getattr(result, "dataset", result)
        provenance = dict(getattr(dataset, "provenance", {}) or {})
        self.engine = provenance.get("engine")
        workers = provenance.get("workers")
        if workers is not None:
            self.config["workers"] = workers
        self.dataset_info = {
            "digest": dataset.digest(),
            "fingerprint_sha256": fingerprint_sha256(dataset.world),
            "provenance": provenance,
        }

    def record_evidence(self, bundle: EvidenceBundle) -> None:
        """Attach the attribution evidence collected for this run."""
        self.evidence = bundle

    def finalize(
        self,
        registry: MetricsRegistry,
        trace_path: Optional[Union[str, Path]] = None,
        spool_path: Optional[Union[str, Path]] = None,
        alerts: Optional[Dict[str, Any]] = None,
    ) -> RunManifest:
        """Build the manifest, write the run directory, return the manifest."""
        timings = {
            "wall_seconds": time.perf_counter() - self._wall_start,
            "cpu_seconds": time.process_time() - self._cpu_start,
        }
        if self.worker_cpu_seconds is not None:
            timings["worker_cpu_seconds"] = self.worker_cpu_seconds
        evidence_digest = None
        evidence_summary: Dict[str, Any] = {}
        if self.evidence is not None:
            evidence_digest = self.evidence.digest()
            evidence_summary = self.evidence.summary()
        manifest = RunManifest(
            run_id="",
            command=self.command,
            argv=self.argv,
            config=self.config,
            engine=self.engine,
            git_rev=_git_revision(),
            created_unix=self._clock(),
            timings=timings,
            metrics=registry.dump_state(),
            dataset=self.dataset_info,
            evidence_digest=evidence_digest,
            evidence_summary=evidence_summary,
        ).seal()
        self.store.write(
            manifest, evidence=self.evidence, trace_path=trace_path,
            spool_path=spool_path, alerts=alerts,
        )
        return manifest
