"""Run manifests: the durable, content-addressed record of one run.

A :class:`RunManifest` is everything ``repro runs`` needs to render,
diff, or regression-gate an invocation after the process is gone: the
CLI arguments and simulation configuration, the master seed, the engine
and worker count, wall/CPU timings, a full
:meth:`~repro.obs.metrics.MetricsRegistry.dump_state` snapshot, the
dataset digest + world-fingerprint hash, the git revision, and a digest
of the attribution evidence stored alongside it.

**Identity.** The run id is content-addressed: a SHA-256 (truncated to
:data:`RUN_ID_LENGTH` hex chars) over the canonical JSON of the fields
that *define* the run -- command, configuration, engine, worker count,
dataset digest, evidence digest, git revision.  Re-running the same
configuration on the same tree lands on the same id and refreshes the
record in place; anything that changes what was computed (seed, worker
count, code revision) produces a new id.  Volatile fields (timestamps,
timings, metric values) are deliberately excluded so identity never
depends on machine speed.

**Compatibility rule.** ``schema`` is ``"repro.run-manifest/<major>"``.
Within a major version fields are only ever *added*; readers must
ignore unknown fields (this module's :func:`manifest_from_dict` does).
A breaking change bumps the major, and readers refuse newer majors with
a clear error instead of misinterpreting them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Manifest schema identifier; bump the major on breaking changes only.
SCHEMA = "repro.run-manifest/1"

#: Hex chars of SHA-256 kept as the run id (12 gives 48 bits -- ample
#: for a per-repository registry while staying typeable).
RUN_ID_LENGTH = 12


class ManifestError(ValueError):
    """A manifest could not be parsed or belongs to a newer schema."""


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def schema_major(schema: str) -> int:
    """The major version of a ``name/<major>`` schema string."""
    _, _, major = schema.rpartition("/")
    try:
        return int(major)
    except ValueError:
        raise ManifestError(f"unversioned schema identifier {schema!r}")


def check_schema(schema: str, expected: str) -> None:
    """Refuse newer majors; accept this and older majors of ``expected``."""
    name, _, _ = expected.rpartition("/")
    if not schema.startswith(name + "/"):
        raise ManifestError(
            f"schema {schema!r} is not a {name!r} document"
        )
    if schema_major(schema) > schema_major(expected):
        raise ManifestError(
            f"document schema {schema!r} is newer than this reader "
            f"({expected}); upgrade repro to read it"
        )


def compute_run_id(identity: Dict[str, Any]) -> str:
    """Content-address an identity payload into a run id."""
    digest = hashlib.sha256(canonical_json(identity).encode("utf-8"))
    return digest.hexdigest()[:RUN_ID_LENGTH]


@dataclass
class RunManifest:
    """One recorded ``repro`` invocation (see module docstring)."""

    run_id: str
    command: str
    argv: List[str]
    #: Simulation configuration: hours, per_hour, seed, workers
    #: requested and resolved.
    config: Dict[str, Any]
    engine: Optional[str] = None
    git_rev: Optional[str] = None
    created_unix: float = 0.0
    #: wall_seconds / cpu_seconds for the whole command; worker CPU when
    #: the parallel engine reported it.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Full MetricsRegistry.dump_state() snapshot.
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    #: digest / fingerprint_sha256 / provenance of the dataset.
    dataset: Dict[str, Any] = field(default_factory=dict)
    #: Digest of the evidence document stored next to the manifest, and
    #: a small summary for listings (thresholds, flagged counts).
    evidence_digest: Optional[str] = None
    evidence_summary: Dict[str, Any] = field(default_factory=dict)
    #: Name of the run's one event log in the run directory, if any:
    #: the ``--trace`` spans and events, then the live progress events
    #: (``repro obs`` and ``repro runs show --timeline`` replay it).
    trace_file: Optional[str] = None
    #: Legacy and read only: the flat progress log of a run recorded
    #: before progress events joined ``trace_file``.  New runs leave it
    #: None; ``runs show --timeline`` still replays an old one.
    events_file: Optional[str] = None
    #: Name of the persisted online alert stream (``repro runs show
    #: --alerts`` replays it), if any.
    alerts_file: Optional[str] = None
    #: Small summary of the alert stream for listings and the
    #: ``runs check`` gate: count, per-rule counts, the stream digest.
    alerts_summary: Dict[str, Any] = field(default_factory=dict)
    schema: str = SCHEMA

    # -- identity ------------------------------------------------------------

    def identity(self) -> Dict[str, Any]:
        """The content-addressed part of the manifest."""
        return {
            "schema": self.schema,
            "command": self.command,
            "config": self.config,
            "engine": self.engine,
            "git_rev": self.git_rev,
            "dataset_digest": self.dataset.get("digest"),
            "evidence_digest": self.evidence_digest,
        }

    def seal(self) -> "RunManifest":
        """Recompute ``run_id`` from the identity fields."""
        self.run_id = compute_run_id(self.identity())
        return self

    # -- convenience accessors ----------------------------------------------

    def metric_value(
        self, kind: str, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[float]:
        """Scalar value of one counter/gauge in the snapshot, or None."""
        wanted = sorted((k, str(v)) for k, v in (labels or {}).items())
        for record in self.metrics:
            if record.get("kind") != kind or record.get("name") != name:
                continue
            have = sorted(
                (str(k), str(v)) for k, v in (record.get("labels") or ())
            )
            if have == wanted:
                value = record.get("value")
                return float(value) if value is not None else None
        return None

    def serve_provenance(self) -> Dict[str, Any]:
        """The serve-daemon block under ``dataset.provenance.serve``.

        Serve runs record their chunk progress there (committed /
        resumed hours, ``completed``, ``indefinite``, retention policy,
        pruned hours, and the chain -- the dataset digest so far -- as
        ``chain`` and ``rolling_digest``).  Empty dict for batch runs, so
        callers can render conditionally without schema sniffing.
        """
        provenance = self.dataset.get("provenance")
        if not isinstance(provenance, dict):
            return {}
        serve = provenance.get("serve")
        return dict(serve) if isinstance(serve, dict) else {}

    def stage_seconds(self) -> Dict[str, float]:
        """``{stage: seconds}`` from the ``stage_seconds_total`` counters."""
        out: Dict[str, float] = {}
        for record in self.metrics:
            if (
                record.get("kind") != "counter"
                or record.get("name") != "stage_seconds_total"
            ):
                continue
            labels = dict(
                (str(k), str(v)) for k, v in (record.get("labels") or ())
            )
            stage = labels.get("stage")
            if stage is not None:
                out[stage] = float(record.get("value", 0.0))
        return out

    def simulate_seconds(self) -> Optional[float]:
        """Wall seconds of the ``simulate.month`` stage, if recorded."""
        return self.stage_seconds().get("simulate.month")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The JSON document written to ``manifest.json``."""
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "command": self.command,
            "argv": list(self.argv),
            "config": dict(self.config),
            "engine": self.engine,
            "git_rev": self.git_rev,
            "created_unix": self.created_unix,
            "timings": dict(self.timings),
            "metrics": list(self.metrics),
            "dataset": dict(self.dataset),
            "evidence_digest": self.evidence_digest,
            "evidence_summary": dict(self.evidence_summary),
            "trace_file": self.trace_file,
            "events_file": self.events_file,
            "alerts_file": self.alerts_file,
            "alerts_summary": dict(self.alerts_summary),
        }


#: Fields copied verbatim from a manifest document; everything else in
#: the document is ignored (the additive-within-a-major rule).
_KNOWN_FIELDS = (
    "run_id", "command", "argv", "config", "engine", "git_rev",
    "created_unix", "timings", "metrics", "dataset", "evidence_digest",
    "evidence_summary", "trace_file", "events_file", "alerts_file",
    "alerts_summary", "schema",
)


def manifest_from_dict(document: Dict[str, Any]) -> RunManifest:
    """Parse a manifest document, tolerating unknown (newer) fields."""
    if not isinstance(document, dict):
        raise ManifestError("manifest document is not a JSON object")
    schema = document.get("schema")
    if not isinstance(schema, str):
        raise ManifestError("manifest document carries no schema field")
    check_schema(schema, SCHEMA)
    known = {k: document[k] for k in _KNOWN_FIELDS if k in document}
    try:
        return RunManifest(**known)
    except TypeError as exc:
        raise ManifestError(f"malformed manifest: {exc}")


def config_key(config: Dict[str, Any]) -> Tuple:
    """The comparable simulation identity of a config (baseline matching).

    ``fault`` is the planted-fault spec (``--fault``); absent and None
    compare equal, so legacy entries keep matching un-faulted runs.
    """
    return (
        config.get("hours"), config.get("per_hour"), config.get("seed"),
        config.get("fault"),
    )
