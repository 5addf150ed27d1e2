"""Chunk-granular dataset commits: the service daemon's durability unit.

``repro serve`` simulates sim-time in chunks of N hours and must be
killable at any moment without losing committed work or (worse)
resuming into a subtly different dataset.  :class:`ChunkStore` provides
that guarantee under ``runs/<run-id>/chunks/``::

    runs/<run-id>/chunks/
      chunks.json               # ChunkStore manifest (schema below)
      chunk-0000-0006.npz       # count arrays for hours [0, 6)
      chunk-0006-0012.npz       # ...
      checkpoint.json           # retention only: the fold state's remainder
      log/                      # retention only: the checkpoint log

The manifest is the source of truth.  Each commit first writes the
chunk ``.npz`` via a sibling temp file + rename, then appends a chunk
entry to the manifest (also atomically) -- a crash between the two
leaves an orphan ``.npz`` the next resume simply overwrites, never a
manifest entry pointing at missing or torn data.

Integrity is the **dataset digest's hour chain**: every entry carries
the per-hour digests of its chunk (``hours``,
:meth:`MeasurementDataset.block_digest`) and the chain value after
linking them (``chain``, :func:`~repro.core.dataset.fold_block`),
seeded from the world fingerprint alone.  Replacing, reordering, or
truncating any committed hour breaks every later link, and the chain
value after the last chunk *is* the dataset digest of the committed
prefix -- at the horizon, bit-identical to a batch run's
:meth:`MeasurementDataset.digest` at any chunk size.  :meth:`replay`
recomputes every hour digest from the payload and relinks the chain
while a resume rebuilds its state.

Determinism: chunk files are ``.npz`` archives whose *bytes* are not
stable across runs (zip member timestamps); the chain digests array
*contents*, which are -- a resumed run therefore reproduces the
uninterrupted run's chain bit for bit.

Payload format: each field is stored, not deflated (``ZIP_STORED``), at
the narrowest unsigned dtype that holds its maximum
(:func:`narrowest`), because the commit is paid once per chunk for as
long as the daemon runs, on the parent's side of the one-chunk-ahead
loop.  At ``--per-hour 4`` all fields but ``replica_connections`` (and
at times ``replica_failed_connections``) fit in ``uint8``.  On a 2-CPU
VM one 6-hour chunk of 1.68 MB of planned-dtype counts writes in
~3 ms as 0.84 MB, where zlib level 1 took ~11 ms for 125 KB.  The
disk cost is ~6.7x: ``--retain-hours`` bounds it, and the 336-hour
paper plan without retention keeps ~47 MB of payloads (~7 MB before).
The hour digests copy every field to ``int64`` (dtype-blind), so the
chain is unchanged, and every reader (replay, the detector fold,
``repro slo``) accumulates in ``int64`` at any stored dtype.  The archive
layout is the ``np.savez`` one -- one ``<field>.npy`` member per array
-- so ``np.load`` reads payloads of any older build (deflated at level
1 or 6, planned dtypes) as before.

**Retention** (``repro serve --retain-hours N``): :meth:`prune_payloads`
deletes old chunk ``.npz`` payloads while keeping their manifest
entries -- marked ``"pruned": true`` -- so the chain stays fully
verifiable from the stored hour digests even though the bytes are
gone.  A resume can no longer replay pruned hours, so the daemon
keeps a **checkpoint record** (:meth:`write_checkpoint`): the fold
state (detector, history, SLO ledger) as of a chunk boundary, pinned
to that boundary's chain value.  Readers restore it and replay the
chunks past it, so the daemon rewrites it only when a prune would
otherwise delete a payload past it -- when the prune floor passes the
checkpoint's hour -- not after every chunk.  :meth:`load_checkpoint` refuses a record whose ``(hour,
chain)`` pin does not match the manifest, and ``replay(start_hour=...)``
relinks *every* entry (pruned ones from their stored ``hours``) while
yielding only the still-payloaded chunks past the checkpoint.

**The checkpoint log** keeps a checkpoint's cost at what changed since
the previous one.  Fold records that can no longer change (completed
history cells, closed episodes, fired alerts) are appended once, per
*stream*, to segment files under ``chunks/log/``::

    chunks/log/cells.hour-00000000-00000053.jsonl   # <stream>-<start>-<stop>
    chunks/log/alerts-00000000-00000012.jsonl       # records [start, stop)

and ``checkpoint.json`` holds only the mutable remainder plus, under
``"log"``, each stream's record count it covers.  A write appends the
new segments (temp + rename) *before* the checkpoint's rename, and
deletes segments that hold only records below a stream's ``floor``
(history cells evicted from their ring) *after* it -- so every
checkpoint on disk finds every record it covers.  :meth:`read_log`
reads each stream back to the covered count, walking segments
backwards from it; a segment past the count (appended by a write
whose rename never happened) is a torn tail and is ignored, and the
next write deletes it.

Numbers the fold keeps as numpy vectors (the detector's windowed hour
rates, the history cells' per-entity fields) are written as *array
leaves*, ``{"__ndarray__": {"dtype", "shape", "data"}}`` with ``data``
the exact little-endian bytes in base64, both in ``checkpoint.json``
and in the ``cells.*`` segments (:func:`dumps_record`,
:func:`loads_record`): no float is ever printed as decimal text, and
NaN bits round-trip.  Alerts and episodes stay JSON text.  A ``/2``
checkpoint (number text, segments of text cells) and a ``/1`` one
(every record inline, no ``"log"``) still resume.
"""

from __future__ import annotations

import base64
import json
import os
import zipfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.dataset import MeasurementDataset, chain_seed, fold_block
from repro.obs.runstore.manifest import check_schema, schema_major
from repro.obs.runstore.store import RunStoreError

#: Chunk-manifest schema; additive within the major (see manifest.py).
#: Major 2 chains per hour (the dataset digest); major 1 chained per
#: chunk from a config-seeded chain and is refused.
CHUNKS_SCHEMA = "repro.serve-chunks/2"

#: Directory (under the run directory) holding chunk checkpoints.
CHUNKS_DIR = "chunks"

#: The chunk manifest file name.
CHUNKS_MANIFEST = "chunks.json"

#: The retention checkpoint record (sibling of the chunk manifest).
CHECKPOINT_FILE = "checkpoint.json"

#: Checkpoint-record schema; additive within the major.  Major 3
#: writes numeric vectors as base64 array leaves (an older reader
#: cannot restore them, so it refuses it); major 2 keeps immutable
#: records in the checkpoint log; major 1 records carry every record
#: inline.  Majors 1 and 2 still resume.
CHECKPOINT_SCHEMA = "repro.serve-checkpoint/3"

#: Directory (under the chunks directory) of the checkpoint log.
LOG_DIR = "log"

#: The key that marks an array leaf in a checkpoint record or segment.
ARRAY_LEAF = "__ndarray__"

#: The dtypes a payload field may be narrowed to, narrowest first.
_PAYLOAD_DTYPES = (np.uint8, np.uint16, np.uint32)


class ChunkStoreError(RunStoreError):
    """A chunk commit, load, or verification failed."""


def _chunk_filename(hour_start: int, hour_stop: int) -> str:
    return f"chunk-{hour_start:04d}-{hour_stop:04d}.npz"


def narrowest(array: np.ndarray) -> np.ndarray:
    """``array`` at the narrowest unsigned dtype holding its values.

    Counts are integers and never negative; an array that is not (or
    one too large for ``uint32``) keeps its dtype.  Returns ``array``
    itself when its dtype is already that narrow.
    """
    if (array.size == 0 or array.dtype.kind not in "ui"
            or array.min() < 0):
        return array
    top = int(array.max())
    for dtype in _PAYLOAD_DTYPES:
        if top <= np.iinfo(dtype).max:
            if np.dtype(dtype).itemsize < array.dtype.itemsize:
                return array.astype(dtype)
            break
    return array


def _write_payload(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` as a stored (not deflated) ``.npz``, each field
    at its :func:`narrowest` dtype: the ``np.savez`` layout, one
    ``<field>.npy`` member per array."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(
                    fh, narrowest(np.asanyarray(array)), allow_pickle=False
                )


def _array_leaf(value: Any) -> Dict[str, Any]:
    """``json.dumps`` ``default``: an ndarray as an array leaf."""
    if not isinstance(value, np.ndarray) or value.dtype.hasobject:
        raise TypeError(
            f"{type(value).__name__} is not JSON serializable"
        )
    little = value.astype(
        value.dtype.newbyteorder("<"), order="C", copy=False
    )
    return {ARRAY_LEAF: {
        "dtype": little.dtype.str,
        "shape": list(little.shape),
        "data": base64.b64encode(little.data).decode("ascii"),
    }}


def _from_leaf(obj: Dict[str, Any]) -> Any:
    """``json.loads`` ``object_hook``: an array leaf back as an ndarray."""
    leaf = obj.get(ARRAY_LEAF)
    if leaf is None:
        return obj
    try:
        data = bytearray(base64.b64decode(leaf["data"], validate=True))
        return np.frombuffer(data, dtype=np.dtype(leaf["dtype"])).reshape(
            leaf["shape"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed array leaf: {exc!r}") from None


#: One encoder for every record: ``json.dumps`` with any option builds
#: a new one per call, and a segment encodes a record per line.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, default=_array_leaf)


def dumps_record(record: Any) -> str:
    """Compact sorted JSON with every ndarray as an array leaf: exact
    little-endian bytes in base64 (see the module docstring)."""
    return _RECORD_ENCODER.encode(record)


def loads_record(text: str) -> Any:
    """Parse :func:`dumps_record` text, array leaves as ndarrays."""
    return json.loads(text, object_hook=_from_leaf)


class ChunkStore:
    """Read/write access to one run's incremental chunk commits."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.chunks_dir = self.run_dir / CHUNKS_DIR
        self.manifest_path = self.chunks_dir / CHUNKS_MANIFEST
        self._document: Optional[Dict[str, Any]] = None

    # -- manifest -------------------------------------------------------------

    def exists(self) -> bool:
        """Has this run ever committed (or initialized) chunks?"""
        return self.manifest_path.is_file()

    def initialize(
        self, config: Dict[str, Any], fingerprint_sha256: str,
        run_id: str = "",
    ) -> Dict[str, Any]:
        """Create a fresh, empty chunk manifest for this run.

        ``config`` is the full simulation configuration a resume needs
        to rebuild the world/truth/simulator identically (hours,
        per_hour, seed, fault, chunk_hours); ``fingerprint_sha256``
        pins the world roster so a resume against drifted world-building
        code fails loudly instead of attributing counts to the wrong
        entities.  The chain is seeded from the fingerprint alone --
        exactly as :meth:`MeasurementDataset.digest` seeds it -- so the
        chain is the dataset digest; the serve daemon refuses a resume
        whose configuration differs from the stored one.
        """
        document = {
            "schema": CHUNKS_SCHEMA,
            "run_id": run_id,
            "config": dict(config),
            "fingerprint_sha256": fingerprint_sha256,
            "chunks": [],
        }
        self.chunks_dir.mkdir(parents=True, exist_ok=True)
        self._write_manifest(document)
        self._document = document
        return document

    def load(self) -> Dict[str, Any]:
        """Read (and cache) the chunk manifest; validates the schema."""
        if self._document is not None:
            return self._document
        try:
            document = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ChunkStoreError(
                f"cannot read chunk manifest {self.manifest_path}: {exc}"
            )
        schema = document.get("schema")
        if not isinstance(schema, str):
            raise ChunkStoreError(
                f"{self.manifest_path}: missing schema field"
            )
        check_schema(schema, CHUNKS_SCHEMA)
        if schema_major(schema) < schema_major(CHUNKS_SCHEMA):
            raise ChunkStoreError(
                f"{self.manifest_path}: schema {schema} chains per chunk, "
                f"not per hour ({CHUNKS_SCHEMA}); its chunks cannot be "
                "verified or resumed -- discard them with --fresh"
            )
        self._document = document
        return document

    def _write_manifest(self, document: Dict[str, Any]) -> None:
        # Compact: CPython's C encoder only runs without ``indent``,
        # and every commit and prune rewrites the whole manifest.
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(document, sort_keys=True) + "\n")
        tmp.replace(self.manifest_path)

    # -- properties of the committed prefix -----------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """The committed chunk entries, in commit (== hour) order."""
        return list(self.load().get("chunks") or [])

    def config(self) -> Dict[str, Any]:
        """The simulation configuration the chunks were committed under."""
        return dict(self.load().get("config") or {})

    def committed_hours(self) -> int:
        """Hours committed so far (chunks are contiguous from hour 0)."""
        entries = self.entries()
        return int(entries[-1]["hour_stop"]) if entries else 0

    def _seed(self) -> str:
        """The chain value before any hour (seeded from the fingerprint)."""
        return chain_seed(str(self.load()["fingerprint_sha256"]))

    def chain_digest(self) -> str:
        """The chain value after the last committed chunk: the dataset
        digest of the committed hours."""
        entries = self.entries()
        if entries:
            return str(entries[-1]["chain"])
        return self._seed()

    # -- committing -----------------------------------------------------------

    def commit(
        self,
        hour_start: int,
        hour_stop: int,
        arrays: Dict[str, np.ndarray],
    ) -> Dict[str, Any]:
        """Durably commit one chunk's count arrays; returns its entry.

        Chunks must be committed contiguously: ``hour_start`` has to be
        exactly the committed-hours cursor.  The ``.npz`` lands first
        (temp + rename), the manifest entry second, so a kill between
        the two is invisible to the next resume.
        """
        document = self.load()
        cursor = self.committed_hours()
        if hour_start != cursor:
            raise ChunkStoreError(
                f"non-contiguous chunk commit: [{hour_start}, {hour_stop}) "
                f"but {cursor} hour(s) committed so far"
            )
        if hour_stop <= hour_start:
            raise ChunkStoreError(
                f"empty chunk commit [{hour_start}, {hour_stop})"
            )
        hours = MeasurementDataset.block_digest(arrays)
        filename = _chunk_filename(hour_start, hour_stop)
        path = self.chunks_dir / filename
        tmp = path.with_suffix(".npz.tmp")
        _write_payload(tmp, arrays)
        os.replace(tmp, path)
        entry = {
            "hour_start": int(hour_start),
            "hour_stop": int(hour_stop),
            "file": filename,
            "hours": hours,
            "chain": fold_block(self.chain_digest(), hours),
        }
        document.setdefault("chunks", []).append(entry)
        self._write_manifest(document)
        return entry

    # -- replaying ------------------------------------------------------------

    def replay(
        self, start_hour: int = 0
    ) -> Iterator[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]:
        """Yield ``(entry, arrays)`` per committed chunk, verifying as it goes.

        Every hour digest is recomputed from the chunk's payload and
        compared against the manifest, and the chain is relinked; any
        mismatch (bit rot, a chunk file swapped between runs, a
        truncated or edited manifest) raises :class:`ChunkStoreError`
        naming the offending chunk, before any corrupt counts can reach
        the caller.

        ``start_hour`` is the retention-resume cursor: chunks wholly
        before it are relinked from their *stored* hour digests (their
        payloads may have been pruned) but not loaded or yielded;
        chunks past it must still have payloads -- a pruned chunk there
        means the checkpoint is older than the pruning horizon, which
        :meth:`prune_payloads` never allows the daemon to produce, so
        it is reported as corruption rather than skipped.
        """
        chain = self._seed()
        cursor = 0
        for entry in self.entries():
            h0, h1 = int(entry["hour_start"]), int(entry["hour_stop"])
            if h0 != cursor or h1 <= h0:
                raise ChunkStoreError(
                    f"chunk manifest is not contiguous at [{h0}, {h1}) "
                    f"(expected hour_start {cursor})"
                )
            cursor = h1
            path = self.chunks_dir / str(entry["file"])
            stored = list(entry.get("hours") or [])
            if len(stored) != h1 - h0:
                raise ChunkStoreError(
                    f"chunk {path} lists {len(stored)} hour digest(s) "
                    f"for the {h1 - h0} hour(s) [{h0}, {h1})"
                )
            if h1 <= start_hour:
                # Behind the checkpoint: relink from the stored hour
                # digests (payload possibly pruned), skip the load.
                chain = self._link(path, chain, stored, entry)
                continue
            if entry.get("pruned"):
                raise ChunkStoreError(
                    f"chunk {path} covering [{h0}, {h1}) was "
                    "retention-pruned but is needed to rebuild state from "
                    f"hour {start_hour}; resume from the retention "
                    "checkpoint (or the payload was pruned incorrectly)"
                )
            try:
                with np.load(path) as data:
                    arrays = {name: data[name] for name in data.files}
                hours = MeasurementDataset.block_digest(arrays)
            except (OSError, ValueError) as exc:
                raise ChunkStoreError(f"cannot load chunk {path}: {exc}")
            if hours != stored:
                raise ChunkStoreError(
                    f"chunk {path} content digest mismatch: its payload "
                    "does not reproduce the manifest's hour digests"
                )
            chain = self._link(path, chain, hours, entry)
            yield entry, arrays

    @staticmethod
    def _link(
        path: Path, chain: str, hours: List[str], entry: Dict[str, Any]
    ) -> str:
        """Fold one entry's hour digests and check its stored chain."""
        chain = fold_block(chain, hours)
        if chain != entry.get("chain"):
            raise ChunkStoreError(
                f"chunk {path} breaks the digest chain: "
                f"manifest {entry.get('chain')}, recomputed {chain}"
            )
        return chain

    # -- retention --------------------------------------------------------------

    def prune_payloads(self, before_hour: int) -> int:
        """Delete payloads of chunks wholly before ``before_hour``.

        Manifest entries stay (marked ``"pruned": true``) so the digest
        chain remains verifiable end to end; only the ``.npz`` bytes
        go.  Returns the number of chunks newly pruned.  Idempotent --
        already-pruned entries are skipped -- and atomic in the same
        sense as :meth:`commit`: payloads are unlinked first, the
        manifest rewritten once at the end, so a crash mid-prune leaves
        at worst an entry whose missing payload the next prune (same
        ``before_hour`` policy) marks.
        """
        document = self.load()
        pruned = 0
        for entry in document.get("chunks") or []:
            if entry.get("pruned") or int(entry["hour_stop"]) > before_hour:
                continue
            path = self.chunks_dir / str(entry["file"])
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            except OSError as exc:
                raise ChunkStoreError(f"cannot prune chunk {path}: {exc}")
            entry["pruned"] = True
            pruned += 1
        if pruned:
            self._write_manifest(document)
        return pruned

    def pruned_hours(self) -> int:
        """Hours whose payloads have been pruned (prefix of the chain)."""
        last = 0
        for entry in self.entries():
            if entry.get("pruned"):
                last = int(entry["hour_stop"])
        return last

    def payload_files(self) -> List[str]:
        """Chunk payload files currently on disk (bounded-disk asserts)."""
        return sorted(
            p.name for p in self.chunks_dir.glob("chunk-*.npz")
        )

    def record_retention(self, retain_hours: int) -> None:
        """Persist the retention policy on the manifest (resume default)."""
        document = self.load()
        if document.get("retention", {}).get("retain_hours") == retain_hours:
            return
        document["retention"] = {"retain_hours": int(retain_hours)}
        self._write_manifest(document)

    def retention(self) -> Optional[Dict[str, Any]]:
        """The recorded retention policy, if any."""
        record = self.load().get("retention")
        return dict(record) if isinstance(record, dict) else None

    # -- the retention checkpoint ------------------------------------------------

    @property
    def checkpoint_path(self) -> Path:
        return self.chunks_dir / CHECKPOINT_FILE

    @property
    def log_dir(self) -> Path:
        return self.chunks_dir / LOG_DIR

    def write_checkpoint(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Atomically persist a fold-state checkpoint at a chunk boundary.

        ``document`` carries the caller's state payloads (detector,
        history and SLO state) plus the boundary ``hour``; the chain
        value at that boundary -- the dataset digest so far -- is pinned
        here from the manifest so a checkpoint can never be paired with
        a different chunk history.

        ``document["log"]``, if present, maps each log stream to
        ``{"start", "records", "floor"}``: the records that became
        immutable since the last checkpoint, ``start`` the ordinal of
        the first, and ``floor`` the ordinal below which no checkpoint
        from this one on reads the stream (0 when absent).  They are
        appended as one segment per stream before the record is
        renamed into place, the record stores each stream's covered
        count under ``"log"`` instead, and segments wholly below their
        floor are deleted after the rename (see the module docstring).

        The record and the segments are written by :func:`dumps_record`:
        compact (``sort_keys`` but no ``indent``, so CPython's C encoder
        runs) with every ndarray an array leaf.  The bytes stay
        deterministic, and :meth:`load_checkpoint` also reads indented
        records and the number text of ``/2`` and ``/1`` ones.
        """
        hour = int(document["hour"])
        chain = self._chain_at(hour)
        streams = document.get("log") or {}
        segments = self._log_segments()
        covered = {}
        for stream, batch in sorted(streams.items()):
            covered[stream] = self._append_segment(
                stream, int(batch["start"]), batch["records"],
                segments.get(stream, []),
            )
        record = {
            "schema": CHECKPOINT_SCHEMA,
            **document,
            "hour": hour,
            "chain": chain,
            "log": covered,
        }
        tmp = self.checkpoint_path.with_suffix(".json.tmp")
        tmp.write_text(dumps_record(record) + "\n")
        tmp.replace(self.checkpoint_path)
        for stream, batch in streams.items():
            floor = int(batch.get("floor") or 0)
            for _, stop, path in segments.get(stream, []):
                if stop <= floor:
                    path.unlink(missing_ok=True)
        return record

    def _append_segment(
        self, stream: str, start: int, records: List[Any],
        existing: List[Tuple[int, int, Path]],
    ) -> int:
        """Write ``records`` as the segment ``[start, start + n)`` of
        ``stream``; returns the stream's new record count.

        A segment ending past ``start`` was appended by a checkpoint
        whose rename never happened; nothing covers it, so it goes
        first.
        """
        for _, stop, path in existing:
            if stop > start:
                path.unlink(missing_ok=True)
        stop = start + len(records)
        if records:
            self.log_dir.mkdir(exist_ok=True)
            path = self.log_dir / f"{stream}-{start:08d}-{stop:08d}.jsonl"
            tmp = path.with_suffix(".jsonl.tmp")
            tmp.write_text("".join(dumps_record(r) + "\n" for r in records))
            os.replace(tmp, path)
        return stop

    def _log_segments(self) -> Dict[str, List[Tuple[int, int, Path]]]:
        """stream -> its ``(start, stop, path)`` segments on disk."""
        segments: Dict[str, List[Tuple[int, int, Path]]] = {}
        for path in sorted(self.log_dir.glob("*.jsonl")):
            stream, start, stop = path.stem.rsplit("-", 2)
            segments.setdefault(stream, []).append(
                (int(start), int(stop), path)
            )
        return segments

    def read_log(
        self, covered: Dict[str, int]
    ) -> Dict[str, Tuple[int, List[Any]]]:
        """Each stream's retained records up to its covered count.

        Returns ``stream -> (first ordinal, records)``, the records
        ``[first, covered)`` found by walking segments back from the
        covered count until ordinal 0 or a deleted segment.  Segments
        past the count are a torn tail and ignored; the caller checks
        that what it needs is there.
        """
        segments = self._log_segments()
        log: Dict[str, Tuple[int, List[Any]]] = {}
        for stream, count in covered.items():
            by_stop = {stop: (start, path)
                       for start, stop, path in segments.get(stream, [])}
            first, parts = int(count), []
            while first in by_stop and first > 0:
                start, path = by_stop[first]
                try:
                    lines = path.read_text().splitlines()
                    records = [loads_record(line) for line in lines]
                except (OSError, ValueError) as exc:
                    raise ChunkStoreError(
                        f"cannot read checkpoint log segment {path}: {exc}"
                    )
                if len(records) != first - start:
                    raise ChunkStoreError(
                        f"checkpoint log segment {path} holds "
                        f"{len(records)} record(s), not {first - start}"
                    )
                parts.append(records)
                first = start
            log[stream] = (
                first, [r for records in reversed(parts) for r in records]
            )
        return log

    def load_checkpoint(self) -> Optional[Dict[str, Any]]:
        """Read and chain-verify the checkpoint record (None if absent).

        The pinned ``(hour, chain)`` pair must match the manifest's
        chain value at that boundary -- a checkpoint pasted in from a
        different run (or a manifest edited underneath one) fails here,
        before any state is restored from it.
        """
        try:
            raw = self.checkpoint_path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise ChunkStoreError(
                f"cannot read checkpoint {self.checkpoint_path}: {exc}"
            )
        try:
            record = loads_record(raw)
        except ValueError as exc:
            raise ChunkStoreError(
                f"checkpoint {self.checkpoint_path} is not valid JSON: {exc}"
            )
        schema = record.get("schema")
        if not isinstance(schema, str):
            raise ChunkStoreError(
                f"{self.checkpoint_path}: missing schema field"
            )
        check_schema(schema, CHECKPOINT_SCHEMA)
        hour = int(record.get("hour") or 0)
        expected = self._chain_at(hour)
        if record.get("chain") != expected:
            raise ChunkStoreError(
                f"checkpoint {self.checkpoint_path} chain mismatch at hour "
                f"{hour}: checkpoint {record.get('chain')}, manifest "
                f"{expected}"
            )
        return record

    def _chain_at(self, hour: int) -> str:
        """The manifest chain value at the chunk boundary ``hour``."""
        if hour == 0:
            return self._seed()
        for entry in self.entries():
            if int(entry["hour_stop"]) == hour:
                return str(entry["chain"])
        raise ChunkStoreError(
            f"hour {hour} is not a committed chunk boundary of "
            f"{self.manifest_path}"
        )
