"""The measurement dataset: month-long counts in array form.

The paper's analyses all operate on aggregates -- per client-hour,
server-hour, and pair-month failure rates.  The dataset therefore stores
counts as dense ``(clients, sites, hours)`` arrays, which both engines
(vectorised and detailed) can fill: the detailed engine folds individual
:class:`~repro.core.records.PerformanceRecord` objects in, the fast engine
writes counts directly.

Replica-level counts (needed by Section 4.5 and the BGP analysis) are kept
as ``(sites, max_replicas, hours)`` arrays aggregated across clients.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.records import (
    DNSFailureKind,
    FailureType,
    PerformanceRecord,
    TCPFailureKind,
)
from repro.world.entities import ClientCategory, World

#: Minimum samples for a rate to be considered meaningful in an hour bin.
MIN_SAMPLES_PER_HOUR = 10

#: Promotion ladder for count arrays: when a count no longer fits its
#: dtype the array is widened to the next step instead of wrapping.
_DTYPE_LADDER = (np.uint16, np.uint32, np.int64)

#: The ``(sites, replicas, hours)`` fields; every other count array is
#: ``(clients, sites, hours)``.
_REPLICA_FIELDS = ("replica_connections", "replica_failed_connections")

#: Archive format version for :meth:`MeasurementDataset.save`.
_ARCHIVE_FORMAT = 1

#: Domain-separation tag hashed into the hour chain's seed.  The name
#: predates the chain becoming the only dataset digest; changing it
#: would re-anchor every pinned digest.
_CHAIN_TAG = "repro.rolling-digest/1"

#: Hours per ``int64`` hour-major copy in
#: :meth:`MeasurementDataset.block_digest`: the digest's scratch memory
#: is one field's hour block, never a whole field.
_DIGEST_BLOCK_HOURS = 24


def _widened_dtype(needed: int, current: np.dtype) -> np.dtype:
    """The narrowest ladder dtype holding both ``needed`` and ``current``."""
    for candidate in _DTYPE_LADDER:
        info = np.iinfo(candidate)
        if needed <= info.max and np.iinfo(current).max <= info.max:
            return np.dtype(candidate)
    raise OverflowError(
        f"count {needed} exceeds the widest supported count dtype "
        f"({_DTYPE_LADDER[-1].__name__})"
    )


class MeasurementDataset:
    """Dense count arrays for one simulated (or replayed) experiment."""

    _DNS_FIELDS = {
        DNSFailureKind.LDNS_TIMEOUT: "dns_ldns",
        DNSFailureKind.NON_LDNS_TIMEOUT: "dns_nonldns",
        DNSFailureKind.ERROR_RESPONSE: "dns_error",
    }
    _TCP_FIELDS = {
        TCPFailureKind.NO_CONNECTION: "tcp_noconn",
        TCPFailureKind.NO_RESPONSE: "tcp_noresp",
        TCPFailureKind.PARTIAL_RESPONSE: "tcp_partial",
        TCPFailureKind.NO_OR_PARTIAL: "tcp_ambiguous",
    }

    def __init__(self, world: World) -> None:
        self.world = world
        c, s, h = len(world.clients), len(world.websites), world.hours
        self.shape = (c, s, h)
        self.max_replicas = max(1, world.max_replicas())
        # Zeroed count arrays at the one dtype plan (planned_dtypes):
        # transaction-level counts (``masked_failures`` are proxied (CN)
        # failures, nature hidden), connection-level counts (unavailable
        # for proxied clients), replica-level counts aggregated over
        # clients, and the retransmission-inferred ``packet_losses``.
        for name, array in self.block_template(world, h).items():
            setattr(self, name, array)
        #: Free-form provenance (master seed, engine, worker count ...):
        #: embedded in saved archives and restored on load.
        self.provenance: Dict[str, Any] = {}

    # -- ingestion ----------------------------------------------------------

    def add_record(self, record: PerformanceRecord) -> None:
        """Fold one performance record into the count arrays."""
        ci = self.world.client_idx(record.client_name)
        si = self.world.site_idx(record.site_name)
        h = record.hour
        if not 0 <= h < self.world.hours:
            raise ValueError(f"hour {h} outside experiment")
        self.transactions[ci, si, h] += 1
        self.packet_losses[ci, si, h] += record.packet_losses
        client = self.world.clients[ci]
        if record.failed and client.proxied:
            self.masked_failures[ci, si, h] += 1
        elif record.failure_type is FailureType.DNS:
            getattr(self, self._DNS_FIELDS[record.dns_kind])[ci, si, h] += 1
        elif record.failure_type is FailureType.TCP:
            getattr(self, self._TCP_FIELDS[record.tcp_kind])[ci, si, h] += 1
        elif record.failure_type is FailureType.HTTP:
            self.http_errors[ci, si, h] += 1
        if not client.proxied:
            self.connections[ci, si, h] += record.num_connections
            self.failed_connections[ci, si, h] += record.num_failed_connections

    def add_records(self, records: Iterable[PerformanceRecord]) -> None:
        """Fold many records in."""
        for record in records:
            self.add_record(record)

    # -- derived aggregates ---------------------------------------------------

    #: The count fields each derived plane below adds up.
    DNS_FAILURE_FIELDS = ("dns_ldns", "dns_nonldns", "dns_error")
    TCP_FAILURE_FIELDS = (
        "tcp_noconn", "tcp_noresp", "tcp_partial", "tcp_ambiguous",
    )
    FAILURE_FIELDS = (
        DNS_FAILURE_FIELDS + TCP_FAILURE_FIELDS
        + ("http_errors", "masked_failures")
    )

    def total(self, fields: Iterable[str], index: Any) -> int:
        """Sum of ``fields`` over ``index``: ``total(FAILURE_FIELDS, ci)``
        equals ``int(self.failures[ci].sum())``.

        Each field is indexed before the add, so a slice's total never
        builds the whole derived (C, S, H) plane.
        """
        return sum(
            int(getattr(self, name)[index].sum(dtype=np.int64))
            for name in fields
        )

    @property
    def dns_failures(self) -> np.ndarray:
        """All DNS failures per cell."""
        return (
            # repro: lint-ok[DTY002] widening cast: three uint16 terms cannot overflow uint32
            self.dns_ldns.astype(np.uint32)
            + self.dns_nonldns
            + self.dns_error
        )

    @property
    def tcp_failures(self) -> np.ndarray:
        """All TCP connection-level transaction failures per cell."""
        return (
            # repro: lint-ok[DTY002] widening cast: four uint16 terms cannot overflow uint32
            self.tcp_noconn.astype(np.uint32)
            + self.tcp_noresp
            + self.tcp_partial
            + self.tcp_ambiguous
        )

    @property
    def failures(self) -> np.ndarray:
        """All failed transactions per cell."""
        return (
            self.dns_failures
            + self.tcp_failures
            + self.http_errors
            + self.masked_failures
        )

    def client_hour_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(transactions, failures) per client-hour, shape (C, H)."""
        return (
            self.transactions.sum(axis=1, dtype=np.int64),
            self.failures.sum(axis=1, dtype=np.int64),
        )

    def server_hour_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(transactions, failures) per server-hour, shape (S, H)."""
        return (
            self.transactions.sum(axis=0, dtype=np.int64),
            self.failures.sum(axis=0, dtype=np.int64),
        )

    def pair_month_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(transactions, failures) per client-server pair, shape (C, S)."""
        return (
            self.transactions.sum(axis=2, dtype=np.int64),
            self.failures.sum(axis=2, dtype=np.int64),
        )

    def client_failure_rates(self) -> np.ndarray:
        """Month-long transaction failure rate per client, shape (C,)."""
        trans = self.transactions.sum(axis=(1, 2), dtype=np.int64)
        fails = self.failures.sum(axis=(1, 2), dtype=np.int64)
        return _safe_rate(fails, trans)

    def server_failure_rates(self) -> np.ndarray:
        """Month-long transaction failure rate per server, shape (S,)."""
        trans = self.transactions.sum(axis=(0, 2), dtype=np.int64)
        fails = self.failures.sum(axis=(0, 2), dtype=np.int64)
        return _safe_rate(fails, trans)

    def category_mask(self, category: ClientCategory) -> np.ndarray:
        """Boolean client mask for one category, shape (C,)."""
        return np.array(
            [c.category is category for c in self.world.clients], dtype=bool
        )

    def proxied_mask(self) -> np.ndarray:
        """Boolean mask for proxied (CN) clients, shape (C,)."""
        return np.array([c.proxied for c in self.world.clients], dtype=bool)

    def pair_exclusion_view(self, excluded: np.ndarray) -> "MaskedCounts":
        """Counts with the given (C, S) boolean pair mask zeroed out --
        used to exclude permanent-failure pairs (Section 4.4.2)."""
        return MaskedCounts(self, excluded)

    # -- capacity and merging ---------------------------------------------------

    #: The transaction-level count arrays (initially ``uint16``): every
    #: per-cell count in this group is bounded by ``transactions``, so one
    #: capacity check on the transaction draw covers them all.
    _TRANSACTION_FIELDS = ("transactions",) + FAILURE_FIELDS

    def ensure_count_capacity(
        self, max_count: int, fields: Optional[Iterable[str]] = None
    ) -> None:
        """Widen count arrays so ``max_count`` fits without wrapping.

        Counts used to be committed into ``uint16`` arrays unchecked: a
        scaled run (large ``per_hour``) or a merge of shards silently
        wrapped mod 65536.  Callers about to commit counts up to
        ``max_count`` call this first; affected arrays are promoted up the
        ``uint16 -> uint32 -> int64`` ladder in place.
        """
        for name in fields if fields is not None else self._TRANSACTION_FIELDS:
            arr = getattr(self, name)
            if max_count > np.iinfo(arr.dtype).max:
                setattr(self, name, arr.astype(_widened_dtype(max_count, arr.dtype)))

    @classmethod
    def block_shapes(
        cls, world: World, n_hours: int
    ) -> Dict[str, Tuple[int, ...]]:
        """Every array field's shape for an ``n_hours``-wide block."""
        c, s = len(world.clients), len(world.websites)
        r = max(1, world.max_replicas())
        return {
            name: (s, r, n_hours) if name in _REPLICA_FIELDS
            else (c, s, n_hours)
            for name in cls._ARRAY_FIELDS
        }

    @classmethod
    def block_template(
        cls, world: World, n_hours: int, per_hour: int = 1
    ) -> Dict[str, np.ndarray]:
        """Fresh zeroed arrays for an ``n_hours``-wide block of this world.

        Dtypes are the plan for ``per_hour`` (:meth:`planned_dtypes`);
        the default is the narrowest plan, which a fresh dataset starts
        at.  Shard workers fill a template and hand it back.
        """
        dtypes = cls.planned_dtypes(world, per_hour)
        return {
            name: np.zeros(shape, dtype=dtypes[name])
            for name, shape in cls.block_shapes(world, n_hours).items()
        }

    @classmethod
    def from_arrays(
        cls, world: World, arrays: Mapping[str, np.ndarray]
    ) -> "MeasurementDataset":
        """A dataset over ``arrays`` by reference: no count is copied.

        ``arrays`` maps every array field to a whole-run block (the
        hour driver's -- a filled :meth:`block_template` or the pooled
        buffer's views -- or a loaded archive); each must have the
        world's shape for that field.
        """
        dataset = cls(world)
        for name in cls._ARRAY_FIELDS:
            array = arrays[name]
            expected = getattr(dataset, name).shape
            if array.shape != expected:
                raise ValueError(
                    f"array {name}: shape {array.shape} does not match "
                    f"world shape {expected}"
                )
            setattr(dataset, name, array)
        return dataset

    @classmethod
    def planned_dtypes(cls, world: World, per_hour: int) -> Dict[str, np.dtype]:
        """Per-field dtypes sized for this world's worst-case hourly counts.

        The one dtype plan: a fresh dataset, every block template and
        the pooled block buffer (:mod:`repro.world.sharedmem`) start
        here.  The pooled buffer cannot be promoted mid-run, so the
        bound per cell is the Poisson transaction tail times each
        field's worst-case connections-per-transaction multiplier, with
        generous slack -- a planned dtype that is one rung too wide
        costs bytes, one rung too narrow demotes the pooled block to
        in-process shards, which promote.
        """
        lam = float(max(1, per_hour))
        # P(Poisson(lam) > lam + 12*sqrt(lam) + 32) is negligible at any
        # scale; the +32 keeps small lam safe where sqrt slack is tiny.
        n_bound = lam + 12.0 * lam ** 0.5 + 32.0
        c = len(world.clients)
        r = max(1, world.max_replicas())
        # Connections per transaction: delivered + redirect + retries over
        # the address list (permanent pairs: 3 tries x 3 addresses) plus
        # dead-replica walk-downs bounded by the replica count.
        conns_factor = 2.0 + 9.0 + r
        # Packet losses per transaction: 16 segments at ambient loss
        # (x1.4) plus 6 per partial failure, rounded up hard.
        loss_factor = 48.0
        bounds: Dict[str, float] = {}
        for name in cls._ARRAY_FIELDS:
            if name in _REPLICA_FIELDS:
                bounds[name] = n_bound * conns_factor * c
            elif name in ("connections", "failed_connections"):
                bounds[name] = n_bound * conns_factor
            elif name == "packet_losses":
                bounds[name] = n_bound * loss_factor
            else:
                bounds[name] = n_bound
        return {
            name: _widened_dtype(int(bound), np.dtype(np.uint16))
            for name, bound in bounds.items()
        }

    @classmethod
    def block_digest(cls, arrays: Mapping[str, np.ndarray]) -> List[str]:
        """The per-hour digests of one hour-block, in hour order.

        Hour ``t``'s digest is SHA-256 over, per field, the field name,
        its one-hour shape, and the ``int64`` bytes of its hour-``t``
        slice -- invariant under capacity promotion, array dtype, and
        how hours are grouped into blocks.  These are the links of the
        dataset digest's hour chain (:func:`fold_block`).  Missing
        fields are an error: a chunk that silently dropped an array
        would chain clean and corrupt the resumed dataset.

        Each field is copied to ``int64`` hour-major order
        :data:`_DIGEST_BLOCK_HOURS` hours at a time, so one copy serves
        every hour of the block without holding a whole field.
        """
        hashers: List[Any] = []
        for name in cls._ARRAY_FIELDS:
            arr = arrays.get(name)
            if arr is None:
                raise ValueError(f"block is missing array {name!r}")
            n_hours = arr.shape[-1]
            if name == cls._ARRAY_FIELDS[0]:
                hashers = [hashlib.sha256() for _ in range(n_hours)]
            elif n_hours != len(hashers):
                raise ValueError(
                    f"array {name!r} covers {n_hours} hour(s), the block "
                    f"{len(hashers)}"
                )
            header = (name + str(arr.shape[:-1] + (1,))).encode("utf-8")
            for b0 in range(0, n_hours, _DIGEST_BLOCK_HOURS):
                b1 = b0 + _DIGEST_BLOCK_HOURS
                hour_major = np.ascontiguousarray(
                    np.moveaxis(arr[..., b0:b1], -1, 0), dtype=np.int64
                )
                for hasher, plane in zip(hashers[b0:b1], hour_major):
                    hasher.update(header)
                    hasher.update(plane)
        return [hasher.hexdigest() for hasher in hashers]

    def merge(
        self,
        shard: Union["MeasurementDataset", Mapping[str, np.ndarray]],
        hours: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Accumulate another dataset's (or shard's) counts into this one.

        ``shard`` is either a whole :class:`MeasurementDataset` or a
        mapping of array-field name to counts.  With ``hours=(h0, h1)``
        the shard arrays cover only that contiguous hour block (the
        parallel engine's unit) and are added into the matching slice;
        otherwise they must be full-width.  Accumulation is
        overflow-checked: sums are formed in ``int64`` and the target
        array is promoted to a wider dtype whenever the result would no
        longer fit, so counts can never silently wrap.
        """
        arrays = (
            shard.arrays() if isinstance(shard, MeasurementDataset) else shard
        )
        h0, h1 = (0, self.world.hours) if hours is None else hours
        if not 0 <= h0 <= h1 <= self.world.hours:
            raise ValueError(
                f"hour block [{h0}, {h1}) outside experiment "
                f"(0..{self.world.hours})"
            )
        for name in self._ARRAY_FIELDS:
            src = arrays.get(name)
            if src is None:
                raise ValueError(f"shard is missing array {name!r}")
            dst = getattr(self, name)
            view = dst[..., h0:h1]
            if src.shape != view.shape:
                raise ValueError(
                    f"array {name}: shard shape {src.shape} does not match "
                    f"hour block shape {view.shape}"
                )
            if src.size == 0:
                continue
            total = view.astype(np.int64) + src.astype(np.int64)
            if total.size and int(total.min()) < 0:
                raise ValueError(f"array {name}: negative counts in shard")
            needed = int(total.max()) if total.size else 0
            if needed > np.iinfo(dst.dtype).max:
                self.ensure_count_capacity(needed, fields=(name,))
                dst = getattr(self, name)
                view = dst[..., h0:h1]
            view[...] = total.astype(dst.dtype)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Every count array by field name: the whole run as one
        ``(client, site, hour)`` block (no copies)."""
        return {name: getattr(self, name) for name in self._ARRAY_FIELDS}

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> Dict[str, Any]:
        """The world identity this dataset's axes are bound to.

        Client/site *names and order* matter: two worlds with identically
        shaped arrays but different rosters (or orderings) would misattribute
        every per-client analysis if confused for each other.
        """
        return self.world_fingerprint(self.world)

    @classmethod
    def world_fingerprint(cls, world: World) -> Dict[str, Any]:
        """:meth:`fingerprint` computed from the world alone.

        The serve daemon never materializes a dataset but still needs
        the identical fingerprint to seed the hour chain -- this is the
        single definition both paths use.
        """
        return {
            "clients": [c.name for c in world.clients],
            "sites": [w.name for w in world.websites],
            "hours": world.hours,
            "max_replicas": max(1, world.max_replicas()),
        }

    def digest(self) -> str:
        """The dataset digest: the hour chain over every hour.

        Seeded from the world fingerprint (:func:`chain_seed`), then one
        link per hour (:meth:`block_digest`, :func:`fold_block`).  Counts
        are hashed as ``int64``, so two datasets with equal counts digest
        equal even if one was widened; and per-hour links make the value
        independent of how the hours were produced -- any worker count,
        any serve chunk size or kill point.  This is the determinism
        contract's observable.
        """
        return fold_block(
            chain_seed(fingerprint_sha256(self.world)),
            self.block_digest(self.arrays()),
        )

    # -- persistence ------------------------------------------------------------

    _ARRAY_FIELDS = (
        "transactions", "dns_ldns", "dns_nonldns", "dns_error",
        "tcp_noconn", "tcp_noresp", "tcp_partial", "tcp_ambiguous",
        "http_errors", "masked_failures", "connections", "failed_connections",
        "replica_connections", "replica_failed_connections", "packet_losses",
    )

    def save(self, path: str) -> None:
        """Persist all count arrays plus the world fingerprint to .npz."""
        meta = {
            "format": _ARCHIVE_FORMAT,
            "fingerprint": self.fingerprint(),
            "provenance": self.provenance,
        }
        np.savez_compressed(
            path,
            __meta__=np.array(json.dumps(meta)),
            **self.arrays(),
        )

    @classmethod
    def load(
        cls,
        path: str,
        world: World,
        expected_seed: Optional[int] = None,
    ) -> "MeasurementDataset":
        """Load arrays saved by :meth:`save` against a matching world.

        The archive's embedded fingerprint (client/site names and order,
        hours, replica width) must match ``world`` exactly -- a same-shaped
        archive from a different world loads into the wrong axes and
        silently misattributes every per-client analysis, so it is
        rejected with a description of what differs.  Pass
        ``expected_seed`` to additionally pin the archive to one master
        seed.  Archives written before the fingerprint existed fall back
        to the shape check with a warning.
        """
        with np.load(path) as data:
            provenance: Dict[str, Any] = {}
            if "__meta__" in data.files:
                meta = json.loads(str(data["__meta__"][()]))
                _verify_fingerprint(meta.get("fingerprint", {}), world, path)
                provenance = dict(meta.get("provenance", {}))
                if expected_seed is not None:
                    stored = provenance.get("master_seed")
                    if stored is not None and stored != expected_seed:
                        raise ValueError(
                            f"{path}: archive was generated with master seed "
                            f"{stored}, expected {expected_seed}"
                        )
            else:
                obs.logger.warning(
                    "%s: no embedded world fingerprint (legacy archive); "
                    "falling back to shape checks only", path,
                )
            dataset = cls.from_arrays(
                world, {name: data[name] for name in cls._ARRAY_FIELDS}
            )
        dataset.provenance = provenance
        return dataset


class MaskedCounts:
    """A view of a dataset with certain client-server pairs excluded."""

    def __init__(self, dataset: MeasurementDataset, excluded_pairs: np.ndarray) -> None:
        c, s, _ = dataset.shape
        if excluded_pairs.shape != (c, s):
            raise ValueError("pair mask must have shape (clients, sites)")
        self.dataset = dataset
        self.keep = ~excluded_pairs[:, :, None]  # broadcast over hours

    def _masked(self, array: np.ndarray) -> np.ndarray:
        return array * self.keep

    @property
    def transactions(self) -> np.ndarray:
        """Transactions with excluded pairs zeroed."""
        return self._masked(self.dataset.transactions)

    @property
    def failures(self) -> np.ndarray:
        """Failures with excluded pairs zeroed."""
        return self._masked(self.dataset.failures)

    @property
    def tcp_failures(self) -> np.ndarray:
        """TCP failures with excluded pairs zeroed."""
        return self._masked(self.dataset.tcp_failures)

    @property
    def connections(self) -> np.ndarray:
        """Connections with excluded pairs zeroed."""
        return self._masked(self.dataset.connections)

    @property
    def failed_connections(self) -> np.ndarray:
        """Failed connections with excluded pairs zeroed."""
        return self._masked(self.dataset.failed_connections)


def fingerprint_sha256(world: World) -> str:
    """SHA-256 of the world fingerprint's canonical JSON.

    The world identity run records and chunk stores pin, and the seed
    material of the dataset digest (:func:`chain_seed`).
    """
    payload = json.dumps(
        MeasurementDataset.world_fingerprint(world),
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def chain_seed(fingerprint: str) -> str:
    """The hour chain's value before any hour is folded in."""
    return hashlib.sha256(
        (_CHAIN_TAG + ":" + fingerprint).encode("ascii")
    ).hexdigest()


def fold_block(chain: str, hour_digests: Iterable[str]) -> str:
    """Link a block's per-hour digests onto the hour chain, in order."""
    for digest in hour_digests:
        chain = hashlib.sha256((chain + digest).encode("ascii")).hexdigest()
    return chain


def entity_hour_sums(arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Per-(entity, hour) sums of a ``(client, site, hour)`` block.

    Returns int64 arrays: ``ct``/``cf`` (client, hour) and ``st``/``sf``
    (site, hour) transactions and failed transactions, and ``ctcp``
    (client, hour) TCP failures -- the rate and blame inputs of the
    Section 4.4 analysis.  Each count field is reduced on its own
    straight to (entity, hour), so no (client, site, hour) temporary is
    built.  Pure reads, so no caller can perturb the digest.
    """
    by_client: Dict[str, np.ndarray] = {}
    by_site: Dict[str, np.ndarray] = {}
    for name in MeasurementDataset._TRANSACTION_FIELDS:
        block = arrays[name]
        # einsum reduces the middle axis of a short block several
        # times faster than ``sum(axis=1)``, which loops over the
        # (short) hour axis innermost.
        by_client[name] = np.einsum("csh->ch", block, dtype=np.int64)
        by_site[name] = block.sum(axis=0, dtype=np.int64)
    failures = MeasurementDataset.FAILURE_FIELDS
    return {
        "ct": by_client["transactions"],
        "cf": sum(by_client[name] for name in failures),
        "st": by_site["transactions"],
        "sf": sum(by_site[name] for name in failures),
        "ctcp": sum(
            by_client[name] for name in MeasurementDataset.TCP_FAILURE_FIELDS
        ),
    }


def hour_entity_stats_from_block(
    arrays: Mapping[str, np.ndarray], t: int
) -> Dict[str, list]:
    """One hour's per-entity stats as JSON-native lists.

    Hour ``t`` of :func:`entity_hour_sums` -- per-client and per-server
    transaction/failure vectors -- plus the sparse ``[client, server,
    count]`` TCP-failure triples blame buckets on, in row-major order.
    The serialized stream of these documents is pinned by the test
    suite as the detector's hour feed.
    """
    sums = entity_hour_sums({
        name: arrays[name][:, :, t:t + 1]
        for name in MeasurementDataset._TRANSACTION_FIELDS
    })
    tcp = np.zeros(arrays["transactions"].shape[:2], dtype=np.int64)
    for name in MeasurementDataset.TCP_FAILURE_FIELDS:
        tcp += arrays[name][:, :, t]
    ci, si = np.nonzero(tcp)
    return {
        **{key: sums[key][:, 0].tolist() for key in ("ct", "cf", "st", "sf")},
        "tcp": np.column_stack((ci, si, tcp[ci, si])).tolist(),
    }


def _verify_fingerprint(
    stored: Dict[str, Any], world: World, path: str
) -> None:
    """Raise with a precise mismatch description when an archive's world
    fingerprint does not match the world it is being loaded against."""
    current = MeasurementDataset.world_fingerprint(world)
    problems: List[str] = []
    for key in ("hours", "max_replicas"):
        if stored.get(key) != current[key]:
            problems.append(
                f"{key}: archive has {stored.get(key)}, world has {current[key]}"
            )
    for key in ("clients", "sites"):
        theirs, ours = stored.get(key), current[key]
        if theirs != ours:
            if theirs is None:
                problems.append(f"{key}: archive carries no {key} roster")
            elif len(theirs) != len(ours):
                problems.append(
                    f"{key}: archive has {len(theirs)}, world has {len(ours)}"
                )
            else:
                first = next(
                    i for i, (a, b) in enumerate(zip(theirs, ours)) if a != b
                )
                problems.append(
                    f"{key}: first mismatch at index {first} "
                    f"(archive {theirs[first]!r}, world {ours[first]!r})"
                )
    if problems:
        raise ValueError(
            f"{path}: archive does not belong to this world -- "
            + "; ".join(problems)
        )


def _safe_rate(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Element-wise rate with 0/0 -> NaN."""
    out = np.full(numerator.shape, np.nan, dtype=float)
    nonzero = denominator > 0
    out[nonzero] = numerator[nonzero] / denominator[nonzero]
    return out
