"""Tests for the MeasurementDataset container."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import (
    MeasurementDataset,
    chain_seed,
    fingerprint_sha256,
    fold_block,
)
from repro.core.records import (
    DNSFailureKind,
    FailureType,
    PerformanceRecord,
    TCPFailureKind,
)
from repro.world.entities import ClientCategory


#: Hours of the small dataset the hour-chain property tests split.
CHAIN_HOURS = 30


@pytest.fixture(scope="module")
def chain_dataset():
    """A 30-hour dataset with seeded random counts and mixed dtypes."""
    from repro.world.defaults import build_default_world

    dataset = MeasurementDataset(build_default_world(hours=CHAIN_HOURS))
    rng = np.random.default_rng(7)
    for name in MeasurementDataset._ARRAY_FIELDS:
        arr = getattr(dataset, name)
        arr[...] = rng.integers(0, 50, size=arr.shape)
    dataset.ensure_count_capacity(10**10, fields=("connections",))
    return dataset


def make_record(world, client, site, hour, failure=FailureType.NONE, **kwargs):
    defaults = dict(
        client_name=client, site_name=site, url=f"http://{site}/",
        timestamp=hour * 3600.0, hour=hour, failure_type=failure,
        num_connections=kwargs.pop("num_connections", 1),
    )
    if failure is FailureType.DNS:
        defaults["dns_kind"] = DNSFailureKind.LDNS_TIMEOUT
        defaults["num_connections"] = 0
    if failure is FailureType.TCP:
        defaults["tcp_kind"] = TCPFailureKind.NO_CONNECTION
        defaults["num_failed_connections"] = defaults["num_connections"]
    defaults.update(kwargs)
    return PerformanceRecord(**defaults)


class TestIngestion:
    def test_add_record_counts(self, world):
        ds = MeasurementDataset(world)
        ds.add_record(make_record(world, "planetlab1.nyu.edu", "mit.edu", 0))
        ds.add_record(
            make_record(world, "planetlab1.nyu.edu", "mit.edu", 0,
                        failure=FailureType.TCP)
        )
        ci = world.client_idx("planetlab1.nyu.edu")
        si = world.site_idx("mit.edu")
        assert ds.transactions[ci, si, 0] == 2
        assert ds.tcp_noconn[ci, si, 0] == 1
        assert ds.failures[ci, si, 0] == 1

    def test_proxied_failures_masked_on_ingest(self, world):
        ds = MeasurementDataset(world)
        ds.add_record(
            make_record(world, "SEA1", "mit.edu", 0, failure=FailureType.TCP)
        )
        ci = world.client_idx("SEA1")
        si = world.site_idx("mit.edu")
        assert ds.masked_failures[ci, si, 0] == 1
        assert ds.tcp_noconn[ci, si, 0] == 0
        assert ds.connections[ci, si, 0] == 0  # proxy masks connections

    def test_hour_bounds_checked(self, world):
        ds = MeasurementDataset(world)
        with pytest.raises(ValueError):
            ds.add_record(
                make_record(world, "planetlab1.nyu.edu", "mit.edu", world.hours)
            )


class TestAggregates:
    def test_aggregate_shapes(self, dataset, world):
        c, s, h = dataset.shape
        trans, fails = dataset.client_hour_counts()
        assert trans.shape == (c, h) and fails.shape == (c, h)
        trans, fails = dataset.server_hour_counts()
        assert trans.shape == (s, h)
        trans, fails = dataset.pair_month_counts()
        assert trans.shape == (c, s)

    def test_failure_decomposition_consistent(self, dataset):
        total = dataset.failures.sum()
        parts = (
            dataset.dns_failures.sum()
            + dataset.tcp_failures.sum()
            + dataset.http_errors.sum()
            + dataset.masked_failures.sum()
        )
        assert total == parts

    def test_total_matches_derived_planes(self, dataset):
        """``total`` over a slice equals the derived plane's slice sum."""
        for fields, plane in (
            (dataset.FAILURE_FIELDS, dataset.failures),
            (dataset.DNS_FAILURE_FIELDS, dataset.dns_failures),
            (dataset.TCP_FAILURE_FIELDS, dataset.tcp_failures),
        ):
            for index in ((), 3, (3, 5), (slice(None), 5)):
                assert dataset.total(fields, index) == int(plane[index].sum())

    @settings(max_examples=40, deadline=None)
    @given(
        fields=st.sampled_from([
            ("transactions",),
            MeasurementDataset.FAILURE_FIELDS,
            MeasurementDataset.TCP_FAILURE_FIELDS,
            ("connections",),
        ]),
        axes=st.sampled_from(["", "c", "s", "h", "ch", "sh", "cs"]),
        exclude=st.sampled_from([None, 0.0, 0.1, 1.0]),
        weighted=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_sums_equal_the_derived_plane(
        self, chain_dataset, fields, axes, exclude, weighted, seed
    ):
        """``sums`` (per field, excluded pairs subtracted, optional
        server-hour weights) equals the reduced derived plane."""
        ds = chain_dataset
        c, s, h = ds.shape
        rng = np.random.default_rng(seed)
        excluded = None if exclude is None else rng.random((c, s)) < exclude
        weights = rng.random((s, h)) < 0.3 if weighted else None
        plane = sum(getattr(ds, name).astype(np.int64) for name in fields)
        if excluded is not None:
            plane = plane * ~excluded[:, :, None]
        if weights is not None:
            plane = plane * weights[None]
        expected = np.einsum("csh->" + axes, plane)
        got = ds.sums(fields, axes, excluded, weights)
        assert np.asarray(got).dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_sums_must_reduce_an_axis(self, chain_dataset):
        with pytest.raises(ValueError, match="reduce no axis"):
            chain_dataset.sums(("transactions",), "csh")

    def test_rates_are_nan_when_empty(self, world):
        ds = MeasurementDataset(world)
        assert np.isnan(ds.client_failure_rates()).all()

    def test_category_masks_partition_clients(self, dataset):
        total = sum(
            dataset.category_mask(cat).sum() for cat in ClientCategory
        )
        assert total == len(dataset.world.clients)


class TestMaskedView:
    def test_exclusion_zeroes_pairs(self, dataset):
        c, s, _ = dataset.shape
        mask = np.zeros((c, s), dtype=bool)
        mask[0, 0] = True
        pairs = dataset.sums(("transactions",), "cs", mask)
        assert pairs[0, 0] == 0
        np.testing.assert_array_equal(
            pairs[1], dataset.transactions[1].sum(axis=1)
        )

    def test_mask_shape_validated(self, dataset):
        with pytest.raises(ValueError):
            dataset.sums(
                ("transactions",), "ch", np.zeros((2, 2), dtype=bool)
            )


class TestCountCapacity:
    """Regression tests for the silent uint16 wraparound.

    Counts used to be committed into ``uint16`` unchecked: 70000 accesses
    in one cell stored as 4464.  Commit and merge paths now promote the
    arrays up the uint16 -> uint32 -> int64 ladder instead of wrapping.
    """

    def test_large_count_previously_wrapped(self, world):
        ds = MeasurementDataset(world)
        big = int(np.iinfo(np.uint16).max) + 5000  # would wrap mod 65536
        ds.ensure_count_capacity(big)
        ds.transactions[0, 0, 0] = big
        assert int(ds.transactions[0, 0, 0]) == big

    def test_promotion_preserves_counts(self, world):
        ds = MeasurementDataset(world)
        ds.transactions[1, 2, 3] = 777
        ds.ensure_count_capacity(10**9)
        assert ds.transactions.dtype == np.uint32
        assert int(ds.transactions[1, 2, 3]) == 777

    def test_promotion_ladder_reaches_int64(self, world):
        ds = MeasurementDataset(world)
        ds.ensure_count_capacity(2**40, fields=("transactions",))
        assert ds.transactions.dtype == np.int64
        assert ds.http_errors.dtype == np.uint16  # untouched field

    def test_no_promotion_when_counts_fit(self, world):
        ds = MeasurementDataset(world)
        ds.ensure_count_capacity(100)
        assert ds.transactions.dtype == np.uint16

    def test_count_beyond_ladder_rejected(self, world):
        ds = MeasurementDataset(world)
        with pytest.raises(OverflowError):
            ds.ensure_count_capacity(2**63)


class TestMerge:
    def test_merge_sums_exactly(self, world):
        a, b = MeasurementDataset(world), MeasurementDataset(world)
        a.transactions[0, 0, 0] = 3
        b.transactions[0, 0, 0] = 4
        b.http_errors[1, 1, 1] = 2
        a.merge(b)
        assert int(a.transactions[0, 0, 0]) == 7
        assert int(a.http_errors[1, 1, 1]) == 2

    def test_merge_hour_block_lands_in_slice(self, world):
        ds = MeasurementDataset(world)
        h0, h1 = 10, 20
        shard = {
            name: np.zeros(
                getattr(ds, name)[..., h0:h1].shape, dtype=np.uint16
            )
            for name in MeasurementDataset._ARRAY_FIELDS
        }
        shard["transactions"][0, 0, 0] = 9  # hour 10 in absolute terms
        ds.merge(shard, hours=(h0, h1))
        assert int(ds.transactions[0, 0, 10]) == 9
        assert ds.transactions[..., :10].sum() == 0

    def test_merge_promotes_on_overflow(self, world):
        a, b = MeasurementDataset(world), MeasurementDataset(world)
        a.transactions[0, 0, 0] = 60000
        b.transactions[0, 0, 0] = 60000
        a.merge(b)  # 120000 does not fit uint16
        assert a.transactions.dtype == np.uint32
        assert int(a.transactions[0, 0, 0]) == 120000

    def test_merge_rejects_bad_hour_block(self, world):
        ds = MeasurementDataset(world)
        with pytest.raises(ValueError):
            ds.merge(MeasurementDataset(world), hours=(5, world.hours + 1))
        with pytest.raises(ValueError):
            ds.merge(MeasurementDataset(world), hours=(-1, 5))

    def test_merge_rejects_shape_mismatch(self, world):
        ds = MeasurementDataset(world)
        shard = {
            name: np.zeros_like(getattr(ds, name))
            for name in MeasurementDataset._ARRAY_FIELDS
        }
        # Full-width arrays offered for a 10-hour block must be rejected.
        with pytest.raises(ValueError, match="does not match"):
            ds.merge(shard, hours=(0, 10))

    def test_merge_rejects_missing_array(self, world):
        ds = MeasurementDataset(world)
        with pytest.raises(ValueError, match="missing array"):
            ds.merge({"transactions": np.zeros(ds.shape, dtype=np.uint16)})

    def test_merge_rejects_negative_counts(self, world):
        ds = MeasurementDataset(world)
        shard = {
            name: np.zeros(ds.shape if name not in (
                "replica_connections", "replica_failed_connections"
            ) else ds.replica_connections.shape, dtype=np.int64)
            for name in MeasurementDataset._ARRAY_FIELDS
        }
        shard["transactions"][0, 0, 0] = -1
        with pytest.raises(ValueError, match="negative"):
            ds.merge(shard)


class TestDigest:
    def test_digest_invariant_under_promotion(self, world):
        a, b = MeasurementDataset(world), MeasurementDataset(world)
        a.transactions[0, 0, 0] = 5
        b.transactions[0, 0, 0] = 5
        b.ensure_count_capacity(10**9)  # widen b's dtypes
        assert a.digest() == b.digest()

    def test_digest_sensitive_to_counts(self, world):
        a, b = MeasurementDataset(world), MeasurementDataset(world)
        a.transactions[0, 0, 0] = 5
        assert a.digest() != b.digest()

    @pytest.mark.parametrize("hours,per_hour,expected", [
        (24, 2, "0aad425977fd9f11ba249362dbc6e14ca7687550123be8847b13d1ffb75462ae"),
        (48, 4, "81ea70e145846dbdd0360c709421a1e6f7098e9d796b2466637c02f2dc84861f"),
    ])
    def test_pinned_hour_chain_values(self, hours, per_hour, expected):
        # The hour chain at the default seed, as first computed by the
        # serve daemon's separate rolling-digest oracle.
        from repro.world.simulator import simulate_default_month

        dataset = simulate_default_month(
            hours=hours, per_hour=per_hour, seed=20050101, workers=1
        ).dataset
        assert dataset.digest() == expected

    def test_block_digest_matches_a_per_hour_reference(self, chain_dataset):
        # The straightforward one-hour-slice hash; 30 hours cross the
        # implementation's 24-hour copy blocks.
        def reference(t):
            h = hashlib.sha256()
            for name in MeasurementDataset._ARRAY_FIELDS:
                hour = getattr(chain_dataset, name)[..., t:t + 1]
                h.update(name.encode("utf-8"))
                h.update(str(hour.shape).encode("utf-8"))
                h.update(np.ascontiguousarray(hour, dtype=np.int64).tobytes())
            return h.hexdigest()

        arrays = {
            name: getattr(chain_dataset, name)
            for name in MeasurementDataset._ARRAY_FIELDS
        }
        assert MeasurementDataset.block_digest(arrays) == [
            reference(t) for t in range(CHAIN_HOURS)
        ]

    def test_hour_order_matters(self, chain_dataset):
        swapped = MeasurementDataset(chain_dataset.world)
        for name in MeasurementDataset._ARRAY_FIELDS:
            setattr(swapped, name, getattr(chain_dataset, name)[..., ::-1])
        assert swapped.digest() != chain_dataset.digest()

    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=1, max_value=CHAIN_HOURS - 1),
                         max_size=8))
    def test_digest_is_the_fold_over_any_chunk_split(self, chain_dataset, cuts):
        bounds = [0, *sorted(set(cuts)), CHAIN_HOURS]
        chain = chain_seed(fingerprint_sha256(chain_dataset.world))
        for h0, h1 in zip(bounds, bounds[1:]):
            block = {
                name: getattr(chain_dataset, name)[..., h0:h1]
                for name in MeasurementDataset._ARRAY_FIELDS
            }
            chain = fold_block(chain, MeasurementDataset.block_digest(block))
        assert chain == chain_dataset.digest()

    def test_block_digest_refuses_missing_and_ragged_fields(self, world):
        block = MeasurementDataset.block_template(world, 3)
        del block["packet_losses"]
        with pytest.raises(ValueError, match="missing array 'packet_losses'"):
            MeasurementDataset.block_digest(block)
        block = MeasurementDataset.block_template(world, 3)
        block["dns_error"] = block["dns_error"][..., :2]
        with pytest.raises(ValueError, match="covers 2 hour"):
            MeasurementDataset.block_digest(block)


class TestPersistence:
    def test_save_load_roundtrip(self, dataset, world, tmp_path):
        path = str(tmp_path / "ds.npz")
        dataset.save(path)
        loaded = MeasurementDataset.load(path, world)
        assert (loaded.transactions == dataset.transactions).all()
        assert (loaded.replica_connections == dataset.replica_connections).all()

    def test_load_rejects_wrong_world(self, dataset, tmp_path):
        from repro.world.defaults import build_default_world

        path = str(tmp_path / "ds.npz")
        dataset.save(path)
        other = build_default_world(hours=10)
        with pytest.raises(ValueError):
            MeasurementDataset.load(path, other)

    def test_load_rejects_renamed_roster(self, dataset, world, tmp_path):
        """Same shapes, different client roster: before the embedded
        fingerprint this loaded silently into the wrong axes."""
        import dataclasses

        from repro.world.entities import World

        path = str(tmp_path / "ds.npz")
        dataset.save(path)
        clients = list(world.clients)
        clients[0] = dataclasses.replace(clients[0], name="impostor.example")
        other = World(
            clients=clients, websites=world.websites,
            proxies=world.proxies, hours=world.hours,
        )
        with pytest.raises(ValueError, match="impostor.example"):
            MeasurementDataset.load(path, other)

    def test_provenance_roundtrip(self, world, tmp_path):
        ds = MeasurementDataset(world)
        ds.provenance = {"engine": "fast", "master_seed": 42, "workers": 2}
        path = str(tmp_path / "ds.npz")
        ds.save(path)
        loaded = MeasurementDataset.load(path, world)
        assert loaded.provenance == ds.provenance

    def test_expected_seed_enforced(self, world, tmp_path):
        ds = MeasurementDataset(world)
        ds.provenance = {"master_seed": 42}
        path = str(tmp_path / "ds.npz")
        ds.save(path)
        MeasurementDataset.load(path, world, expected_seed=42)  # fine
        with pytest.raises(ValueError, match="seed"):
            MeasurementDataset.load(path, world, expected_seed=7)

    def test_legacy_archive_still_loads(self, world, tmp_path):
        """Archives written before the fingerprint existed (no __meta__)
        fall back to shape checks with a warning."""
        ds = MeasurementDataset(world)
        ds.transactions[0, 0, 0] = 3
        path = str(tmp_path / "legacy.npz")
        np.savez_compressed(
            path,
            **{n: getattr(ds, n) for n in MeasurementDataset._ARRAY_FIELDS},
        )
        loaded = MeasurementDataset.load(path, world)
        assert int(loaded.transactions[0, 0, 0]) == 3
        assert loaded.provenance == {}

    def test_fingerprint_contents(self, dataset, world):
        fp = dataset.fingerprint()
        assert fp["hours"] == world.hours
        assert fp["clients"] == [c.name for c in world.clients]
        assert fp["sites"] == [w.name for w in world.websites]


class TestBoundedTail:
    """The analysis tail reduces fields straight to entity axes: on a
    48-hour dataset no step peaks at one (C, S, H) uint32 plane, the
    size of the derived ``failures`` plane it used to build."""

    @pytest.fixture(scope="class")
    def day2(self):
        from repro.world.defaults import build_default_world
        from repro.world.outcome_model import AccessConfig
        from repro.world.rng import RNGRegistry
        from repro.world.simulator import MonthSimulator

        return MonthSimulator(
            build_default_world(hours=48), access=AccessConfig(per_hour=4),
            rngs=RNGRegistry(20050101),
        ).run().dataset

    @staticmethod
    def _peak(call):
        import gc
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_digest_headline_and_evidence_stay_below_one_plane(self, day2):
        from repro.core import permanent, report
        from repro.obs.runstore.evidence import collect_evidence

        plane = int(np.prod(day2.shape)) * 4
        mask = permanent.find_permanent_pairs(day2).mask
        for call in (
            day2.digest,
            lambda: report.headline_summary(day2),
            lambda: collect_evidence(day2, mask),
        ):
            assert self._peak(call) < plane
