"""Tests for BGP updates and the archive's hourly aggregation."""

import pytest

from repro.bgp.messages import BGPUpdate, UpdateArchive, UpdateKind
from repro.net.addressing import Prefix

P1 = Prefix.parse("10.1.0.0/24")
P2 = Prefix.parse("10.2.0.0/24")


def update(t, session, prefix=P1, kind=UpdateKind.ANNOUNCE):
    return BGPUpdate(timestamp=t, session_id=session, prefix=prefix, kind=kind)


class TestArchiveBasics:
    def test_add_and_len(self):
        archive = UpdateArchive()
        archive.add(update(0.0, 1))
        archive.extend([update(1.0, 2), update(2.0, 3)])
        assert len(archive) == 3

    def test_hour_binning(self):
        archive = UpdateArchive(epoch=0.0)
        assert archive.hour_of(0.0) == 0
        assert archive.hour_of(3599.9) == 0
        assert archive.hour_of(3600.0) == 1

    def test_epoch_offset(self):
        archive = UpdateArchive(epoch=7200.0)
        assert archive.hour_of(7200.0) == 0

    def test_updates_for_prefix_sorted(self):
        archive = UpdateArchive()
        archive.add(update(5.0, 1))
        archive.add(update(1.0, 2))
        archive.add(update(3.0, 1, prefix=P2))
        hits = archive.updates_for(P1)
        assert [u.timestamp for u in hits] == [1.0, 5.0]

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            update(-1.0, 1)

    def test_table_size_validated(self):
        with pytest.raises(ValueError):
            UpdateArchive(table_size=0)


class TestHourlyStats:
    def test_counts_and_neighbor_sets(self):
        archive = UpdateArchive()
        archive.add(update(10.0, 1, kind=UpdateKind.WITHDRAW))
        archive.add(update(20.0, 1, kind=UpdateKind.WITHDRAW))
        archive.add(update(30.0, 2, kind=UpdateKind.WITHDRAW))
        archive.add(update(40.0, 3, kind=UpdateKind.ANNOUNCE))
        stats = archive.hourly_stats()
        bucket = stats[(P1, 0)]
        assert bucket.withdrawals == 3
        assert bucket.withdrawing_neighbors == 2  # sessions 1 and 2
        assert bucket.announcements == 1
        assert bucket.announcing_neighbors == 1

    def test_separate_hours_separate_buckets(self):
        archive = UpdateArchive()
        archive.add(update(10.0, 1))
        archive.add(update(3700.0, 1))
        stats = archive.hourly_stats()
        assert (P1, 0) in stats and (P1, 1) in stats

    def test_separate_prefixes_separate_buckets(self):
        archive = UpdateArchive()
        archive.add(update(10.0, 1, prefix=P1))
        archive.add(update(10.0, 1, prefix=P2))
        assert len(archive.hourly_stats()) == 2


class TestGlobalStats:
    def test_tracked_prefixes_counted(self):
        archive = UpdateArchive()
        archive.add(update(10.0, 1, prefix=P1))
        archive.add(update(10.0, 2, prefix=P2))
        stats = archive.global_stats()
        assert stats[0].unique_prefixes_announced == 2

    def test_untracked_announcements_add_volume(self):
        archive = UpdateArchive(table_size=1000)
        archive.add(update(10.0, 1))
        archive.note_untracked_announcements(0, 600)
        stats = archive.global_stats()
        assert stats[0].unique_prefixes_announced == 601

    def test_untracked_validation(self):
        archive = UpdateArchive()
        with pytest.raises(ValueError):
            archive.note_untracked_announcements(0, -5)

    def test_withdrawals_do_not_count_as_announced(self):
        archive = UpdateArchive()
        archive.add(update(10.0, 1, kind=UpdateKind.WITHDRAW))
        stats = archive.global_stats()
        assert stats[0].unique_prefixes_announced == 0
        assert stats[0].total_updates == 1


class TestUpdateRecord:
    def test_equal_records_compare_and_hash_equal(self):
        a = BGPUpdate(5.0, 1, P1, UpdateKind.ANNOUNCE, (7, 9))
        b = BGPUpdate(
            timestamp=5.0, session_id=1, prefix=P1,
            kind=UpdateKind.ANNOUNCE, as_path=(7, 9),
        )
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != BGPUpdate(5.0, 2, P1, UpdateKind.ANNOUNCE, (7, 9))

    def test_fields_and_default_path(self):
        u = update(3.0, 4, kind=UpdateKind.WITHDRAW)
        assert (u.timestamp, u.session_id, u.prefix, u.kind, u.as_path) == (
            3.0, 4, P1, UpdateKind.WITHDRAW, ()
        )

    def test_immutable(self):
        u = update(1.0, 1)
        with pytest.raises(AttributeError):
            u.timestamp = 2.0
        with pytest.raises(AttributeError):
            u.note = "extra"

    def test_negative_timestamp_refused_in_any_form(self):
        with pytest.raises(ValueError, match="negative timestamp"):
            BGPUpdate(-0.5, 1, P1, UpdateKind.ANNOUNCE)
        assert update(0.0, 1).timestamp == 0.0
