"""Tests for the permanent-pair diagnosis (the deferred Section 4.4.2
investigation)."""

import pytest

from repro.core import diagnosis


@pytest.fixture(scope="module")
def investigation(dataset, perm_report):
    return diagnosis.investigate_permanent_failures(dataset, perm_report)


class TestDiagnoses:
    def test_all_pairs_diagnosed(self, investigation, perm_report):
        assert len(investigation.diagnoses) == perm_report.count

    def test_signature_fractions_sum_to_one(self, investigation):
        for d in investigation.diagnoses:
            assert sum(d.signature.values()) == pytest.approx(1.0)

    def test_blocked_dominates(self, investigation):
        """Most permanent pairs are SYN-level blocks (the censorship-like
        pattern the paper observes for the Chinese sites)."""
        by_mode = investigation.by_mode()
        blocked = by_mode.get(diagnosis.PermanentFailureMode.BLOCKED, [])
        assert len(blocked) > len(investigation.diagnoses) / 2

    def test_northwestern_mp3_diagnosed_as_corruption(self, investigation):
        """The checksum-error pair presents as corrupted transfers."""
        target = next(
            d for d in investigation.diagnoses
            if d.pair.client_name == "planetlab1.northwestern.edu"
            and d.pair.site_name == "mp3.com"
        )
        assert target.mode is diagnosis.PermanentFailureMode.CORRUPTED_TRANSFER

    def test_northwestern_mp3_is_pair_specific(self, investigation):
        """Section 4.4.2: 'this problem does not affect other clients when
        they access this server or the clients at northwestern.edu when
        they access other servers.'"""
        target = next(
            d for d in investigation.diagnoses
            if d.pair.site_name == "mp3.com"
        )
        assert target.pair_specific
        assert target.client_elsewhere_rate < 0.1
        assert target.server_elsewhere_rate < 0.1


class TestPinnedFormula:
    def test_diagnoses_match_whole_plane_formula(self, dataset, investigation):
        """Field-by-field slice sums give exactly what the derived
        (C, S, H) planes give for every permanent pair."""
        failures, dns_failures = dataset.failures, dataset.dns_failures
        for d in investigation.diagnoses:
            ci = dataset.world.client_idx(d.pair.client_name)
            si = dataset.world.site_idx(d.pair.site_name)
            noconn = int(dataset.tcp_noconn[ci, si].sum())
            noresp = int(dataset.tcp_noresp[ci, si].sum())
            partial = int(
                dataset.tcp_partial[ci, si].sum()
                + dataset.tcp_ambiguous[ci, si].sum()
            )
            dns = int(dns_failures[ci, si].sum())
            total = max(1, noconn + noresp + partial + dns)
            assert d.signature == {
                "no_connection": noconn / total,
                "no_response": noresp / total,
                "partial_response": partial / total,
                "dns": dns / total,
            }
            pair_trans = int(dataset.transactions[ci, si].sum())
            pair_fails = int(failures[ci, si].sum())
            client_trans = int(dataset.transactions[ci].sum()) - pair_trans
            client_fails = int(failures[ci].sum()) - pair_fails
            server_trans = int(dataset.transactions[:, si].sum()) - pair_trans
            server_fails = int(failures[:, si].sum()) - pair_fails
            assert d.client_elsewhere_rate == client_fails / max(1, client_trans)
            assert d.server_elsewhere_rate == server_fails / max(1, server_trans)


class TestGrouping:
    def test_chinese_sites_widely_blocked(self, investigation):
        groups = investigation.blocked_site_groups(min_clients=3)
        assert "msn.com.tw" in groups
        assert "sina.com.cn" in groups
        assert "sohu.com" in groups
        assert len(groups["msn.com.tw"]) >= 8

    def test_sina_not_pair_specific(self, investigation):
        """sina.com.cn is broken for many clients AND degraded overall, so
        its pairs are not strictly pairwise problems."""
        sina = [
            d for d in investigation.diagnoses
            if d.pair.site_name == "sina.com.cn"
        ]
        assert sina
        assert not any(d.pair_specific for d in sina)

    def test_summary_renders(self, investigation):
        text = investigation.summary()
        assert "permanent pairs diagnosed" in text
        assert "blocked" in text
