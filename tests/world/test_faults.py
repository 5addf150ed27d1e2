"""Tests for the ground-truth fault generator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.world.defaults import build_default_world
from repro.world.entities import ClientCategory
from repro.world.faults import (
    FORCED_BGP_EVENTS,
    FORCED_DOWNTIME,
    NAMED_SERVER_PROFILES,
    FaultGenerator,
)
from repro.world.rng import RNGRegistry


class TestShapesAndRanges:
    def test_array_shapes(self, world, truth):
        c, s, h = len(world.clients), len(world.websites), world.hours
        assert truth.client_up.shape == (c, h)
        assert truth.ldns_fail.shape == (c, h)
        assert truth.wan_fail.shape == (c, h)
        assert truth.site_fail.shape == (s, h)
        assert truth.replica_fail.shape[0] == s
        assert truth.permanent_pair.shape == (c, s)

    def test_probabilities_in_range(self, truth):
        for array in (
            truth.ldns_fail, truth.wan_fail, truth.wan_dns_fail,
            truth.site_fail, truth.replica_fail, truth.site_auth_timeout,
            truth.site_dns_error, truth.permanent_pair,
            truth.bgp_client_fail, truth.bgp_replica_fail,
        ):
            assert float(array.min()) >= 0.0
            assert float(array.max()) <= 1.0


class TestClientProcesses:
    def test_clients_mostly_up(self, truth):
        assert truth.client_up.mean() > 0.9

    def test_forced_downtime_applied(self, world, truth):
        hours = world.hours
        for name, (f0, f1) in FORCED_DOWNTIME.items():
            ci = world.client_idx(name)
            assert not truth.client_up[ci, int(f0 * hours): int(f1 * hours)].any()

    def test_intel_pair_chronic(self, world, truth):
        """The Intel-Pittsburgh pair shares heavy client-side trouble."""
        a = world.client_idx("planet1.pittsburgh.intel-research.net")
        b = world.client_idx("planet2.pittsburgh.intel-research.net")
        assert truth.ldns_fail[a].mean() > 5 * truth.ldns_fail.mean()
        both = (truth.ldns_fail[a] > 0) & (truth.ldns_fail[b] > 0)
        either = (truth.ldns_fail[a] > 0) | (truth.ldns_fail[b] > 0)
        assert both.sum() / max(1, either.sum()) > 0.8  # heavily shared

    def test_columbia_split(self, world, truth):
        """Columbia node 1 does not share nodes 2/3's chronic problem."""
        n1 = world.client_idx("planetlab1.comet.columbia.edu")
        n2 = world.client_idx("planetlab2.comet.columbia.edu")
        n3 = world.client_idx("planetlab3.comet.columbia.edu")
        assert truth.ldns_fail[n2].mean() > 5 * truth.ldns_fail[n1].mean()
        assert truth.ldns_fail[n3].mean() > 5 * truth.ldns_fail[n1].mean()

    def test_wan_dns_coupling_fraction(self, truth):
        nonzero = truth.wan_fail > 0
        if nonzero.any():
            ratio = truth.wan_dns_fail[nonzero] / truth.wan_fail[nonzero]
            assert np.allclose(ratio, truth.config.wan_dns_coupling)


class TestServerProcesses:
    def test_named_profiles_dominant(self, world, truth):
        """sina.com.cn and iitb.ac.in must be the most degraded sites."""
        means = truth.site_fail.mean(axis=1)
        top2 = {world.websites[i].name for i in np.argsort(means)[::-1][:2]}
        assert top2 == {"sina.com.cn", "iitb.ac.in"}

    def test_named_profile_fractions(self, world, truth):
        for name, (frac, _, _, _) in NAMED_SERVER_PROFILES.items():
            si = world.site_idx(name)
            measured = (truth.site_fail[si] > 0).mean()
            assert measured >= 0.6 * frac, name

    def test_iitb_replicas_fail_independently(self, world, truth):
        si = world.site_idx("iitb.ac.in")
        per_replica_down = (truth.replica_fail[si, :3] > 0.5).mean(axis=1)
        # The replica set sees nontrivial outage time overall (at the short
        # test duration an individual replica can get lucky), and the
        # replicas are far from perfectly correlated: simultaneous
        # all-replica outages are rarer than any single replica's outages.
        assert per_replica_down.sum() > 0.02
        assert (per_replica_down > 0).sum() >= 2
        all_down = (truth.replica_fail[si, :3] > 0.5).all(axis=0).mean()
        assert all_down < per_replica_down.max()

    def test_same_subnet_sites_have_no_replica_outages(self, world, truth):
        si = world.site_idx("google.com")  # same-subnet multi-replica
        assert truth.replica_fail[si].max() == 0.0

    def test_dns_error_profiles(self, world, truth):
        brazzil = world.site_idx("brazzil.com")
        espn = world.site_idx("espn.go.com")
        other = world.site_idx("mit.edu")
        assert truth.site_dns_error[brazzil].mean() > truth.site_dns_error[espn].mean()
        assert truth.site_dns_error[espn].mean() > truth.site_dns_error[other].mean()


class TestPermanentPairs:
    def test_exactly_38(self, truth):
        assert int((truth.permanent_pair > 0).sum()) == 38  # Section 4.4.2

    def test_site_distribution(self, world, truth):
        per_site = (truth.permanent_pair > 0).sum(axis=0)
        by_name = {world.websites[i].name: int(per_site[i])
                   for i in range(len(world.websites)) if per_site[i]}
        assert by_name["sina.com.cn"] == 9
        assert by_name["sohu.com"] == 8
        assert by_name["msn.com.tw"] == 10
        assert by_name["mp3.com"] == 1

    def test_northwestern_mp3_is_partial_kind(self, world, truth):
        ci = world.client_idx("planetlab1.northwestern.edu")
        si = world.site_idx("mp3.com")
        assert truth.permanent_pair_kind[ci, si] == 2

    def test_only_planetlab_clients(self, world, truth):
        rows = np.nonzero((truth.permanent_pair > 0).any(axis=1))[0]
        for ci in rows:
            assert world.clients[ci].category is ClientCategory.PLANETLAB


class TestBGPCoupling:
    def test_forced_events_present(self, world, truth):
        for client_name in FORCED_BGP_EVENTS:
            prefix = truth.prefix_of_client[client_name]
            assert any(e.prefix == prefix for e in truth.bgp_events)

    def test_howard_event_impairs_connectivity(self, world, truth):
        ci = world.client_idx("nodea.howard.edu")
        f0, _, _, _ = FORCED_BGP_EVENTS["nodea.howard.edu"]
        hour = int(f0 * world.hours)
        assert truth.bgp_client_fail[ci, hour: hour + 2].max() > 0.3

    def test_bgp_rare_overall(self, truth):
        assert (truth.bgp_client_fail > 0.5).mean() < 0.01

    def test_archive_populated(self, truth):
        assert len(truth.bgp_archive) > 0
        assert truth.bgp_events


class TestProxyFaults:
    def test_royal_flagged(self, world, truth):
        si = world.site_idx("royal.gov.uk")
        assert truth.proxy_hostile[si] > 0.03
        assert truth.direct_elevated[si] > 0.0
        assert truth.proxy_hostile.sum() == truth.proxy_hostile[si]


#: ``GroundTruth.digest()`` for the default world and seed, recorded before
#: the collector fleet gained its per-prefix route index.  A change that
#: moves either value changed the ground truth, the BGP archive included.
PINNED_TRUTH_DIGESTS = {
    24: "ce542b143e2794527a2b1bbd8957f529c7a10f514f4f45a70b5487e6f076b86b",
    48: "8dce7679a5b06d8518494ae88b14838e420364c748a31e7d499927420510a1d2",
}

_DIGEST_SCRIPT = """
from repro.world.defaults import build_default_world
from repro.world.faults import FaultGenerator
from repro.world.rng import RNGRegistry
world = build_default_world(hours=24)
truth = FaultGenerator(world, rngs=RNGRegistry(20050101).fork("faults")).generate()
print(truth.digest())
"""


def _default_truth(hours):
    world = build_default_world(hours=hours)
    return FaultGenerator(world, rngs=RNGRegistry(20050101).fork("faults")).generate()


class TestTruthDigest:
    @pytest.mark.parametrize("hours", sorted(PINNED_TRUTH_DIGESTS))
    def test_pinned_default_seed(self, hours):
        assert _default_truth(hours).digest() == PINNED_TRUTH_DIGESTS[hours]

    def test_covers_bgp_archive(self):
        truth = _default_truth(24)
        before = truth.digest()
        truth.bgp_archive.note_untracked_announcements(0, 1)
        assert truth.digest() != before

    def test_independent_of_hash_seed(self):
        """The fleet iterates a set of prefixes, so the archive order would
        follow ``Prefix.__hash__`` if that ever depended on the hash seed."""
        src = str(Path(repro.__file__).resolve().parents[1])
        digests = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1] == PINNED_TRUTH_DIGESTS[24]
