"""Ground-truth fault processes.

This module generates, per hour of the experiment, the hidden state of the
world: which LDNS servers are unreachable, which client sites have lost WAN
connectivity, which servers/replicas are down or degraded, which
client-server pairs are permanently broken, and how BGP routing events
impair paths.  The analysis pipeline never sees any of this -- it only sees
the performance records the engines derive from it.

Rates are calibrated so the *analysis* reproduces the paper's findings
(see DESIGN.md section 5); the named profiles below encode the specific
hosts and sites the paper discusses (sina.com.cn, iitb.ac.in, the Intel
Pittsburgh pair, nodea.howard.edu, ...).

All state is represented as dense numpy arrays:

* ``client_up``        bool (C, H)  -- client machine making accesses
* ``ldns_fail``        float (C, H) -- P(DNS lookup fails: LDNS timeout)
* ``wan_fail``         float (C, H) -- P(an access is hit by client WAN loss)
* ``wan_dns_fail``     float (C, H) -- P(DNS also fails during WAN loss)
* ``site_fail``        float (S, H) -- correlated server-side failure prob
* ``replica_fail``     float (S, R, H) -- independent per-replica failure
* ``site_auth_timeout``float (S, H) -- P(non-LDNS timeout for the site)
* ``site_dns_error``   float (S, H) -- P(SERVFAIL/NXDOMAIN for the site)
* ``permanent_pair``   float (C, S) -- near-1 failure prob for broken pairs
* ``proxy_hostile``    float (S,)   -- extra failure prob for proxied fetches
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.bgp.churn import (
    ChurnConfig,
    ChurnGenerator,
    InstabilityEvent,
    failure_weight_by_prefix_hour,
)
from repro.bgp.messages import UpdateArchive
from repro.bgp.routeviews import CollectorFleet, default_sessions
from repro.net.addressing import Prefix
from repro.net.topology import Topology, build_default_core, random_attachments
from repro.world.entities import Client, ClientCategory, Website, World
from repro.world.rng import RNGRegistry


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


@dataclass
class FaultConfig:
    """Calibration knobs; defaults target the paper's headline numbers."""

    # Background transient failures ("other" blame category): per-access
    # probability that a transaction is hit by a short loss burst.
    background_tcp: Dict[str, float] = field(
        default_factory=lambda: {"PL": 0.0042, "DU": 0.0012, "CN": 0.0022, "BB": 0.0026}
    )
    #: Of background TCP failures, fraction presenting as no-connection /
    #: no-response / partial, per category.  Dialup and broadband links see
    #: relatively more mid-transfer trouble (Figure 3's category spread).
    background_tcp_mix: Dict[str, Tuple[float, float, float]] = field(
        default_factory=lambda: {
            "PL": (0.70, 0.15, 0.15),
            "DU": (0.35, 0.32, 0.33),
            "CN": (0.50, 0.25, 0.25),
            "BB": (0.25, 0.37, 0.38),
        }
    )
    #: Uniform background DNS error probability (misc lookup errors).
    background_dns_error: float = 0.00008
    #: Per-segment background packet loss on successful transfers, used
    #: for the retransmission-inferred loss counts (Section 4.1.3).
    background_packet_loss: float = 0.007
    #: Uniform background HTTP error probability (Figure 1: <2% of failures).
    background_http_error: float = 0.0003

    # Client machine downtime.
    machine_down_spells_per_month: float = 1.2
    machine_down_mean_hours: float = 9.0

    # LDNS outage process (site-level, shared by co-located clients).
    ldns_spells_per_month: Dict[str, float] = field(
        default_factory=lambda: {"PL": 0.8, "DU": 0.7, "CN": 1.2, "BB": 1.0}
    )
    ldns_mean_hours: float = 1.6
    ldns_fail_intensity: Tuple[float, float] = (0.4, 0.9)
    #: Probability a co-located client participates in its site's LDNS faults.
    ldns_participation: float = 0.62
    #: Per-client multiplicative jitter on a shared spell's intensity --
    #: co-located clients feel the same outage with different severity, so
    #: near-threshold episodes flag for one client but not its neighbour
    #: (Table 7's spread of similarities below 100%).
    ldns_client_jitter: Tuple[float, float] = (0.45, 1.15)
    #: Per-client private LDNS/resolver problems (spells/month).
    ldns_private_spells_per_month: float = 0.25
    #: Lognormal sigma for per-site rate heterogeneity.
    rate_sigma: float = 1.25
    #: A small fraction of PL clients are chronically unhealthy.
    chronic_client_probability: float = 0.042
    chronic_client_fraction: Tuple[float, float] = (0.15, 0.40)
    chronic_client_intensity: Tuple[float, float] = (0.18, 0.55)

    # Client WAN outage process (site-level).
    wan_spells_per_month: Dict[str, float] = field(
        default_factory=lambda: {"PL": 0.7, "DU": 0.25, "CN": 0.4, "BB": 0.35}
    )
    wan_mean_hours: float = 1.8
    wan_fail_intensity: Tuple[float, float] = (0.6, 1.0)
    #: P(DNS lookup also fails | WAN outage): the LDNS is local and caches,
    #: so most lookups still succeed -- which is what routes client problems
    #: into the TCP failure column (Section 4.4.4).
    wan_dns_coupling: float = 0.3

    # Server-side episode process for unnamed sites.
    server_no_episode_fraction: float = 0.30
    server_spells_per_month: float = 1.2
    server_mean_hours: float = 2.4
    server_intensity: Tuple[float, float] = (0.06, 0.20)
    #: Failure-mode mix during server episodes (no-conn dominates).
    server_mix: Tuple[float, float, float] = (0.80, 0.11, 0.09)

    # Independent per-replica outages for spread-replica sites.  The
    # chronic case (iitb.ac.in, Section 4.7) gets its own heavier rate.
    replica_spells_per_month: float = 1.5
    replica_mean_hours: float = 3.0
    replica_intensity: Tuple[float, float] = (0.9, 1.0)
    chronic_replica_sites: Dict[str, Tuple[float, float]] = field(
        default_factory=lambda: {"iitb.ac.in": (6.0, 7.0)}
    )

    # Permanent pairs.
    permanent_intensity_high: float = 0.998
    permanent_intensity_low: float = 0.93

    # Proxy-shared failures (Section 4.7): royal.gov.uk's unexplained case.
    proxy_hostile_sites: Dict[str, float] = field(
        default_factory=lambda: {"royal.gov.uk": 0.062}
    )
    #: royal.gov.uk also shows elevated failures for direct clients (1.38%).
    direct_elevated_sites: Dict[str, float] = field(
        default_factory=lambda: {"royal.gov.uk": 0.010}
    )

    # BGP churn configuration.
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    #: Scale applied to BGP path-fail weights when folded into failures.
    bgp_coupling: float = 0.9


#: Named server profiles: (episode_fraction_of_month, intensity_lo,
#: intensity_hi, long_stretch_hours).  Calibrated to Table 6.
NAMED_SERVER_PROFILES: Dict[str, Tuple[float, float, float, int]] = {
    # Table 6 counts episodes at replica granularity (sina: 764 over 2
    # replicas, iitb: 759 over 3), so the per-server hour fractions here are
    # the replica counts divided by (replicas x 744).
    "sina.com.cn": (0.55, 0.06, 0.22, 400),
    "iitb.ac.in": (0.35, 0.06, 0.22, 230),
    "sohu.com": (0.33, 0.06, 0.20, 60),
    "craigslist.org": (0.11, 0.06, 0.20, 24),
    "brazzil.com": (0.13, 0.06, 0.20, 20),
    "cs.technion.ac.il": (0.13, 0.06, 0.20, 18),
    "technion.ac.il": (0.06, 0.06, 0.20, 16),
    "chinabroadcast.cn": (0.12, 0.06, 0.20, 16),
    "ucl.ac.uk": (0.04, 0.06, 0.20, 12),
    "nih.gov": (0.047, 0.06, 0.20, 8),
    "mit.edu": (0.031, 0.06, 0.20, 6),
}

#: Sites whose authoritative DNS returns errors (Section 4.2: SERVFAIL /
#: NXDOMAIN from buggy or misconfigured servers).  Values are per-lookup
#: error probabilities sized so brazzil ~57% and espn ~30% of DNS errors.
DNS_ERROR_PROFILES: Dict[str, float] = {
    "brazzil.com": 0.028,
    "espn.go.com": 0.015,
}

#: Sites with flaky authoritative servers (non-LDNS timeouts); skewed
#: across sites per Figure 2's bottom-right curves.
AUTH_TIMEOUT_PROFILES: Dict[str, float] = {
    "iitm.ac.in": 0.006,
    "samachar.com": 0.005,
    "english.pravda.ru": 0.004,
    "cosmos.com.mx": 0.003,
    "sina.com.hk": 0.0025,
    "hku.hk": 0.002,
}
#: Uniform background auth-timeout probability for all other sites.
BACKGROUND_AUTH_TIMEOUT = 0.0003

#: The chronically broken client sites (Table 8).
CHRONIC_CLIENT_SITES: Dict[str, Tuple[float, float]] = {
    # site -> (fraction of hours in LDNS/client trouble, shared fraction)
    "pittsburgh.intel-research.net": (0.42, 0.98),
}

#: Columbia's odd trio: nodes 2 and 3 share a chronic site problem that
#: node 1 does not participate in (Table 8).
COLUMBIA_SITE = "comet.columbia.edu"
COLUMBIA_SHARED_FRACTION = 0.30
COLUMBIA_PRIVATE_FRACTION = 0.14
COLUMBIA_NONPARTICIPANT = "planetlab1.comet.columbia.edu"

#: Forced client downtime (the blank stretches in Figures 5 and 7), as
#: fractions of the experiment duration.
FORCED_DOWNTIME: Dict[str, Tuple[float, float]] = {
    "nodea.howard.edu": (0.730, 0.757),
    "planetlab1.kscy.internet2.planet-lab.org": (0.511, 0.545),
}

#: Forced BGP showcase events, as (fraction_of_month, duration_h, kind).
FORCED_BGP_EVENTS: Dict[str, Tuple[float, float, str, int]] = {
    # client name -> (start fraction, duration hours, kind, withdrawing sessions)
    "nodea.howard.edu": (0.409, 1.5, "severe", 72),
    "planetlab1.kscy.internet2.planet-lab.org": (0.866, 0.9, "localized", 2),
}


# --------------------------------------------------------------------------
# Ground truth container
# --------------------------------------------------------------------------


@dataclass
class GroundTruth:
    """Everything the engines need, plus truth kept for validation."""

    config: FaultConfig
    hours: int
    client_up: np.ndarray
    ldns_fail: np.ndarray
    wan_fail: np.ndarray
    wan_dns_fail: np.ndarray
    site_fail: np.ndarray
    site_mix: Tuple[float, float, float]
    replica_fail: np.ndarray
    site_auth_timeout: np.ndarray
    site_dns_error: np.ndarray
    site_http_error: np.ndarray
    permanent_pair: np.ndarray
    permanent_pair_kind: np.ndarray  # 0 none, 1 no-conn, 2 partial
    proxy_hostile: np.ndarray
    direct_elevated: np.ndarray
    bgp_client_fail: np.ndarray
    bgp_replica_fail: np.ndarray
    bgp_archive: UpdateArchive
    bgp_events: List[InstabilityEvent]
    prefix_of_client: Dict[str, Prefix]
    prefix_of_replica: Dict[Tuple[str, int], Prefix]

    def total_client_tcp_fail(self) -> np.ndarray:
        """Combined client-side TCP failure probability, shape (C, H)."""
        return 1.0 - (1.0 - self.wan_fail) * (1.0 - self.bgp_client_fail)

    def digest(self) -> str:
        """SHA-256 over the whole ground truth, in a fixed order.

        Covers every BGP update in archive order, the untracked
        announcement counts, the instability events, every array field
        in declaration order (name, dtype, shape, bytes) and the prefix
        maps.  Nothing here
        depends on set or hash order, so the value is the same under any
        ``PYTHONHASHSEED``; a refactor of the fault or BGP generators
        that moves it changed behaviour.
        """
        h = hashlib.sha256()
        h.update(f"hours {self.hours}\n".encode("ascii"))
        for u in self.bgp_archive.updates:
            h.update(
                f"u {u.timestamp!r} {u.session_id} {_prefix_key(u.prefix)} "
                f"{u.kind.value} {u.as_path}\n".encode("ascii")
            )
        for hour, count in self.bgp_archive.untracked_announcements():
            h.update(f"x {hour} {count}\n".encode("ascii"))
        for e in self.bgp_events:
            h.update(
                f"e {_prefix_key(e.prefix)} {e.start!r} {e.duration!r} "
                f"{e.path_fail_fraction!r} {e.withdrawing_sessions} "
                f"{e.kind}\n".encode("ascii")
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                arr = np.ascontiguousarray(value)
                h.update(f"a {f.name} {arr.dtype.str} {arr.shape}\n".encode("ascii"))
                h.update(arr.tobytes())
        for client, prefix in sorted(self.prefix_of_client.items()):
            h.update(f"c {client} {_prefix_key(prefix)}\n".encode("utf-8"))
        for (site, ri), prefix in sorted(self.prefix_of_replica.items()):
            h.update(f"r {site} {ri} {_prefix_key(prefix)}\n".encode("utf-8"))
        return h.hexdigest()


# --------------------------------------------------------------------------
# Generator
# --------------------------------------------------------------------------


class FaultGenerator:
    """Builds a :class:`GroundTruth` for a world."""

    def __init__(
        self,
        world: World,
        config: Optional[FaultConfig] = None,
        rngs: Optional[RNGRegistry] = None,
    ) -> None:
        self.world = world
        self.config = config or FaultConfig()
        self.rngs = rngs or RNGRegistry()

    # -- spell helper --------------------------------------------------------

    def _spells(
        self,
        rng,
        spells_per_month: float,
        mean_hours: float,
        heterogeneity: float = 0.0,
    ) -> List[Tuple[int, int]]:
        """Sample outage spells as (start_hour, end_hour) half-open pairs.

        The per-entity rate is multiplied by a lognormal factor when
        ``heterogeneity`` (sigma) is nonzero -- the source of heavy-tailed
        cross-entity skew.
        """
        hours = self.world.hours
        rate = spells_per_month * (hours / 744.0)
        if heterogeneity > 0.0:
            rate *= rng.lognormvariate(-heterogeneity**2 / 2.0, heterogeneity)
        count = _poisson(rng, rate)
        spells = []
        for _ in range(count):
            start = rng.randrange(hours)
            duration = max(1, round(rng.expovariate(1.0 / mean_hours)))
            spells.append((start, min(hours, start + duration)))
        return spells

    # -- client-side processes --------------------------------------------------

    def _client_machine_uptime(self) -> np.ndarray:
        hours = self.world.hours
        up = np.ones((len(self.world.clients), hours), dtype=bool)
        for ci, client in enumerate(self.world.clients):
            rng = self.rngs.stream(f"downtime:{client.name}")
            for start, end in self._spells(
                rng,
                self.config.machine_down_spells_per_month,
                self.config.machine_down_mean_hours,
            ):
                up[ci, start:end] = False
        for name, (f0, f1) in FORCED_DOWNTIME.items():
            try:
                ci = self.world.client_idx(name)
            except KeyError:
                continue
            up[ci, int(f0 * hours): int(f1 * hours)] = False
        return up

    def _ldns_process(self) -> np.ndarray:
        """LDNS unreachability probability per client-hour.

        Every site (and every chronic-tail client) draws from its own named
        RNG stream, so recalibrating one process does not reshuffle the
        rest of the world.
        """
        cfg = self.config
        hours = self.world.hours
        fail = np.zeros((len(self.world.clients), hours), dtype=np.float32)

        by_site: Dict[Tuple[ClientCategory, str], List[int]] = {}
        for ci, client in enumerate(self.world.clients):
            by_site.setdefault((client.category, client.site), []).append(ci)

        for (category, site), client_idxs in by_site.items():
            rng = self.rngs.stream(f"ldns:{category.value}:{site}")
            if site in CHRONIC_CLIENT_SITES:
                self._chronic_site(rng, fail, site, client_idxs)
                continue
            if site == COLUMBIA_SITE:
                self._columbia_site(rng, fail, client_idxs)
                continue
            spells = self._spells(
                rng,
                cfg.ldns_spells_per_month[category.value],
                cfg.ldns_mean_hours,
                heterogeneity=cfg.rate_sigma,
            )
            for start, end in spells:
                intensity = rng.uniform(*cfg.ldns_fail_intensity)
                # Participation is drawn per spell: not every shared-LDNS
                # incident touches every co-located host.
                participants = [
                    ci for ci in client_idxs
                    if len(client_idxs) == 1
                    or rng.random() < cfg.ldns_participation
                ]
                for ci in participants:
                    # Each co-located client feels the shared outage over
                    # its own sub-interval (hosts reconnect/recover at
                    # different times), so episode overlap is partial --
                    # Table 7's similarity spread below 100%.
                    c_start, c_end = _client_subspell(rng, start, end)
                    jitter = rng.uniform(*cfg.ldns_client_jitter)
                    fail[ci, c_start:c_end] = np.maximum(
                        fail[ci, c_start:c_end], min(1.0, intensity * jitter)
                    )
            # Private (per-client) resolver trouble on top.
            for ci in client_idxs:
                for start, end in self._spells(
                    rng, cfg.ldns_private_spells_per_month, cfg.ldns_mean_hours,
                    heterogeneity=cfg.rate_sigma,
                ):
                    intensity = rng.uniform(*cfg.ldns_fail_intensity)
                    fail[ci, start:end] = np.maximum(fail[ci, start:end], intensity)
        return fail

    def _chronic_tail(self) -> Tuple[np.ndarray, np.ndarray]:
        """The chronic client tail: a handful of persistently sick PL nodes.

        An overloaded node hurts both name resolution and data transfer, so
        chronic hours contribute to the LDNS *and* WAN failure arrays (the
        paper's worst clients show 10-20% overall failure rates and large
        client-side episode counts).  Returns (ldns_part, wan_part).
        """
        cfg = self.config
        hours = self.world.hours
        n_c = len(self.world.clients)
        ldns_part = np.zeros((n_c, hours), dtype=np.float32)
        wan_part = np.zeros((n_c, hours), dtype=np.float32)
        for ci, client in enumerate(self.world.clients):
            if client.category is not ClientCategory.PLANETLAB:
                continue
            if client.site in CHRONIC_CLIENT_SITES or client.site == COLUMBIA_SITE:
                continue
            rng = self.rngs.stream(f"chronic:{client.name}")
            if rng.random() >= cfg.chronic_client_probability:
                continue
            frac = rng.uniform(*cfg.chronic_client_fraction)
            for h in _sample_hour_set(rng, hours, frac, 6.0):
                intensity = rng.uniform(*cfg.chronic_client_intensity)
                ldns_part[ci, h] = max(ldns_part[ci, h], intensity * 0.93)
                wan_part[ci, h] = max(wan_part[ci, h], intensity * 0.05)
        return ldns_part, wan_part

    def _chronic_site(self, rng, fail, site, client_idxs) -> None:
        """Intel-Pittsburgh-style chronic shared LDNS trouble."""
        frac, shared = CHRONIC_CLIENT_SITES[site]
        hours = self.world.hours
        bad_hours = set()
        cursor = 0
        while len(bad_hours) < frac * hours and cursor < 10000:
            cursor += 1
            start = rng.randrange(hours)
            duration = max(1, round(rng.expovariate(1.0 / 7.0)))
            bad_hours.update(range(start, min(hours, start + duration)))
        for h in bad_hours:
            intensity = rng.uniform(0.08, 0.5)
            if rng.random() < shared:
                for ci in client_idxs:
                    fail[ci, h] = max(fail[ci, h], intensity * rng.uniform(0.8, 1.1))
            else:
                ci = rng.choice(client_idxs)
                fail[ci, h] = max(fail[ci, h], intensity)

    def _columbia_site(self, rng, fail, client_idxs) -> None:
        """Columbia's trio: a shared problem for nodes 2/3, none for node 1."""
        hours = self.world.hours
        participant_idxs = [
            ci for ci in client_idxs
            if self.world.clients[ci].name != COLUMBIA_NONPARTICIPANT
        ]
        outsider = [ci for ci in client_idxs if ci not in participant_idxs]
        shared_hours = _sample_hour_set(rng, hours, COLUMBIA_SHARED_FRACTION, 4.0)
        for h in shared_hours:
            intensity = rng.uniform(0.08, 0.5)
            for ci in participant_idxs:
                fail[ci, h] = max(fail[ci, h], intensity)
        for ci in participant_idxs:
            private = _sample_hour_set(rng, hours, COLUMBIA_PRIVATE_FRACTION, 3.0)
            for h in private:
                fail[ci, h] = max(fail[ci, h], rng.uniform(0.08, 0.5))
        for ci in outsider:
            private = _sample_hour_set(rng, hours, 0.012, 2.0)
            for h in private:
                fail[ci, h] = max(fail[ci, h], rng.uniform(0.08, 0.5))

    def _wan_process(self) -> Tuple[np.ndarray, np.ndarray]:
        """Client WAN outage probabilities (TCP and coupled-DNS)."""
        cfg = self.config
        hours = self.world.hours
        wan = np.zeros((len(self.world.clients), hours), dtype=np.float32)
        by_site: Dict[Tuple[ClientCategory, str], List[int]] = {}
        for ci, client in enumerate(self.world.clients):
            by_site.setdefault((client.category, client.site), []).append(ci)
        for (category, site), client_idxs in by_site.items():
            rng = self.rngs.stream(f"wan:{category.value}:{site}")
            spells = self._spells(
                rng,
                cfg.wan_spells_per_month[category.value],
                cfg.wan_mean_hours,
                heterogeneity=cfg.rate_sigma,
            )
            for start, end in spells:
                intensity = rng.uniform(*cfg.wan_fail_intensity)
                for ci in client_idxs:
                    wan[ci, start:end] = np.maximum(wan[ci, start:end], intensity)
        return wan, wan * cfg.wan_dns_coupling

    # -- server-side processes -----------------------------------------------------

    def _server_processes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Site-level (correlated) and replica-level failure probabilities."""
        cfg = self.config
        hours = self.world.hours
        n_sites = len(self.world.websites)
        max_r = max(1, self.world.max_replicas())
        site_fail = np.zeros((n_sites, hours), dtype=np.float32)
        replica_fail = np.zeros((n_sites, max_r, hours), dtype=np.float32)

        for si, site in enumerate(self.world.websites):
            rng = self.rngs.stream(f"server:{site.name}")
            profile = NAMED_SERVER_PROFILES.get(site.name)
            if profile is not None:
                self._named_server(rng, site_fail, si, profile)
            else:
                if rng.random() >= cfg.server_no_episode_fraction:
                    for start, end in self._spells(
                        rng, cfg.server_spells_per_month, cfg.server_mean_hours,
                        heterogeneity=cfg.rate_sigma,
                    ):
                        intensity = rng.uniform(*cfg.server_intensity)
                        site_fail[si, start:end] = np.maximum(
                            site_fail[si, start:end], intensity
                        )
            # Independent replica outages for spread-replica sites.
            if not site.cdn and site.multi_replica and not site.replicas_same_subnet:
                spells_rate, mean_h = cfg.chronic_replica_sites.get(
                    site.name, (cfg.replica_spells_per_month, cfg.replica_mean_hours)
                )
                for r in range(site.num_replicas):
                    for start, end in self._spells(rng, spells_rate, mean_h):
                        intensity = rng.uniform(*cfg.replica_intensity)
                        replica_fail[si, r, start:end] = np.maximum(
                            replica_fail[si, r, start:end], intensity
                        )
        return site_fail, replica_fail

    def _named_server(self, rng, site_fail, si, profile) -> None:
        frac, lo, hi, stretch = profile
        hours = self.world.hours
        scaled_stretch = max(1, round(stretch * hours / 744.0))
        target = round(frac * hours)
        # One long stretch anchored mid-month, then random spells to target.
        start = rng.randrange(max(1, hours - scaled_stretch))
        chosen = set(range(start, min(hours, start + scaled_stretch)))
        guard = 0
        while len(chosen) < target and guard < 20000:
            guard += 1
            s = rng.randrange(hours)
            duration = max(1, round(rng.expovariate(1.0 / 4.0)))
            chosen.update(range(s, min(hours, s + duration)))
        for h in chosen:
            site_fail[si, h] = max(site_fail[si, h], rng.uniform(lo, hi))

    def _dns_server_processes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Authoritative-timeout and DNS-error probabilities per site-hour."""
        hours = self.world.hours
        n_sites = len(self.world.websites)
        auth = np.full((n_sites, hours), BACKGROUND_AUTH_TIMEOUT, dtype=np.float32)
        error = np.full(
            (n_sites, hours), self.config.background_dns_error, dtype=np.float32
        )
        for si, site in enumerate(self.world.websites):
            rng = self.rngs.stream(f"dns-server:{site.name}")
            if site.name in AUTH_TIMEOUT_PROFILES:
                base = AUTH_TIMEOUT_PROFILES[site.name]
                # Flakiness concentrates in spells, not uniformly.
                for start, end in self._spells(rng, 10.0, 12.0):
                    auth[si, start:end] = np.maximum(
                        auth[si, start:end], base * rng.uniform(5.0, 12.0)
                    )
                auth[si] = np.maximum(auth[si], base * 0.3)
            if site.name in DNS_ERROR_PROFILES:
                error[si, :] = DNS_ERROR_PROFILES[site.name]
        return auth, error

    # -- permanent pairs --------------------------------------------------------

    def _permanent_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The 38 near-permanently-broken client-server pairs (Section 4.4.2)."""
        rng = self.rngs.stream("permanent")
        cfg = self.config
        n_c, n_s = len(self.world.clients), len(self.world.websites)
        prob = np.zeros((n_c, n_s), dtype=np.float32)
        kind = np.zeros((n_c, n_s), dtype=np.int8)

        pl = [c for c in self.world.clients if c.category is ClientCategory.PLANETLAB]
        named_blocked = ["planetlab1.hp.com", "planetlab1.epfl.ch",
                         "planetlab1.nyu.edu", "planetlab1.unito.it",
                         "planetlab1.postel.org"]
        other_pl = [c.name for c in pl if c.name not in named_blocked]
        rng.shuffle(other_pl)

        def block(client_name: str, site_name: str, high: bool, pair_kind: int = 1):
            ci = self.world.client_idx(client_name)
            si = self.world.site_idx(site_name)
            prob[ci, si] = (
                cfg.permanent_intensity_high if high else cfg.permanent_intensity_low
            )
            # repro: lint-ok[DTY001] int8 holds a categorical pair-kind code (0/1/2), not a count that can accumulate past the dtype
            kind[ci, si] = pair_kind

        cursor = 0
        # sina.com.cn: the 5 named clients + 4 more (9 pairs).
        for name in named_blocked + other_pl[cursor:cursor + 4]:
            block(name, "sina.com.cn", high=True)
        cursor += 4
        # sohu.com: the 5 named clients + 3 more (8 pairs).
        for name in named_blocked + other_pl[cursor:cursor + 3]:
            block(name, "sohu.com", high=True)
        cursor += 3
        # msn.com.tw: 10 distinct PL clients.
        for name in other_pl[cursor:cursor + 10]:
            block(name, "msn.com.tw", high=True)
        cursor += 10
        # northwestern <-> mp3.com: TCP checksum corruption -> partial resp.
        block("planetlab1.northwestern.edu", "mp3.com", high=True, pair_kind=2)
        # 10 more scattered pairs; 4 of the 38 are "only" >90% broken.
        scatter_sites = ["chinabroadcast.cn", "alibaba.com", "sina.com.hk",
                         "rediff.com", "terra.com", "iitm.ac.in",
                         "cosmos.com.mx", "nttdocomo.co.jp", "samachar.com",
                         "english.pravda.ru"]
        for i, site_name in enumerate(scatter_sites):
            block(other_pl[cursor + i], site_name, high=(i >= 4))
        return prob, kind

    # -- BGP --------------------------------------------------------------------

    def _build_bgp(self) -> Tuple[
        np.ndarray, np.ndarray, UpdateArchive, List[InstabilityEvent],
        Dict[str, Prefix], Dict[Tuple[str, int], Prefix],
    ]:
        rng = self.rngs.stream("bgp")
        hours = self.world.hours

        topology = Topology()
        transit = build_default_core(topology)
        archive = UpdateArchive(table_size=120_000)
        sessions = default_sessions(transit, rng)
        fleet = CollectorFleet(sessions, archive, rng)

        # One edge AS per distinct primary prefix.
        prefix_of_client: Dict[str, Prefix] = {}
        prefix_of_replica: Dict[Tuple[str, int], Prefix] = {}
        prefix_attachments: Dict[Prefix, List[Tuple[int, float]]] = {}
        next_asn = 64500

        def register(prefix: Prefix, force_dual: bool = False):
            nonlocal next_asn
            if prefix in prefix_attachments:
                return
            count = 2 if force_dual else None
            attachments = random_attachments(transit, rng, count=count)
            topology.add_edge(next_asn, attachments)
            topology.originate(prefix, next_asn)
            next_asn += 1
            pairs = [(a.transit_asn, a.weight) for a in attachments]
            prefix_attachments[prefix] = pairs
            fleet.seed_prefix(
                prefix,
                [asn for asn, _ in pairs],
                [w for _, w in pairs],
                timestamp=0.0,
            )

        for client in self.world.clients:
            prefix = client.primary_prefix
            prefix_of_client[client.name] = prefix
            register(prefix, force_dual=client.name in FORCED_BGP_EVENTS)
        for site in self.world.websites:
            for ri, replica in enumerate(site.replicas):
                prefix = replica.primary_prefix
                prefix_of_replica[(site.name, ri)] = prefix
                register(prefix)

        forced: List[InstabilityEvent] = []
        for client_name, (f0, dur_h, kind, n_sessions) in FORCED_BGP_EVENTS.items():
            if client_name not in prefix_of_client:
                continue
            prefix = prefix_of_client[client_name]
            n_avail = len(fleet.sessions_with_route(prefix))
            forced.append(
                InstabilityEvent(
                    prefix=prefix,
                    start=f0 * hours * 3600.0,
                    duration=dur_h * 3600.0,
                    path_fail_fraction=0.95 if kind == "severe" else 0.60,
                    withdrawing_sessions=min(n_sessions, n_avail),
                    kind=kind,
                )
            )

        generator = ChurnGenerator(fleet, self.config.churn, rng, hours)
        events = generator.run(prefix_attachments, forced_events=forced)
        # Group the (prefix, hour) weights by prefix once, so each client
        # and replica reads only its own prefix's hours.
        hour_weights: Dict[Prefix, List[Tuple[int, float]]] = {}
        for (pfx, hour), w in failure_weight_by_prefix_hour(events, hours).items():
            hour_weights.setdefault(pfx, []).append(
                (hour, min(1.0, w * self.config.bgp_coupling))
            )

        client_fail = np.zeros((len(self.world.clients), hours), dtype=np.float32)
        for ci, client in enumerate(self.world.clients):
            for hour, w in hour_weights.get(prefix_of_client[client.name], ()):
                client_fail[ci, hour] = w

        max_r = max(1, self.world.max_replicas())
        replica_bgp = np.zeros(
            (len(self.world.websites), max_r, hours), dtype=np.float32
        )
        for si, site in enumerate(self.world.websites):
            for ri in range(site.num_replicas):
                prefix = prefix_of_replica[(site.name, ri)]
                for hour, w in hour_weights.get(prefix, ()):
                    replica_bgp[si, ri, hour] = w
        return (client_fail, replica_bgp, archive, events,
                prefix_of_client, prefix_of_replica)

    # -- assembly -----------------------------------------------------------------

    @obs.span("world.faults.generate")
    def generate(self) -> GroundTruth:
        """Run every fault process and assemble the ground truth."""
        cfg = self.config
        n_sites = len(self.world.websites)
        hours = self.world.hours

        client_up = self._client_machine_uptime()
        ldns_fail = self._ldns_process()
        wan_fail, wan_dns_fail = self._wan_process()
        chronic_ldns, chronic_wan = self._chronic_tail()
        ldns_fail = np.maximum(ldns_fail, chronic_ldns)
        wan_fail = np.maximum(wan_fail, chronic_wan)
        wan_dns_fail = np.maximum(
            wan_dns_fail, chronic_wan * self.config.wan_dns_coupling
        )
        site_fail, replica_fail = self._server_processes()
        auth_timeout, dns_error = self._dns_server_processes()
        permanent, permanent_kind = self._permanent_pairs()
        (bgp_client, bgp_replica, archive, events,
         prefix_of_client, prefix_of_replica) = self._build_bgp()

        http_error = np.full(
            (n_sites, hours), cfg.background_http_error, dtype=np.float32
        )
        proxy_hostile = np.zeros(n_sites, dtype=np.float32)
        direct_elevated = np.zeros(n_sites, dtype=np.float32)
        for name, p in cfg.proxy_hostile_sites.items():
            proxy_hostile[self.world.site_idx(name)] = p
        for name, p in cfg.direct_elevated_sites.items():
            direct_elevated[self.world.site_idx(name)] = p

        return GroundTruth(
            config=cfg,
            hours=hours,
            client_up=client_up,
            ldns_fail=ldns_fail,
            wan_fail=wan_fail,
            wan_dns_fail=wan_dns_fail,
            site_fail=site_fail,
            site_mix=cfg.server_mix,
            replica_fail=replica_fail,
            site_auth_timeout=auth_timeout,
            site_dns_error=dns_error,
            site_http_error=http_error,
            permanent_pair=permanent,
            permanent_pair_kind=permanent_kind,
            proxy_hostile=proxy_hostile,
            direct_elevated=direct_elevated,
            bgp_client_fail=bgp_client,
            bgp_replica_fail=bgp_replica,
            bgp_archive=archive,
            bgp_events=events,
            prefix_of_client=prefix_of_client,
            prefix_of_replica=prefix_of_replica,
        )


# --------------------------------------------------------------------------
# Small helpers
# --------------------------------------------------------------------------


def _poisson(rng, mean: float) -> int:
    """Poisson sample via Knuth's method (small means)."""
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    k = 0
    product = rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


def _sample_hour_set(rng, hours: int, fraction: float, mean_spell: float) -> Set[int]:
    """A set of hours covering ~``fraction`` of the experiment in spells."""
    chosen: Set[int] = set()
    target = round(fraction * hours)
    guard = 0
    while len(chosen) < target and guard < 20000:
        guard += 1
        start = rng.randrange(hours)
        duration = max(1, round(rng.expovariate(1.0 / mean_spell)))
        chosen.update(range(start, min(hours, start + duration)))
    return chosen


def _prefix_key(prefix: Prefix) -> str:
    """A prefix as ``network/length`` integers for :meth:`GroundTruth.digest`."""
    return f"{prefix.network}/{prefix.length}"


def _client_subspell(rng, start: int, end: int) -> Tuple[int, int]:
    """A client's own sub-interval of a shared outage spell.

    Keeps 50-100% of the spell, anchored at a random offset; 1-hour spells
    are returned unchanged.
    """
    duration = end - start
    if duration <= 1:
        return start, end
    keep = max(1, round(duration * rng.uniform(0.4, 0.9)))
    offset = rng.randrange(0, duration - keep + 1)
    return start + offset, start + offset + keep
