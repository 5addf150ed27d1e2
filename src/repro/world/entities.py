"""Entities of the measurement world: clients, websites, replicas, proxies.

These are pure descriptions -- the fault layer attaches behaviour to them.
The structure mirrors Tables 1 and 2 of the paper: clients carry a category
(PL/DU/CN/BB), a *site* (the co-location unit used by the similarity
analysis of Section 4.4.6), an IP address and covering prefix(es); websites
carry a region, a replica set (Section 4.5), and DNS/CDN structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dns.message import normalize_name
from repro.net.addressing import IPv4Address, Prefix


class ClientCategory(enum.Enum):
    """The four client populations of Table 1."""

    PLANETLAB = "PL"
    DIALUP = "DU"
    CORPNET = "CN"
    BROADBAND = "BB"

    @property
    def has_packet_traces(self) -> bool:
        """Whether tcpdump/windump ran on this category (Section 3.4: not
        on BB clients; CN traces exist but only show the proxy hop)."""
        return self in (ClientCategory.PLANETLAB, ClientCategory.DIALUP)

    @property
    def behind_proxy(self) -> bool:
        """Whether accesses are forced through a caching proxy."""
        return self is ClientCategory.CORPNET


class SiteRegion(enum.Enum):
    """Coarse geography, used for latency and path modelling."""

    US = "us"
    EUROPE = "europe"
    ASIA = "asia"
    OTHER = "other"


@dataclass(frozen=True)
class Client:
    """One measurement client (or DU "virtual client", i.e. one PoP).

    ``site`` is the co-location key: clients sharing a site share last-mile
    infrastructure, LDNS, and IP prefix.  ``proxy_name`` is set for CN
    clients routed through a proxy; ``provider`` records the DU PoP's ISP.
    """

    name: str
    category: ClientCategory
    site: str
    region: SiteRegion
    address: IPv4Address
    prefixes: Tuple[Prefix, ...]
    proxy_name: Optional[str] = None
    provider: Optional[str] = None
    city: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("client needs a name")
        if not self.prefixes:
            raise ValueError(f"client {self.name} needs at least one prefix")
        for prefix in self.prefixes:
            if not prefix.contains(self.address):
                raise ValueError(
                    f"client {self.name}: {self.address} not in {prefix}"
                )
    @property
    def proxied(self) -> bool:
        """True when the client's web accesses go through a proxy.

        All CN clients except SEAEXT (which sits outside the corporate
        firewall but shares the Seattle WAN connectivity) are proxied.
        """
        return self.proxy_name is not None

    @property
    def primary_prefix(self) -> Prefix:
        """The most specific covering prefix."""
        return max(self.prefixes, key=lambda p: p.length)


@dataclass(frozen=True)
class Replica:
    """One server IP address of a website (Section 4.5's unit)."""

    address: IPv4Address
    prefixes: Tuple[Prefix, ...]

    def __post_init__(self) -> None:
        if not self.prefixes:
            raise ValueError("replica needs at least one prefix")
        for prefix in self.prefixes:
            if not prefix.contains(self.address):
                raise ValueError(f"replica {self.address} not in {prefix}")

    @property
    def primary_prefix(self) -> Prefix:
        """The most specific covering prefix."""
        return max(self.prefixes, key=lambda p: p.length)


class SiteCategory(enum.Enum):
    """Website groups from Table 2."""

    US_EDU = "US-EDU"
    US_POPULAR = "US-POPULAR"
    US_MISC = "US-MISC"
    INTL_EDU = "INTL-EDU"
    INTL_POPULAR = "INTL-POPULAR"
    INTL_MISC = "INTL-MISC"


@dataclass(frozen=True)
class Website:
    """One of the 80 target websites.

    ``replicas`` are the qualifying server addresses; for CDN-served sites
    (``cdn`` True) the address pool is large and churns, so no single
    address qualifies as a replica under the 10%-of-connections rule
    (Section 4.5: 6 such sites).  ``replicas_same_subnet`` marks
    multi-replica sites whose replicas share a /24 and hence fail together.
    ``index_bytes`` sizes the index page; ``redirect_probability`` drives
    the connection-count inflation of Table 3.
    """

    name: str
    category: SiteCategory
    region: SiteRegion
    replicas: Tuple[Replica, ...]
    cdn: bool = False
    cdn_pool_size: int = 0
    replicas_same_subnet: bool = True
    index_bytes: int = 20000
    redirect_probability: float = 0.0
    redirect_to: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.cdn:
            if self.cdn_pool_size < 10:
                raise ValueError(
                    f"CDN site {self.name} needs a large address pool"
                )
        elif not self.replicas:
            raise ValueError(f"site {self.name} needs at least one replica")
        if not 0.0 <= self.redirect_probability <= 1.0:
            raise ValueError("redirect probability out of range")
        if self.redirect_probability > 0 and not self.redirect_to:
            raise ValueError(f"site {self.name} redirects but has no target")

    @property
    def num_replicas(self) -> int:
        """Number of qualifying replicas (0 for CDN sites)."""
        return 0 if self.cdn else len(self.replicas)

    @property
    def multi_replica(self) -> bool:
        """True for sites with more than one qualifying replica."""
        return self.num_replicas > 1


@dataclass(frozen=True)
class ProxySpec:
    """A corporate proxy: its location and address."""

    name: str
    location: str
    address: IPv4Address
    prefix: Prefix


@dataclass
class World:
    """The full roster plus the index structures every layer shares."""

    clients: List[Client]
    websites: List[Website]
    proxies: List[ProxySpec]
    hours: int

    def __post_init__(self) -> None:
        names = [c.name for c in self.clients]
        if len(names) != len(set(names)):
            raise ValueError("duplicate client names")
        site_names = [w.name for w in self.websites]
        if len(site_names) != len(set(site_names)):
            raise ValueError("duplicate website names")
        self._client_index = {c.name: i for i, c in enumerate(self.clients)}
        self._site_index = {w.name: i for i, w in enumerate(self.websites)}

    def client_named(self, name: str) -> Client:
        """Look up a client by name."""
        return self.clients[self._client_index[name]]

    def website_named(self, name: str) -> Website:
        """Look up a website by name."""
        return self.websites[self._site_index[normalize_name(name)]]

    def website_for_host(self, host: str) -> Website:
        """Look up the website serving ``host``, including www aliases.

        Redirecting sites bounce the bare name to a ``www.`` alias served
        by the same replicas; both names map to the same website.
        """
        host = normalize_name(host)
        if host in self._site_index:
            return self.websites[self._site_index[host]]
        if host.startswith("www."):
            bare = host[4:]
            if bare in self._site_index:
                return self.websites[self._site_index[bare]]
        raise KeyError(host)

    def client_idx(self, name: str) -> int:
        """Array index of a client."""
        return self._client_index[name]

    def site_idx(self, name: str) -> int:
        """Array index of a website."""
        return self._site_index[normalize_name(name)]

    def roster(self) -> Dict[str, List[str]]:
        """Entity names in array-index order, plus each client's region.

        The online detector resolves array indices back to names at
        alert time, and the horizon observers aggregate per region; both
        take this dict on their ``run_start``.
        """
        return {
            "clients": [c.name for c in self.clients],
            "servers": [w.name for w in self.websites],
            "client_regions": [c.region.value for c in self.clients],
        }

    def clients_in_category(self, category: ClientCategory) -> List[Client]:
        """All clients of one category."""
        return [c for c in self.clients if c.category is category]

    def colocated_groups(self) -> List[List[Client]]:
        """Groups of clients sharing a site, with 2+ members."""
        by_site: dict = {}
        for client in self.clients:
            by_site.setdefault((client.category, client.site), []).append(client)
        return [group for group in by_site.values() if len(group) > 1]

    def colocated_pairs(self) -> List[Tuple[Client, Client]]:
        """All unordered pairs of co-located clients (Section 4.4.6 #2).

        DU virtual clients share physical hosts but not access paths, so
        they are not considered co-located.
        """
        pairs = []
        for group in self.colocated_groups():
            if group[0].category is ClientCategory.DIALUP:
                continue
            # Proxied clients' observations are mediated by their proxy, so
            # they are excluded from the co-location similarity analysis.
            group = [c for c in group if not c.proxied]
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    pairs.append((group[i], group[j]))
        return pairs

    def all_prefixes(self) -> List[Prefix]:
        """Every distinct client and replica prefix, sorted."""
        prefixes = set()
        for client in self.clients:
            prefixes.update(client.prefixes)
        for site in self.websites:
            for replica in site.replicas:
                prefixes.update(replica.prefixes)
        return sorted(prefixes)

    def max_replicas(self) -> int:
        """The largest replica count across non-CDN sites."""
        return max((w.num_replicas for w in self.websites), default=0)
