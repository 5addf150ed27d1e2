"""Authoritative and recursive DNS servers.

The hierarchy is a faithful (if compact) model of what the paper's clients
traversed: root servers delegate to TLD servers, which delegate to each
website's authoritative servers.  Authoritative servers can be taken
offline (producing the "non-LDNS timeout" category) or misconfigured to
return SERVFAIL/NXDOMAIN (the "error response" category, which the paper
traces to buggy authoritative servers for www.brazzil.com and www.espn.com).

The recursive server (LDNS) performs iterative resolution on behalf of the
stub resolver, caching aggressively.  Whether the *client can reach* the
LDNS at all is the province of :mod:`repro.dns.resolver`; this module only
models server-side behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dns.cache import DNSCache
from repro.dns.message import (
    DNSQuery,
    DNSResponse,
    RCode,
    RecordType,
    make_a_response,
    make_error_response,
    make_referral,
    normalize_name,
    parent_zone,
)
from repro.net.addressing import IPv4Address


class DNSServerError(RuntimeError):
    """Raised for configuration errors in the DNS hierarchy."""


@dataclass
class Zone:
    """Authoritative data for one zone.

    ``a_records`` maps fully-qualified names to their address sets;
    ``cnames`` maps names to their canonical-name target; ``delegations``
    maps child zone names to (ns_name, glue address) pairs.
    """

    name: str
    a_records: Dict[str, List[IPv4Address]] = field(default_factory=dict)
    cnames: Dict[str, str] = field(default_factory=dict)
    delegations: Dict[str, List[Tuple[str, IPv4Address]]] = field(default_factory=dict)
    default_ttl: int = 300

    def __post_init__(self) -> None:
        self.name = normalize_name(self.name) if self.name else ""

    def add_a(self, name: str, addresses: Sequence[IPv4Address]) -> None:
        """Add (or extend) the A record set for ``name``."""
        name = normalize_name(name)
        self.a_records.setdefault(name, []).extend(addresses)

    def add_cname(self, name: str, target: str) -> None:
        """Add a CNAME from ``name`` to ``target``."""
        self.cnames[normalize_name(name)] = normalize_name(target)

    def delegate(self, child: str, servers: Sequence[Tuple[str, IPv4Address]]) -> None:
        """Delegate the ``child`` zone to the given (ns_name, address) servers."""
        if not servers:
            raise DNSServerError("delegation needs at least one server")
        self.delegations[normalize_name(child)] = list(servers)

    def covering_delegation(self, name: str) -> Optional[str]:
        """The most specific delegated child zone covering ``name``, if any."""
        name = normalize_name(name)
        best: Optional[str] = None
        for child in self.delegations:
            if name == child or name.endswith("." + child):
                if best is None or len(child) > len(best):
                    best = child
        return best


@dataclass
class AuthoritativeServer:
    """One authoritative DNS server hosting a zone.

    Fault knobs:

    * ``available`` -- when False the server never answers (queries to it
      time out), modelling an unreachable authoritative server.
    * ``forced_rcode`` -- when set, every in-zone query gets this error,
      modelling the misconfigured servers of Section 4.2.
    * ``flakiness`` -- probability of silently dropping any given query.
    """

    name: str
    address: IPv4Address
    zone: Zone
    available: bool = True
    forced_rcode: Optional[RCode] = None
    flakiness: float = 0.0
    queries_handled: int = 0
    queries_dropped: int = 0

    def handle(self, query: DNSQuery, rng: random.Random) -> Optional[DNSResponse]:
        """Answer a query, or return None if the query is (effectively) lost."""
        if not self.available:
            self.queries_dropped += 1
            return None
        if self.flakiness and rng.random() < self.flakiness:
            self.queries_dropped += 1
            return None
        self.queries_handled += 1
        if self.forced_rcode is not None:
            return make_error_response(query, self.forced_rcode)
        return self._answer(query)

    def _answer(self, query: DNSQuery) -> DNSResponse:
        name = query.name
        zone = self.zone
        in_zone = not zone.name or name == zone.name or name.endswith("." + zone.name)
        if not in_zone:
            return make_error_response(query, RCode.REFUSED)
        delegated = zone.covering_delegation(name)
        if delegated is not None:
            servers = zone.delegations[delegated]
            return make_referral(
                query,
                zone=delegated,
                ns_names=[ns for ns, _ in servers],
                glue=servers,
                ttl=zone.default_ttl,
            )
        # Follow an in-zone CNAME chain.
        chain: List[str] = []
        owner = name
        while owner in zone.cnames:
            chain.append(zone.cnames[owner])
            owner = zone.cnames[owner]
            if len(chain) > 8:
                return make_error_response(query, RCode.SERVFAIL)
        if owner in zone.a_records:
            return make_a_response(
                query,
                zone.a_records[owner],
                ttl=zone.default_ttl,
                cname_chain=chain,
            )
        if chain:
            # CNAME pointing out of zone: return the chain so the resolver
            # can restart at the target.
            return make_a_response(
                query, [], ttl=zone.default_ttl, cname_chain=chain
            )
        return make_error_response(query, RCode.NXDOMAIN)


class DNSHierarchy:
    """The registry of every authoritative server, rooted at the root zone.

    Provides address-based dispatch (queries are sent to server addresses,
    exactly as a resolver would) and name-based inspection for tests.
    """

    def __init__(self) -> None:
        self._by_address: Dict[IPv4Address, AuthoritativeServer] = {}
        self._roots: List[AuthoritativeServer] = []

    def register(self, server: AuthoritativeServer, is_root: bool = False) -> None:
        """Register a server; roots are the iterative-resolution entry point."""
        if server.address in self._by_address:
            raise DNSServerError(f"duplicate server address {server.address}")
        self._by_address[server.address] = server
        if is_root:
            self._roots.append(server)

    def root_servers(self) -> List[AuthoritativeServer]:
        """All registered root servers."""
        if not self._roots:
            raise DNSServerError("no root servers registered")
        return list(self._roots)

    def servers(self) -> List[AuthoritativeServer]:
        """Every registered server."""
        return list(self._by_address.values())

    def query(
        self, address: IPv4Address, query: DNSQuery, rng: random.Random
    ) -> Optional[DNSResponse]:
        """Send ``query`` to the server at ``address``; None if no answer."""
        server = self._by_address.get(address)
        if server is None:
            return None
        return server.handle(query, rng)


@dataclass
class RecursionResult:
    """Outcome of one recursive resolution attempt at an LDNS."""

    response: Optional[DNSResponse]
    elapsed: float
    servers_contacted: int
    timed_out: bool

    @property
    def succeeded(self) -> bool:
        """True if a NOERROR answer with at least one address was obtained."""
        return (
            self.response is not None
            and self.response.rcode is RCode.NOERROR
            and bool(self.response.addresses())
        )


class RecursiveResolverServer:
    """A local DNS server (LDNS) doing iterative resolution with a cache.

    ``process_up`` models the LDNS host itself: when False the server does
    not respond at all (the stub sees an LDNS timeout).  Per-upstream-query
    behaviour: latency is sampled from ``query_latency``; unanswered
    queries cost ``upstream_timeout`` seconds each and are retried on the
    zone's other servers.
    """

    MAX_STEPS = 24

    def __init__(
        self,
        name: str,
        address: IPv4Address,
        hierarchy: DNSHierarchy,
        rng: random.Random,
        upstream_timeout: float = 2.0,
        query_latency: float = 0.04,
        budget: float = 8.0,
    ) -> None:
        self.name = name
        self.address = address
        self.hierarchy = hierarchy
        self.cache = DNSCache()
        self.process_up = True
        self.upstream_timeout = upstream_timeout
        self.query_latency = query_latency
        self.budget = budget
        self._rng = rng

    def resolve(self, query: DNSQuery, now: float) -> RecursionResult:
        """Resolve ``query`` iteratively, consulting the cache first."""
        cached = self.cache.lookup(query, now)
        if cached is not None:
            return RecursionResult(
                response=cached, elapsed=0.0, servers_contacted=0, timed_out=False
            )
        result = self._resolve_uncached(query, now)
        if result.response is not None:
            self.cache.store(result.response, now + result.elapsed)
        return result

    def _resolve_uncached(self, query: DNSQuery, now: float) -> RecursionResult:
        elapsed = 0.0
        contacted = 0
        targets = [s.address for s in self.hierarchy.root_servers()]
        self._rng.shuffle(targets)
        current_name = query.name
        for _ in range(self.MAX_STEPS):
            if not targets:
                break
            address = targets.pop(0)
            contacted += 1
            response = self.hierarchy.query(
                address, DNSQuery(current_name, query.rtype, False), self._rng
            )
            if response is None:
                elapsed += self.upstream_timeout
            else:
                elapsed += self.query_latency
            if elapsed >= self.budget:
                return RecursionResult(None, elapsed, contacted, timed_out=True)
            if response is None:
                continue  # try the zone's next server
            if response.rcode is RCode.REFUSED:
                continue
            if response.rcode.is_error:
                final = make_error_response(query, response.rcode)
                return RecursionResult(final, elapsed, contacted, timed_out=False)
            if response.addresses():
                final = make_a_response(
                    query, response.addresses(), ttl=self._min_ttl(response)
                )
                return RecursionResult(final, elapsed, contacted, timed_out=False)
            cnames = response.cname_records()
            if cnames and not response.addresses():
                # Restart resolution at the CNAME target.
                current_name = cnames[-1].target or current_name
                targets = [s.address for s in self.hierarchy.root_servers()]
                self._rng.shuffle(targets)
                continue
            if response.is_referral:
                glue = [
                    response.glue_for(ns)
                    for ns in response.ns_names()
                ]
                targets = [g for g in glue if g is not None]
                self._rng.shuffle(targets)
                continue
            # NOERROR with no usable data: give up with SERVFAIL.
            final = make_error_response(query, RCode.SERVFAIL)
            return RecursionResult(final, elapsed, contacted, timed_out=False)
        # Ran out of servers or steps: the lookup dangles until timeout.
        return RecursionResult(None, max(elapsed, self.budget), contacted, True)

    @staticmethod
    def _min_ttl(response: DNSResponse) -> int:
        ttls = [r.ttl for r in response.answers] or [300]
        return min(ttls)
