"""The detailed, message-level engine.

Drives the *real* substrates -- stub resolver against a full DNS hierarchy,
wget with failover/retries over simulated TCP connections with packet
traces, corporate proxies -- for individual transactions.  The hidden fault
scenario for each transaction is sampled from the same
:class:`~repro.world.outcome_model.OutcomeModel` the fast engine uses, then
*realized mechanistically*: a "server down" draw makes the authoritative
TCP endpoint stop answering SYNs, and the failure the client records is
whatever wget and the trace post-processing actually produce.

This engine is the ground for the substrate-integration tests, the example
scripts, and the engine-agreement ablation; the fast engine covers
full-month scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.records import (
    DNSFailureKind,
    FailureType,
    PerformanceRecord,
    RecordBatch,
    TCPFailureKind,
)
from repro.dns.iterative import IterativeDigger
from repro.dns.message import RCode
from repro.dns.resolver import (
    LDNSPath,
    ResolutionOutcome,
    ResolutionStatus,
    StubResolver,
)
from repro.dns.server import (
    AuthoritativeServer,
    DNSHierarchy,
    RecursiveResolverServer,
    Zone,
)
from repro.http.message import HTTPRequest, HTTPResponse
from repro.http.proxy import CachingProxy, ProxyTransport
from repro.http.server import OriginFleet, ReplicaApp, SiteContent
from repro.http.wget import FetchResult, Transport, TransactionResult, WgetClient
from repro.net.addressing import IPv4Address
from repro.net.latency import LatencyModel, bandwidth_for_category
from repro.net.loss import BernoulliLossModel
from repro.net.packet import PacketBuilder
from repro.tcp.connection import ConnectionOutcome, ServerBehavior, TCPConnection
from repro.tcp.trace import PacketTrace
from repro.tcp.trace_analysis import TraceVerdict, analyze_trace
from repro.world.entities import Client, ClientCategory, Website, World
from repro.world.faults import GroundTruth
from repro.world.outcome_model import AccessConfig, OutcomeModel
from repro.world.rng import RNGRegistry

#: Root/TLD server addresses live in a reserved block.
_INFRA_BASE = 0x0A000000 + 0x100  # 10.0.1.0


@dataclass
class Scenario:
    """One transaction's realized hidden state."""

    ldns_down: bool = False
    #: When the LDNS timeout stems from broken client connectivity (the
    #: dominant case), the iterative dig's root walk fails too.
    client_net_down: bool = False
    auth_down: bool = False
    dns_error: bool = False
    tcp_kind: Optional[TCPFailureKind] = None  # site/client/background cause
    replica_down: Tuple[bool, ...] = ()
    http_error: bool = False
    proxied_fail: bool = False


class DetailedEngine:
    """Runs individual transactions through the full substrate stack."""

    def __init__(
        self,
        world: World,
        truth: GroundTruth,
        access: Optional[AccessConfig] = None,
        rngs: Optional[RNGRegistry] = None,
    ) -> None:
        self.world = world
        self.truth = truth
        self.access = access or AccessConfig()
        self.rngs = rngs or RNGRegistry()
        self.model = OutcomeModel(world, truth, self.access)
        self._rng = self.rngs.stream("detailed-engine")
        self._build_dns()
        self._build_origins()
        self._client_state: Dict[str, dict] = {}

    # -- world construction ---------------------------------------------------

    def _build_dns(self) -> None:
        """Root -> TLD -> site-zone hierarchy with real delegations."""
        self.hierarchy = DNSHierarchy()
        rng = self.rngs.stream("detailed-dns")
        next_addr = [_INFRA_BASE]

        def infra_address() -> IPv4Address:
            addr = IPv4Address(next_addr[0])
            next_addr[0] += 1
            return addr

        root_zone = Zone(name="")
        tld_zones: Dict[str, Zone] = {}
        self._site_servers: Dict[str, AuthoritativeServer] = {}

        for site in self.world.websites:
            tld = site.name.rsplit(".", 1)[-1]
            if tld not in tld_zones:
                tld_zones[tld] = Zone(name=tld)
            # Site zone with its A records.
            zone = Zone(name=site.name)
            addresses = (
                [r.address for r in site.replicas]
                if not site.cdn
                else [infra_address() for _ in range(3)]
            )
            zone.add_a(site.name, addresses)
            if site.redirect_to:
                # The www alias the bare name bounces to, same replicas.
                zone.add_a(site.redirect_to, addresses)
            server = AuthoritativeServer(
                name=f"ns1.{site.name}", address=infra_address(), zone=zone
            )
            self.hierarchy.register(server)
            self._site_servers[site.name] = server
            tld_zones[tld].delegate(site.name, [(server.name, server.address)])

        for tld, zone in tld_zones.items():
            server = AuthoritativeServer(
                name=f"ns.{tld}-tld", address=infra_address(), zone=zone
            )
            self.hierarchy.register(server)
            root_zone.delegate(tld, [(server.name, server.address)])

        for i in range(2):
            self.hierarchy.register(
                AuthoritativeServer(
                    name=f"{chr(ord('a') + i)}.root", address=infra_address(),
                    zone=root_zone,
                ),
                is_root=True,
            )

    def _build_origins(self) -> None:
        self.fleet = OriginFleet()
        for site in self.world.websites:
            content = SiteContent(
                index_bytes=site.index_bytes,
                redirect_to=site.redirect_to,
                redirect_probability=site.redirect_probability,
            )
            for replica in site.replicas:
                self.fleet.register(
                    ReplicaApp(
                        address=replica.address,
                        site_name=site.name,
                        content=content,
                    )
                )
            if site.cdn:
                # CDN edge nodes: the zone's synthetic addresses.
                zone = self._site_servers[site.name].zone
                for address in zone.a_records[site.name]:
                    self.fleet.register(
                        ReplicaApp(
                            address=address, site_name=site.name, content=content
                        )
                    )

    def _state_for(self, client: Client) -> dict:
        """Per-client substrate objects, built lazily."""
        state = self._client_state.get(client.name)
        if state is not None:
            return state
        rng = self.rngs.stream(f"client:{client.name}")
        ldns = RecursiveResolverServer(
            name=f"ldns.{client.site}",
            address=IPv4Address(client.address.value ^ 0x1),
            hierarchy=self.hierarchy,
            rng=rng,
        )
        path = LDNSPath(ldns)
        resolver = StubResolver(path, rng)
        latency = LatencyModel(client.category.value, rng)
        state = {
            "rng": rng,
            "ldns": ldns,
            "path": path,
            "resolver": resolver,
            "latency": latency,
            "digger": IterativeDigger(path, self.hierarchy, rng),
            "port": 40000,
        }
        if client.proxied:
            proxy_rng = self.rngs.stream(f"proxy:{client.proxy_name}")
            proxy_ldns = RecursiveResolverServer(
                name=f"ldns.{client.proxy_name}",
                address=IPv4Address(client.address.value ^ 0x2),
                hierarchy=self.hierarchy,
                rng=proxy_rng,
            )
            proxy_path = LDNSPath(proxy_ldns)
            proxy_resolver = StubResolver(proxy_path, proxy_rng)
            upstream = _DirectTransport(self, client, state, proxy_mode=True)
            proxy_spec = next(
                p for p in self.world.proxies if p.name == client.proxy_name
            )
            proxy = CachingProxy(
                name=client.proxy_name or "proxy",
                resolver=proxy_resolver,
                upstream=upstream,
                rng=proxy_rng,
            )
            state["proxy"] = proxy
            state["proxy_transport"] = ProxyTransport(
                proxy, proxy_spec.address, proxy_rng
            )
        self._client_state[client.name] = state
        return state

    # -- scenario sampling -------------------------------------------------------

    def _sample_scenario(self, client: Client, site: Website, hour: int) -> Scenario:
        cell = self.model.cell(client.name, site.name, hour)
        rng = self._rng
        scenario = Scenario()
        if client.proxied:
            scenario.proxied_fail = rng.random() < cell["p_fail_proxied"]
            return scenario
        u = rng.random()
        if u < cell["p_ldns"]:
            scenario.ldns_down = True
            # Most LDNS timeouts are connectivity problems, not just a dead
            # resolver host; the paper's dig fails in >94% of DNS failures.
            scenario.client_net_down = rng.random() < 0.9
            return scenario
        u = rng.random()
        if u < cell["p_nonldns"]:
            scenario.auth_down = True
            return scenario
        u = rng.random()
        if u < cell["p_dnserr"]:
            scenario.dns_error = True
            return scenario
        # Replica-level state persists for the transaction.
        scenario.replica_down = tuple(
            rng.random() < p for p in cell["replica_fail"]
        )
        # Correlated TCP causes, minus the all-replica-down component that
        # the replica draws realize mechanistically.
        p_corr = cell["p_tcp"]
        replica_part = 1.0
        for p in cell["replica_fail"]:
            replica_part *= p
        p_corr = max(0.0, (p_corr - replica_part) / max(1e-12, 1.0 - replica_part))
        if rng.random() < p_corr:
            noconn, noresp, partial = cell["mix"]
            v = rng.random() * max(1e-12, noconn + noresp + partial)
            if v < noconn:
                scenario.tcp_kind = TCPFailureKind.NO_CONNECTION
            elif v < noconn + noresp:
                scenario.tcp_kind = TCPFailureKind.NO_RESPONSE
            else:
                scenario.tcp_kind = TCPFailureKind.PARTIAL_RESPONSE
            return scenario
        if rng.random() < cell["p_http"]:
            scenario.http_error = True
        return scenario

    # -- transaction execution ----------------------------------------------------

    def run_transaction(
        self, client_name: str, site_name: str, hour: int, offset_seconds: float = 0.0
    ) -> Tuple[PerformanceRecord, TransactionResult]:
        """Run one download and return (record, raw wget result)."""
        record, result, _ = self.run_transaction_with_dig(
            client_name, site_name, hour, offset_seconds, run_dig=False
        )
        return record, result

    def run_transaction_with_dig(
        self,
        client_name: str,
        site_name: str,
        hour: int,
        offset_seconds: float = 0.0,
        run_dig: bool = True,
    ):
        """Run one download plus the Section 3.4 step-3 iterative dig.

        The dig runs *inside* the transaction's fault scenario -- the fault
        (a dead LDNS, an unreachable authoritative) persists across the two
        back-to-back lookups, which is why the paper finds the dig fails
        whenever wget's DNS does, in over 94% of cases.  Returns
        (record, wget result, DigResult | None).
        """
        client = self.world.client_named(client_name)
        site = self.world.website_named(site_name)
        if not self.truth.client_up[self.world.client_idx(client_name), hour]:
            raise RuntimeError(f"{client_name} is down in hour {hour}")
        state = self._state_for(client)
        scenario = self._sample_scenario(client, site, hour)
        now = hour * 3600.0 + offset_seconds

        dig = None
        self._apply_dns_scenario(state, site, scenario)
        try:
            with obs.span(
                "detailed.transaction",
                client=client_name, site=site_name, hour=hour,
            ):
                if client.proxied:
                    transport: Transport = state["proxy_transport"]
                    state["_scenario"] = scenario
                    wget = WgetClient(
                        transport, tries=1, rng=state["rng"], no_cache=True
                    )
                else:
                    transport = _DirectTransport(
                        self, client, state, scenario=scenario
                    )
                    wget = WgetClient(
                        transport,
                        tries=self.access.tries,
                        max_addresses=self.access.max_addresses,
                        rng=state["rng"],
                    )
                state["resolver"].flush_cache()  # step 1 of the procedure
                result = wget.download(f"http://{site.name}/", now)
                if run_dig and not client.proxied:
                    # Step 3: iterative dig, while the fault still holds.  The
                    # LDNS cache is flushed again so a cached answer from the
                    # wget lookup does not mask the authoritative fault.
                    with obs.span("detailed.dig", site=site_name):
                        state["ldns"].cache.flush_name(site.name)
                        dig = state["digger"].dig(
                            site.name, result.end_time + 1.0
                        )
        finally:
            self._clear_dns_scenario(state, site)
            state.pop("_scenario", None)

        record = self._to_record(client, site, hour, now, result)
        registry = obs.registry()
        registry.counter("detailed_transactions_total").inc()
        if record.failed:
            registry.counter(
                "detailed_failures_total", type=record.failure_type.value
            ).inc()
        return record, result, dig

    def _apply_dns_scenario(self, state, site: Website, scenario: Scenario) -> None:
        state["path"].reachable = not scenario.ldns_down
        state["digger"].network_up = not scenario.client_net_down
        server = self._site_servers[site.name]
        server.available = not scenario.auth_down
        server.forced_rcode = RCode.SERVFAIL if scenario.dns_error else None
        # The LDNS cache would mask per-transaction authoritative faults;
        # flush it so the scenario is observable (the paper's clients hit
        # uncached LDNS entries often enough at 4 accesses/hour vs 300s TTL).
        state["ldns"].cache.flush_name(site.name)

    def _clear_dns_scenario(self, state, site: Website) -> None:
        state["path"].reachable = True
        state["digger"].network_up = True
        server = self._site_servers[site.name]
        server.available = True
        server.forced_rcode = None

    def _behavior_for(
        self, site: Website, address: IPv4Address, scenario: Scenario
    ) -> ServerBehavior:
        """Translate the scenario into the TCP endpoint's behaviour."""
        behavior = ServerBehavior(response_bytes=site.index_bytes)
        # Per-replica outage (spread sites).
        if scenario.replica_down:
            for ri, replica in enumerate(site.replicas):
                if replica.address == address and ri < len(scenario.replica_down):
                    if scenario.replica_down[ri]:
                        behavior.accepting = False
                        return behavior
        if scenario.tcp_kind is TCPFailureKind.NO_CONNECTION:
            behavior.accepting = False
        elif scenario.tcp_kind is TCPFailureKind.NO_RESPONSE:
            behavior.responds = False
        elif scenario.tcp_kind is TCPFailureKind.PARTIAL_RESPONSE:
            behavior.stall_after_bytes = max(1, site.index_bytes // 3)
        return behavior

    def _to_record(
        self,
        client: Client,
        site: Website,
        hour: int,
        now: float,
        result: TransactionResult,
    ) -> PerformanceRecord:
        failure_type = FailureType.NONE
        dns_kind = None
        tcp_kind = None
        http_status = result.final_response.status if result.final_response else None

        if client.proxied and result.failed:
            failure_type = FailureType.MASKED
        elif result.dns_failed:
            failure_type = FailureType.DNS
            failed = result.failed_resolution
            dns_kind = {
                ResolutionStatus.LDNS_TIMEOUT: DNSFailureKind.LDNS_TIMEOUT,
                ResolutionStatus.NON_LDNS_TIMEOUT: DNSFailureKind.NON_LDNS_TIMEOUT,
                ResolutionStatus.ERROR_RESPONSE: DNSFailureKind.ERROR_RESPONSE,
            }[failed.status]
        elif result.tcp_failed:
            failure_type = FailureType.TCP
            tcp_kind = self._classify_tcp(client, result)
        elif result.http_failed:
            failure_type = FailureType.HTTP
        elif result.failed:
            # Dangling redirect chain (budget exhausted): wget reports an
            # application-level failure.
            failure_type = FailureType.HTTP

        failed_conns = sum(
            1 for a in result.attempts
            if a.connection.outcome is not ConnectionOutcome.COMPLETE
        )
        losses = sum(
            analyze_trace(a.trace).inferred_losses
            for a in result.attempts
            if a.trace is not None and a.trace.enabled
        )
        return PerformanceRecord(
            client_name=client.name,
            site_name=site.name,
            url=result.url,
            timestamp=now,
            hour=hour,
            failure_type=failure_type,
            dns_kind=dns_kind,
            tcp_kind=tcp_kind,
            http_status=http_status,
            server_address=result.attempts[-1].address if result.attempts else None,
            dns_lookup_time=(
                result.resolution.lookup_time if result.resolution else 0.0
            ),
            download_time=result.download_time(),
            num_connections=result.num_connections,
            num_failed_connections=failed_conns,
            packet_losses=losses,
            bytes_received=(
                result.final_response.body_bytes if result.final_response else 0
            ),
        )

    def _classify_tcp(
        self, client: Client, result: TransactionResult
    ) -> TCPFailureKind:
        """Post-process the last attempt's trace, as Section 3.5 does."""
        last = result.attempts[-1] if result.attempts else None
        if last is None:
            return TCPFailureKind.NO_CONNECTION
        if last.trace is not None and last.trace.enabled:
            verdict = analyze_trace(last.trace).verdict
            return {
                TraceVerdict.NO_CONNECTION: TCPFailureKind.NO_CONNECTION,
                TraceVerdict.NO_RESPONSE: TCPFailureKind.NO_RESPONSE,
                TraceVerdict.PARTIAL_RESPONSE: TCPFailureKind.PARTIAL_RESPONSE,
                TraceVerdict.COMPLETE: TCPFailureKind.PARTIAL_RESPONSE,
                TraceVerdict.EMPTY_TRACE: TCPFailureKind.NO_CONNECTION,
                TraceVerdict.AMBIGUOUS_NO_OR_PARTIAL: TCPFailureKind.NO_OR_PARTIAL,
            }[verdict]
        # No trace (BB): wget's exit information only.
        if not last.connection.established:
            return TCPFailureKind.NO_CONNECTION
        return TCPFailureKind.NO_OR_PARTIAL

    # -- batch helper ----------------------------------------------------------------

    def run_batch(
        self,
        client_names: List[str],
        site_names: List[str],
        hours: List[int],
        accesses_per_cell: int = 1,
    ) -> RecordBatch:
        """Run a grid of transactions (skipping down clients)."""
        batch = RecordBatch()
        rng = self._rng
        with obs.span("detailed.batch") as batch_span:
            for hour in hours:
                for client_name in client_names:
                    ci = self.world.client_idx(client_name)
                    if not self.truth.client_up[ci, hour]:
                        continue
                    # Randomized URL order, as in Section 3.4.
                    order = list(site_names)
                    rng.shuffle(order)
                    for site_name in order:
                        for k in range(accesses_per_cell):
                            offset = rng.uniform(0, 3500.0)
                            record, _ = self.run_transaction(
                                client_name, site_name, hour, offset
                            )
                            batch.append(record)
            batch_span.add_items(len(batch))
        return batch


class _DirectTransport(Transport):
    """Transport for non-proxied clients: resolver + TCP + origin apps."""

    def __init__(
        self,
        engine: DetailedEngine,
        client: Client,
        state: dict,
        scenario: Optional[Scenario] = None,
        proxy_mode: bool = False,
    ) -> None:
        self.engine = engine
        self.client = client
        self.state = state
        self.scenario = scenario
        self.proxy_mode = proxy_mode  # resolve/fetch on behalf of the proxy

    def _current_scenario(self) -> Scenario:
        if self.scenario is not None:
            return self.scenario
        return self.state.get("_scenario") or Scenario()

    def resolve(self, name: str, now: float) -> ResolutionOutcome:
        return self.state["resolver"].resolve(name, now)

    def fetch(
        self, address: IPv4Address, request: HTTPRequest, now: float
    ) -> FetchResult:
        engine = self.engine
        state = self.state
        scenario = self._current_scenario()
        site = engine.world.website_for_host(request.host)
        behavior = engine._behavior_for(site, address, scenario)
        if self.proxy_mode and scenario.proxied_fail:
            # The proxied client's opaque failure: realized as the proxy
            # failing to reach the origin (it does not fail over).
            behavior.accepting = False

        self.state["port"] += 1
        builder = PacketBuilder(
            client=self.client.address,
            server=address,
            client_port=40000 + (state["port"] % 20000),
        )
        trace = PacketTrace(
            client_name=self.client.name,
            enabled=self.client.category.has_packet_traces,
        )
        loss = BernoulliLossModel(0.003, state["rng"])
        connection = TCPConnection(
            builder=builder,
            loss=loss,
            latency=state["latency"],
            trace=trace,
            rng=state["rng"],
            bandwidth_bps=bandwidth_for_category(self.client.category.value),
        )
        conn_result = connection.run(now, behavior, request_bytes=request.wire_size())
        response: Optional[HTTPResponse] = None
        if conn_result.outcome is ConnectionOutcome.COMPLETE:
            app = engine.fleet.app_at(address)
            if app is not None:
                response = app.respond(request, state["rng"])
                if response.is_error and not scenario.http_error:
                    # The scenario decides HTTP errors; suppress incidental
                    # ones so both engines share one statistical model.
                    response = HTTPResponse(
                        status=200, body_bytes=site.index_bytes
                    )
                elif scenario.http_error and response.ok:
                    response = HTTPResponse(status=503, body_bytes=512)
            else:
                response = HTTPResponse(status=200, body_bytes=site.index_bytes)
        return FetchResult(connection=conn_result, response=response, trace=trace)
