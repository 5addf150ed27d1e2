"""The default world: the paper's client and website rosters.

Builds the 134-client roster of Table 1 (95 PlanetLab nodes across 64
sites, 26 dialup "virtual clients" / PoPs, 5 proxied CorpNet clients plus
SEAEXT, and 7 broadband clients) and the 80 websites of Table 2, with the
replica structure reported in Section 4.5 (6 CDN-served sites with no
qualifying replica, 42 single-replica sites, 32 multi-replica sites, almost
all of the latter with replicas on one /24).

Named hosts the paper discusses individually (nodea.howard.edu, the
Intel-Pittsburgh / KAIST / Columbia co-located groups, the kscy Internet2
node, the northwestern.edu<->mp3.com pair) are present under their real
names so the scenario analyses can target them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.net.addressing import AddressAllocator, IPv4Address, Prefix
from repro.world.entities import (
    Client,
    ClientCategory,
    ProxySpec,
    Replica,
    SiteCategory,
    SiteRegion,
    Website,
    World,
)

#: Default experiment length: Jan 1 - Feb 1 2005 = 31 days (Section 3.1).
DEFAULT_HOURS = 744

# --------------------------------------------------------------------------
# PlanetLab sites.  (site_key, node_count, region, dual_prefix)
# The first eleven are the sites the paper names; the rest are synthetic
# fills matching the Table 1 mix (50 US-EDU, 19 US-ORG, 4 US-COM, 5 US-NET,
# 13 Europe, 4 Asia -- these are node counts).
# --------------------------------------------------------------------------

_PL_NAMED_SITES: List[Tuple[str, List[str], SiteRegion, bool]] = [
    (
        "pittsburgh.intel-research.net",
        ["planet1.pittsburgh.intel-research.net", "planet2.pittsburgh.intel-research.net"],
        SiteRegion.US,
        False,
    ),
    (
        "kaist.ac.kr",
        ["csplanetlab1.kaist.ac.kr", "csplanetlab3.kaist.ac.kr", "csplanetlab4.kaist.ac.kr"],
        SiteRegion.ASIA,
        True,
    ),
    (
        "comet.columbia.edu",
        [
            "planetlab1.comet.columbia.edu",
            "planetlab2.comet.columbia.edu",
            "planetlab3.comet.columbia.edu",
        ],
        SiteRegion.US,
        False,
    ),
    ("howard.edu", ["nodea.howard.edu"], SiteRegion.US, True),
    (
        "kscy.internet2.planet-lab.org",
        ["planetlab1.kscy.internet2.planet-lab.org"],
        SiteRegion.US,
        False,
    ),
    ("northwestern.edu", ["planetlab1.northwestern.edu"], SiteRegion.US, False),
    ("hp.com", ["planetlab1.hp.com"], SiteRegion.US, False),
    ("epfl.ch", ["planetlab1.epfl.ch"], SiteRegion.EUROPE, False),
    ("nyu.edu", ["planetlab1.nyu.edu"], SiteRegion.US, False),
    ("unito.it", ["planetlab1.unito.it"], SiteRegion.EUROPE, False),
    ("postel.org", ["planetlab1.postel.org"], SiteRegion.US, True),
]

#: Synthetic fill sites: 26 dual-node + 27 single-node = 79 nodes, 53 sites.
_PL_FILL_DUAL = [
    "cs.aurora.edu", "cs.bigten.edu", "net.cascadia.edu", "cs.dunes.edu",
    "cs.eastlake.edu", "cs.foothill.edu", "cs.greatplains.edu", "cs.harborview.edu",
    "cs.ironwood.edu", "cs.juniperridge.edu", "cs.keystone.edu", "cs.lakeshore.edu",
    "cs.mesaverde.edu", "cs.northgate.edu", "cs.oakhollow.edu", "cs.pinecrest.edu",
    "research.quartz.org", "research.redcedar.org", "research.stonebridge.org",
    "research.tamarack.org", "net.ultraviolet.net", "net.vantage.net",
    "inf.westfjord.eu", "inf.xanten.eu", "inf.yarrow.eu", "cs.zephyr.ac.asia",
]
_PL_FILL_SINGLE = [
    "cs.alder.edu", "cs.basalt.edu", "cs.cobalt.edu", "cs.dogwood.edu",
    "cs.elmwood.edu", "cs.fernhill.edu", "cs.garnet.edu", "cs.hawthorn.edu",
    "cs.inlet.edu", "cs.jasper.edu", "cs.kestrel.edu", "cs.larkspur.edu",
    "cs.meridian.edu", "cs.nimbus.edu", "research.obsidian.org", "research.palisade.org",
    "research.quill.org", "research.rowan.org", "research.sable.org",
    "research.thicket.org", "corp.umber.com", "corp.verdant.com",
    "net.willow.net", "net.xenia.net", "inf.yewtree.eu", "inf.zugspitze.eu",
    "inf.aland.eu",
]

_PL_FILL_REGION = {name: SiteRegion.EUROPE for name in [
    "inf.westfjord.eu", "inf.xanten.eu", "inf.yarrow.eu",
    "inf.yewtree.eu", "inf.zugspitze.eu", "inf.aland.eu",
]}
_PL_FILL_REGION.update({"cs.zephyr.ac.asia": SiteRegion.ASIA})

# --------------------------------------------------------------------------
# Dialup PoPs: Table 1's cities x providers.  I=ICG, L=Level3, Q=Qwest,
# U=UUNet.  5 physical clients in Seattle dial into 26 PoPs = 26 virtual
# clients.
# --------------------------------------------------------------------------

_DU_POPS: List[Tuple[str, str]] = [
    ("boston", "ICG"), ("boston", "Level3"), ("boston", "Qwest"),
    ("chicago", "ICG"), ("chicago", "Level3"), ("chicago", "Qwest"),
    ("houston", "ICG"), ("houston", "Level3"), ("houston", "Qwest"),
    ("newyork", "ICG"), ("newyork", "Qwest"), ("newyork", "UUNet"),
    ("pittsburgh", "ICG"), ("pittsburgh", "Level3"), ("pittsburgh", "Qwest"),
    ("sandiego", "ICG"), ("sandiego", "Level3"), ("sandiego", "Qwest"),
    ("sanfrancisco", "ICG"), ("sanfrancisco", "Level3"), ("sanfrancisco", "Qwest"),
    ("seattle", "ICG"), ("seattle", "Level3"), ("seattle", "Qwest"),
    ("washdc", "ICG"), ("washdc", "Level3"),
]

# --------------------------------------------------------------------------
# CorpNet nodes and Broadband clients.
# --------------------------------------------------------------------------

_CN_NODES = [
    ("SEA1", "seattle", "proxy-sea1", SiteRegion.US),
    ("SEA2", "seattle", "proxy-sea2", SiteRegion.US),
    ("SF", "sanfrancisco", "proxy-sf", SiteRegion.US),
    ("UK", "uk", "proxy-uk", SiteRegion.EUROPE),
    ("CHN", "china", "proxy-chn", SiteRegion.ASIA),
]

_BB_CLIENTS = [
    # (name, site, city, provider)  -- pairs share a site (co-located).
    ("bb-rr-sd-1", "roadrunner-sandiego", "sandiego", "Roadrunner"),
    ("bb-rr-sd-2", "roadrunner-sandiego", "sandiego", "Roadrunner"),
    ("bb-vz-sea-1", "verizon-seattle", "seattle", "Verizon"),
    ("bb-vz-sea-2", "verizon-seattle", "seattle", "Verizon"),
    ("bb-se-sea-1", "speakeasy-seattle", "seattle", "Speakeasy"),
    ("bb-sbc-pit-1", "sbc-pittsburgh", "pittsburgh", "SBC"),
    ("bb-sbc-sf-1", "sbc-sanfrancisco", "sanfrancisco", "SBC"),
]

# --------------------------------------------------------------------------
# Websites: Table 2 verbatim (mp.com read as mp3.com per Section 4.4.2).
# --------------------------------------------------------------------------

WEBSITES_BY_CATEGORY: Dict[SiteCategory, List[str]] = {
    SiteCategory.US_EDU: [
        "berkeley.edu", "washington.edu", "cmu.edu", "umn.edu",
        "caltech.edu", "nmt.edu", "ufl.edu", "mit.edu",
    ],
    SiteCategory.US_POPULAR: [
        "amazon.com", "microsoft.com", "ebay.com", "mapquest.com", "cnn.com",
        "cnnsi.com", "webmd.com", "espn.go.com", "sportsline.com",
        "expedia.com", "orbitz.com", "imdb.com", "google.com", "yahoo.com",
        "games.yahoo.com", "weather.yahoo.com", "msn.com", "passport.net",
        "aol.com", "nytimes.com", "lycos.com", "cnet.com",
    ],
    SiteCategory.US_MISC: [
        "latimes.com", "nfl.com", "pbs.org", "cisco.com", "juniper.net",
        "ibm.com", "fastclick.com", "advertising.com", "slashdot.org",
        "un.org", "craigslist.org", "state.gov", "nih.gov", "nasa.gov",
        "mp3.com",
    ],
    SiteCategory.INTL_EDU: [
        "iitb.ac.in", "iitm.ac.in", "technion.ac.il", "cs.technion.ac.il",
        "ucl.ac.uk", "cs.ucl.ac.uk", "cam.ac.uk", "inria.fr", "hku.hk",
        "nus.edu.sg",
    ],
    SiteCategory.INTL_POPULAR: [
        "amazon.co.uk", "amazon.co.jp", "bbc.co.uk", "muenchen.de",
        "terra.com", "alibaba.com", "wanadoo.fr", "sohu.com", "sina.com.hk",
        "cosmos.com.mx", "msn.com.tw", "msn.co.in", "google.co.uk",
        "google.co.jp", "sina.com.cn",
    ],
    SiteCategory.INTL_MISC: [
        "lufthansa.com", "english.pravda.ru", "rediff.com", "samachar.com",
        "chinabroadcast.cn", "nttdocomo.co.jp", "sony.co.jp", "brazzil.com",
        "royal.gov.uk", "direct.gov.uk",
    ],
}

#: Sites served by large CDNs: no single address passes the 10% replica
#: qualification rule (6 sites, Section 4.5).
CDN_SITES = {"cnn.com", "msn.com", "expedia.com", "lycos.com", "cnet.com", "mapquest.com"}

#: Multi-replica sites (32, Section 4.5).  All but the "spread" set below
#: keep their replicas on one /24 (the cause of total-replica failures).
MULTI_REPLICA_SITES: Dict[str, int] = {
    "amazon.com": 2, "microsoft.com": 3, "ebay.com": 2, "cnnsi.com": 2,
    "webmd.com": 2, "espn.go.com": 2, "sportsline.com": 2, "orbitz.com": 2,
    "imdb.com": 2, "google.com": 3, "yahoo.com": 3, "games.yahoo.com": 2,
    "weather.yahoo.com": 2, "passport.net": 2, "aol.com": 3, "nytimes.com": 2,
    "latimes.com": 2, "nfl.com": 2, "cisco.com": 2, "ibm.com": 3,
    "advertising.com": 2, "craigslist.org": 2, "nasa.gov": 2,
    "iitb.ac.in": 3, "technion.ac.il": 2, "ucl.ac.uk": 2, "cam.ac.uk": 2,
    "amazon.co.uk": 2, "bbc.co.uk": 3, "google.co.uk": 2, "google.co.jp": 2,
    "sina.com.cn": 2,
}

#: Multi-replica sites whose replicas live on *different* subnets; these
#: are the sites that can suffer partial replica failures (Section 4.5 /
#: Section 4.7 -- iitb.ac.in's three addresses fail independently).
SPREAD_REPLICA_SITES = {"iitb.ac.in", "bbc.co.uk", "ibm.com", "aol.com", "microsoft.com"}

#: Sites that answer the bare index request with a redirect (HTTP 302) --
#: a driver of connections-per-transaction > 1 (Table 3).
REDIRECTING_SITES = {
    "espn.go.com": 1.0, "passport.net": 1.0, "aol.com": 1.0,
    "google.co.uk": 1.0, "google.co.jp": 1.0, "msn.co.in": 1.0,
    "amazon.com": 0.5, "nytimes.com": 0.5, "wanadoo.fr": 1.0,
    "terra.com": 0.5, "state.gov": 1.0, "lufthansa.com": 1.0,
    "direct.gov.uk": 0.5, "webmd.com": 0.5,
}

_REGION_BY_CATEGORY = {
    SiteCategory.US_EDU: SiteRegion.US,
    SiteCategory.US_POPULAR: SiteRegion.US,
    SiteCategory.US_MISC: SiteRegion.US,
}

_INTL_REGION_OVERRIDES = {
    "iitb.ac.in": SiteRegion.ASIA, "iitm.ac.in": SiteRegion.ASIA,
    "technion.ac.il": SiteRegion.ASIA, "cs.technion.ac.il": SiteRegion.ASIA,
    "hku.hk": SiteRegion.ASIA, "nus.edu.sg": SiteRegion.ASIA,
    "sohu.com": SiteRegion.ASIA, "sina.com.hk": SiteRegion.ASIA,
    "alibaba.com": SiteRegion.ASIA, "msn.com.tw": SiteRegion.ASIA,
    "msn.co.in": SiteRegion.ASIA, "sina.com.cn": SiteRegion.ASIA,
    "amazon.co.jp": SiteRegion.ASIA, "google.co.jp": SiteRegion.ASIA,
    "chinabroadcast.cn": SiteRegion.ASIA, "nttdocomo.co.jp": SiteRegion.ASIA,
    "sony.co.jp": SiteRegion.ASIA, "rediff.com": SiteRegion.ASIA,
    "samachar.com": SiteRegion.ASIA,
    "terra.com": SiteRegion.OTHER, "cosmos.com.mx": SiteRegion.OTHER,
    "brazzil.com": SiteRegion.OTHER, "english.pravda.ru": SiteRegion.EUROPE,
}


def _website_region(name: str, category: SiteCategory) -> SiteRegion:
    if category in _REGION_BY_CATEGORY:
        return _REGION_BY_CATEGORY[category]
    return _INTL_REGION_OVERRIDES.get(name, SiteRegion.EUROPE)


def _make_client(
    name: str,
    category: ClientCategory,
    site: str,
    region: SiteRegion,
    allocator: AddressAllocator,
    site_prefixes: Dict[str, Tuple[Prefix, ...]],
    dual: bool = False,
    proxy_name: Optional[str] = None,
    provider: Optional[str] = None,
    city: Optional[str] = None,
) -> Client:
    """Build a client, reusing its site's prefix if already allocated."""
    if site not in site_prefixes:
        if dual:
            covering = allocator.allocate_prefix(16)
            specific = Prefix(covering.network, 24)
            site_prefixes[site] = (specific, covering)
        else:
            site_prefixes[site] = (allocator.allocate_prefix(24),)
    prefixes = site_prefixes[site]
    address = allocator.allocate_address(prefixes[0])
    return Client(
        name=name,
        category=category,
        site=site,
        region=region,
        address=address,
        prefixes=prefixes,
        proxy_name=proxy_name,
        provider=provider,
        city=city,
    )


def _build_planetlab(
    allocator: AddressAllocator, site_prefixes: Dict[str, Tuple[Prefix, ...]]
) -> List[Client]:
    clients: List[Client] = []
    for site, node_names, region, dual in _PL_NAMED_SITES:
        for node in node_names:
            clients.append(
                _make_client(
                    node, ClientCategory.PLANETLAB, site, region,
                    allocator, site_prefixes, dual=dual,
                )
            )
    dual_flags = {site: (i % 4 == 0) for i, site in enumerate(_PL_FILL_DUAL)}
    for site in _PL_FILL_DUAL:
        region = _PL_FILL_REGION.get(site, SiteRegion.US)
        for n in (1, 2):
            clients.append(
                _make_client(
                    f"planetlab{n}.{site}", ClientCategory.PLANETLAB, site,
                    region, allocator, site_prefixes, dual=dual_flags[site],
                )
            )
    for i, site in enumerate(_PL_FILL_SINGLE):
        region = _PL_FILL_REGION.get(site, SiteRegion.US)
        clients.append(
            _make_client(
                f"planetlab1.{site}", ClientCategory.PLANETLAB, site, region,
                allocator, site_prefixes, dual=(i % 5 == 0),
            )
        )
    return clients


def _build_dialup(
    allocator: AddressAllocator, site_prefixes: Dict[str, Tuple[Prefix, ...]]
) -> List[Client]:
    clients = []
    for city, provider in _DU_POPS:
        site = f"pop-{provider.lower()}-{city}"
        clients.append(
            _make_client(
                f"du-{provider.lower()}-{city}", ClientCategory.DIALUP, site,
                SiteRegion.US, allocator, site_prefixes,
                provider=provider, city=city,
            )
        )
    return clients


def _build_corpnet(
    allocator: AddressAllocator, site_prefixes: Dict[str, Tuple[Prefix, ...]]
) -> Tuple[List[Client], List[ProxySpec]]:
    clients = []
    proxies = []
    for name, location, proxy_name, region in _CN_NODES:
        site = f"corp-{location}"
        clients.append(
            _make_client(
                name, ClientCategory.CORPNET, site, region,
                allocator, site_prefixes, proxy_name=proxy_name, city=location,
            )
        )
        proxy_prefix = site_prefixes[site][0]
        proxies.append(
            ProxySpec(
                name=proxy_name,
                location="japan" if name == "CHN" else location,
                address=allocator.allocate_address(proxy_prefix),
                prefix=proxy_prefix,
            )
        )
    # SEAEXT: outside the firewall/proxy, same WAN connectivity (prefix) as
    # SEA1/SEA2 but its own site key, so it is not treated as co-located.
    site_prefixes["corp-seattle-ext"] = site_prefixes["corp-seattle"]
    clients.append(
        _make_client(
            "SEAEXT", ClientCategory.CORPNET, "corp-seattle-ext",
            SiteRegion.US, allocator, site_prefixes, city="seattle",
        )
    )
    return clients, proxies


def _build_broadband(
    allocator: AddressAllocator, site_prefixes: Dict[str, Tuple[Prefix, ...]]
) -> List[Client]:
    clients = []
    for name, site, city, provider in _BB_CLIENTS:
        clients.append(
            _make_client(
                name, ClientCategory.BROADBAND, site, SiteRegion.US,
                allocator, site_prefixes, provider=provider, city=city,
            )
        )
    return clients


def _build_websites(allocator: AddressAllocator) -> List[Website]:
    websites: List[Website] = []
    size_cycle = (8000, 15000, 24000, 40000, 64000, 12000, 30000, 52000)
    counter = 0
    for category, names in WEBSITES_BY_CATEGORY.items():
        for name in names:
            counter += 1
            index_bytes = size_cycle[counter % len(size_cycle)]
            region = _website_region(name, category)
            redirect_p = REDIRECTING_SITES.get(name, 0.0)
            # The bare hostname bounces to a www alias served by the same
            # replicas (the common 2005 pattern); the alias serves content.
            redirect_to = f"www.{name}" if redirect_p > 0 else None
            if name in CDN_SITES:
                websites.append(
                    Website(
                        name=name, category=category, region=region,
                        replicas=(), cdn=True, cdn_pool_size=200,
                        index_bytes=index_bytes,
                        redirect_probability=redirect_p, redirect_to=redirect_to,
                    )
                )
                continue
            n_replicas = MULTI_REPLICA_SITES.get(name, 1)
            spread = name in SPREAD_REPLICA_SITES
            replicas = []
            if spread:
                for _ in range(n_replicas):
                    prefix = allocator.allocate_prefix(24)
                    replicas.append(
                        Replica(
                            address=allocator.allocate_address(prefix),
                            prefixes=(prefix,),
                        )
                    )
            else:
                prefix = allocator.allocate_prefix(24)
                for _ in range(n_replicas):
                    replicas.append(
                        Replica(
                            address=allocator.allocate_address(prefix),
                            prefixes=(prefix,),
                        )
                    )
            websites.append(
                Website(
                    name=name, category=category, region=region,
                    replicas=tuple(replicas), replicas_same_subnet=not spread,
                    index_bytes=index_bytes,
                    redirect_probability=redirect_p, redirect_to=redirect_to,
                )
            )
    return websites


@obs.span("world.defaults.build")
def build_default_world(hours: int = DEFAULT_HOURS, seed: int = 0) -> World:
    """Build the paper's world: 134 clients, 80 websites, 5 proxies.

    ``hours`` sets the experiment duration (744 = the paper's month);
    ``seed`` perturbs only address assignment, not roster structure.
    """
    if hours < 1:
        raise ValueError("need at least one hour")
    allocator = AddressAllocator(seed=seed)
    site_prefixes: Dict[str, Tuple[Prefix, ...]] = {}
    clients: List[Client] = []
    clients.extend(_build_planetlab(allocator, site_prefixes))
    clients.extend(_build_dialup(allocator, site_prefixes))
    cn_clients, proxies = _build_corpnet(allocator, site_prefixes)
    clients.extend(cn_clients)
    clients.extend(_build_broadband(allocator, site_prefixes))
    websites = _build_websites(allocator)
    return World(clients=clients, websites=websites, proxies=proxies, hours=hours)
