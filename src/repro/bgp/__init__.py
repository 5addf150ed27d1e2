"""BGP substrate: MRT-style updates, a Routeviews-like collector, churn
generation, and the paper's data-cleaning procedure.

Section 3.6: the paper uses one month of MRT updates from 5 Routeviews
servers whose 73 peering sessions cover the 137 prefixes of the study's 203
client/replica addresses.  For each prefix-hour they count announcements,
withdrawals, and the number of neighbors participating in each -- after
"cleaning" hours polluted by collector session resets.

We generate equivalent update streams: per-prefix background churn, severe
instability events (most neighbors withdrawing, the Figure 5 pattern),
localized events (two heavily-used neighbors withdrawing, the Figure 7
pattern), and collector resets that the cleaning procedure must remove.

Each public name below loads its defining module on first access, so
generating ground truth never compiles the cleaning procedure.
"""

from repro import lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "BGPUpdate": "repro.bgp.messages",
    "UpdateArchive": "repro.bgp.messages",
    "UpdateKind": "repro.bgp.messages",
    "CollectorFleet": "repro.bgp.routeviews",
    "PeeringSession": "repro.bgp.routeviews",
    "CleanedHourlyStats": "repro.bgp.cleaning",
    "clean_hourly_stats": "repro.bgp.cleaning",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
