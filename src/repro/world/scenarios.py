"""What-if scenario builders.

The generative world invites counterfactuals the paper could only discuss
(Section 5, "Implications of our findings").  Each builder returns a
modified :class:`~repro.world.faults.FaultConfig` (or transforms a
generated :class:`~repro.world.faults.GroundTruth`) implementing one
intervention, so its end-to-end effect can be measured with the ordinary
pipeline:

* :func:`reliable_ldns` -- the paper's first implication: "improving the
  reliability of the DNS lookups will go a long way"; removes LDNS
  outages and measures how much of the failure rate disappears.
* :func:`stable_bgp` -- no severe routing instability (second
  implication: address severe episodes, not general churn).
* :func:`no_permanent_pairs` -- unblock the 38 broken pairs.
* :func:`anycast_replicas` -- every site served from independent subnets
  (no correlated total-replica failures).
* :func:`failover_proxies` -- proxies that retry alternate A records
  (the Section 4.7 fix).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

import numpy as np

from repro.world.entities import World
from repro.world.faults import FaultConfig, FaultGenerator, GroundTruth
from repro.world.outcome_model import AccessConfig
from repro.world.rng import RNGRegistry
from repro.world.simulator import MonthSimulator, SimulationResult


def _clone_truth(truth: GroundTruth) -> GroundTruth:
    """A deep-enough copy: fresh arrays, shared immutable metadata."""
    return dataclasses.replace(
        truth,
        client_up=truth.client_up.copy(),
        ldns_fail=truth.ldns_fail.copy(),
        wan_fail=truth.wan_fail.copy(),
        wan_dns_fail=truth.wan_dns_fail.copy(),
        site_fail=truth.site_fail.copy(),
        replica_fail=truth.replica_fail.copy(),
        site_auth_timeout=truth.site_auth_timeout.copy(),
        site_dns_error=truth.site_dns_error.copy(),
        site_http_error=truth.site_http_error.copy(),
        permanent_pair=truth.permanent_pair.copy(),
        permanent_pair_kind=truth.permanent_pair_kind.copy(),
        proxy_hostile=truth.proxy_hostile.copy(),
        direct_elevated=truth.direct_elevated.copy(),
        bgp_client_fail=truth.bgp_client_fail.copy(),
        bgp_replica_fail=truth.bgp_replica_fail.copy(),
    )


def reliable_ldns(truth: GroundTruth) -> GroundTruth:
    """Perfectly reliable local DNS (Section 5, implication #1).

    Zeroes LDNS outages and the DNS side of WAN outages; TCP-level client
    trouble remains.
    """
    fixed = _clone_truth(truth)
    fixed.ldns_fail[:] = 0.0
    fixed.wan_dns_fail[:] = 0.0
    return fixed


def stable_bgp(truth: GroundTruth) -> GroundTruth:
    """No BGP-driven end-to-end outages (implication #2)."""
    fixed = _clone_truth(truth)
    fixed.bgp_client_fail[:] = 0.0
    fixed.bgp_replica_fail[:] = 0.0
    return fixed


def no_permanent_pairs(truth: GroundTruth) -> GroundTruth:
    """Unblock the near-permanently failing pairs (Section 4.4.2)."""
    fixed = _clone_truth(truth)
    fixed.permanent_pair[:] = 0.0
    fixed.permanent_pair_kind[:] = 0
    return fixed


def anycast_replicas(truth: GroundTruth) -> GroundTruth:
    """Halve correlated site-wide outages, as if every multi-replica site
    were spread across independent subnets/providers (Section 4.5's
    same-/24 finding inverted)."""
    fixed = _clone_truth(truth)
    fixed.site_fail *= 0.5
    return fixed


def failover_proxies(truth: GroundTruth) -> GroundTruth:
    """Proxies that retry alternate A records (the Section 4.7 fix).

    With failover, a single dead replica no longer fails the proxied
    request; only all-replica outages do.  Approximated by removing the
    independent replica-outage component the proxied path is exposed to.
    """
    fixed = _clone_truth(truth)
    fixed.replica_fail[:] = 0.0
    fixed.proxy_hostile[:] = 0.0
    return fixed


def plant_server_fault(
    truth: GroundTruth,
    world: World,
    site: str,
    start_hour: int,
    end_hour: int,
    intensity: float = 0.5,
) -> GroundTruth:
    """Inject a correlated server-side outage into the ground truth.

    Raises ``site``'s site-wide failure probability to at least
    ``intensity`` over hours ``[start_hour, end_hour)`` -- the
    controlled fault the online-detection SLO experiments measure
    onset-to-alert latency against (``repro simulate --fault
    server:SITE:START-END:INTENSITY``).  Everything else about the
    generated truth is untouched, so the fault's footprint in the
    dataset is exactly the planted window.
    """
    if not 0 <= start_hour < end_hour <= world.hours:
        raise ValueError(
            f"fault window [{start_hour}, {end_hour}) outside the "
            f"experiment (0..{world.hours})"
        )
    if not 0.0 < intensity <= 1.0:
        raise ValueError(f"fault intensity out of (0, 1]: {intensity}")
    try:
        si = world.site_idx(site)
    except KeyError:
        raise ValueError(f"unknown site {site!r}") from None
    planted = _clone_truth(truth)
    planted.site_fail[si, start_hour:end_hour] = np.maximum(
        planted.site_fail[si, start_hour:end_hour], intensity
    )
    return planted


def parse_fault_spec(spec: str):
    """Parse ``server:SITE:START-END:INTENSITY`` into a truth transform.

    Returns a ``truth_transform(world, truth)`` callable for
    :func:`repro.world.simulator.simulate_default_month`.  Only the
    ``server`` fault kind exists today; the spec grammar leaves room
    for client-side kinds later.
    """
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] != "server":
        raise ValueError(
            f"bad fault spec {spec!r}; expected "
            "server:SITE:START-END:INTENSITY "
            "(e.g. server:berkeley.edu:24-48:0.5)"
        )
    _, site, window, intensity_str = parts
    start_str, sep, end_str = window.partition("-")
    if not sep:
        raise ValueError(f"bad fault window {window!r}; expected START-END")
    try:
        start_hour, end_hour = int(start_str), int(end_str)
        intensity = float(intensity_str)
    except ValueError:
        raise ValueError(
            f"bad fault spec {spec!r}: window bounds must be ints, "
            "intensity a float"
        ) from None

    def transform(world: World, truth: GroundTruth) -> GroundTruth:
        return plant_server_fault(
            truth, world, site, start_hour, end_hour, intensity
        )

    return transform


#: The named interventions, in the order the paper discusses them.
INTERVENTIONS: Dict[str, Callable[[GroundTruth], GroundTruth]] = {
    "reliable_ldns": reliable_ldns,
    "stable_bgp": stable_bgp,
    "no_permanent_pairs": no_permanent_pairs,
    "anycast_replicas": anycast_replicas,
    "failover_proxies": failover_proxies,
}


def run_intervention(
    world: World,
    truth: GroundTruth,
    name: str,
    per_hour: int = 2,
    seed: int = 7,
) -> SimulationResult:
    """Simulate the world under one named intervention."""
    try:
        transform = INTERVENTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown intervention {name!r}; choose from {sorted(INTERVENTIONS)}"
        ) from None
    fixed = transform(truth)
    simulator = MonthSimulator(
        world,
        access=AccessConfig(per_hour=per_hour),
        rngs=RNGRegistry(seed),
        truth=fixed,
    )
    return simulator.run()


def intervention_study(
    world: World,
    truth: GroundTruth,
    per_hour: int = 2,
    seed: int = 7,
) -> Dict[str, float]:
    """Overall failure rate under the baseline and every intervention.

    Returns ``{"baseline": rate, intervention: rate, ...}`` -- the
    quantified version of the paper's Section 5 discussion.
    """
    baseline = MonthSimulator(
        world,
        access=AccessConfig(per_hour=per_hour),
        rngs=RNGRegistry(seed),
        truth=truth,
    ).run()
    results = {"baseline": _rate(baseline)}
    for name in INTERVENTIONS:
        results[name] = _rate(
            run_intervention(world, truth, name, per_hour, seed)
        )
    return results


def _rate(result: SimulationResult) -> float:
    dataset = result.dataset
    total = int(dataset.sums(("transactions",), ""))
    return int(dataset.sums(dataset.FAILURE_FIELDS, "")) / total if total else 0.0
