"""The SLO engine: availability, error budget, burn rates, MTBF/MTTR.

:class:`SLOEngine` consumes the same per-hour entity stats the online
detector folds and maintains, in O(entities + window) space:

* **availability** per side (client / server) and per client *region*:
  the fraction of *valid* entity-hours (``MIN_SAMPLES_PER_HOUR``
  transactions, exactly the dataset's validity rule) in which the
  entity's failure rate stayed below the paper's fixed f = 5%
  threshold.  The fixed threshold -- not the adaptive knee -- keeps the
  SLO ledger stable over an indefinite horizon: an availability number
  must not change retroactively because the threshold moved;
* **error budget**: with objective ``o`` the budget is ``1 - o``;
  consumption is cumulative unavailability divided by the budget
  (>1.0 means the budget is blown);
* **burn rates** over trailing 1h / 6h / 3d windows of the overall
  failure rate (rate / budget, the standard multi-window burn framing);
* **MTBF / MTTR** per entity, Cloud-Uptime-Archive-style: a *down
  episode* starts when a valid hour crosses the threshold and ends at
  the next valid below-threshold hour; MTBF is up-hours per episode,
  MTTR down-hours per episode.  Invalid hours neither heal nor extend
  an episode -- an unmeasured entity keeps its last known state.

Every quantity is a pure integer-accumulator function of the folded
hour sequence (divisions only at render time), so documents are
bit-identical at any worker count and across kill/resume;
:meth:`export_state` / :meth:`restore_state` round-trip the
accumulators exactly for the retention checkpoint.

Each side's accumulators are int64 arrays over its entities in
memory, and lists only where JSON is written (documents and
:meth:`export_state`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core import knee as knee_mod
from repro.obs.horizon.history import Column, RosterObserver, hour_sides
from repro.obs.metrics import MetricsRegistry

#: Schema stamped on ``/slo`` documents and exported state.
SLO_SCHEMA = "repro.slo/1"

#: Default availability objective (two nines of entity-hours).
DEFAULT_OBJECTIVE = 0.99

#: The fixed down threshold (the paper's f = 5%; see module docstring).
DOWN_THRESHOLD = knee_mod.FALLBACK_THRESHOLD

#: Trailing burn-rate windows: (label, hours).
BURN_WINDOWS = (("1h", 1), ("6h", 6), ("3d", 72))

_SIDES = ("client", "server")

_UNKNOWN, _UP, _DOWN = -1, 1, 0


#: A side's per-entity accumulators, in export order.
_LEDGER_FIELDS = ("up", "down", "valid", "status", "episodes")


class SLOEngine(RosterObserver):
    """Fold hour stats into an SLO ledger (see module docstring)."""

    def __init__(self, objective: float = DEFAULT_OBJECTIVE) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective out of (0, 1): {objective}")
        self.objective = objective
        self.budget = 1.0 - objective
        super().__init__()
        #: Sized by the first folded hour (empty until then).
        self._ledgers = {
            side: {key: np.zeros(0, np.int64) for key in _LEDGER_FIELDS}
            for side in _SIDES
        }
        self._window: Deque[Tuple[int, int, int]] = deque(
            maxlen=max(hours for _, hours in BURN_WINDOWS)
        )
        self.transactions = 0
        self.failures = 0
        self._last_folded: Optional[int] = None
        self.hours_folded = 0

    # -- detector-observer protocol ---------------------------------------------

    def on_hour(
        self, hour: int, ct: Column, cf: Column, st: Column, sf: Column
    ) -> None:
        with self._lock:
            if self._last_folded is not None and hour <= self._last_folded:
                raise ValueError(
                    f"SLO ledger folded out of order: hour {hour} after "
                    f"{self._last_folded}"
                )
            self._last_folded = hour
            self.hours_folded += 1
            per_side = hour_sides(ct, cf, st, sf)
            transactions = int(per_side["client"][0].sum())
            failures = int(per_side["client"][1].sum())
            self.transactions += transactions
            self.failures += failures
            self._window.append((hour, transactions, failures))
            for side, (t, _, valid, rates) in per_side.items():
                ledger = self._ledgers[side]
                if not len(ledger["status"]):
                    ledger.update({
                        key: np.zeros(len(t), dtype=np.int64)
                        for key in _LEDGER_FIELDS
                    })
                    ledger["status"][:] = _UNKNOWN
                down = valid & (rates >= DOWN_THRESHOLD)
                up = valid & ~down
                ledger["valid"] += valid
                ledger["down"] += down
                ledger["up"] += up
                ledger["episodes"] += down & (ledger["status"] != _DOWN)
                ledger["status"][down] = _DOWN
                ledger["status"][up] = _UP

    # -- render-time math --------------------------------------------------------

    def _burn_rates(self) -> Dict[str, Optional[float]]:
        burn: Dict[str, Optional[float]] = {}
        newest = self._last_folded
        for label, hours in BURN_WINDOWS:
            if newest is None:
                burn[label] = None
                continue
            t = f = 0
            for entry_hour, trans, fails in self._window:
                if entry_hour > newest - hours:
                    t += trans
                    f += fails
            burn[label] = ((f / t) / self.budget) if t > 0 else None
        return burn

    def _availability(self, up: int, valid: int) -> Dict[str, Any]:
        availability = (up / valid) if valid > 0 else None
        return {
            "availability": availability,
            "error_budget_consumed": (
                (1.0 - availability) / self.budget
                if availability is not None else None
            ),
        }

    def _side_document(self, side: str) -> Dict[str, Any]:
        ledger = self._ledgers[side]
        up, down, valid, episodes = (
            int(ledger[key].sum())
            for key in ("up", "down", "valid", "episodes")
        )
        return {
            "entities": len(ledger["up"]),
            "valid_entity_hours": valid,
            "up_entity_hours": up,
            "down_entity_hours": down,
            **self._availability(up, valid),
            "down_episodes": episodes,
            "mtbf_hours": (up / episodes) if episodes > 0 else None,
            "mttr_hours": (down / episodes) if episodes > 0 else None,
        }

    def _region_documents(self) -> Dict[str, Dict[str, Any]]:
        ledger = self._ledgers["client"]
        documents: Dict[str, Dict[str, Any]] = {}
        for region, members in self._members.items():
            # Empty before the first folded hour: then no region shows.
            members = members[members < len(ledger["up"])]
            if not len(members):
                continue
            valid = int(ledger["valid"][members].sum())
            documents[region] = {
                "entities": len(members),
                "valid_entity_hours": valid,
                **self._availability(
                    int(ledger["up"][members].sum()), valid
                ),
            }
        return documents

    def _worst_entities(self, limit: int = 10) -> List[Dict[str, Any]]:
        rows: List[Dict[str, Any]] = []
        for side in _SIDES:
            ledger = self._ledgers[side]
            names = self._names[side]
            flagged = np.flatnonzero(
                (ledger["valid"] > 0) & (ledger["down"] > 0)
            )
            for i, up, down, valid, episodes in zip(flagged.tolist(), *(
                ledger[key][flagged].tolist()
                for key in ("up", "down", "valid", "episodes")
            )):
                # A down hour always opens or extends an episode, so
                # ``episodes`` is positive here.
                rows.append({
                    "side": side,
                    "entity": (
                        names[i] if i < len(names) else f"{side}:{i}"
                    ),
                    "availability": up / valid,
                    "valid_hours": valid,
                    "down_hours": down,
                    "down_episodes": episodes,
                    "mtbf_hours": up / episodes,
                    "mttr_hours": down / episodes,
                })
        rows.sort(
            key=lambda r: (r["availability"], r["side"], r["entity"])
        )
        return rows[:limit]

    def document(self, worst_limit: int = 10) -> Dict[str, Any]:
        """The ``/slo`` response (and the ``repro slo`` table's source)."""
        with self._lock:
            overall_rate = (
                self.failures / self.transactions
                if self.transactions > 0 else None
            )
            return {
                "schema": SLO_SCHEMA,
                "objective": self.objective,
                "budget": self.budget,
                "down_threshold": DOWN_THRESHOLD,
                "hours_folded": self.hours_folded,
                "last_folded_hour": self._last_folded,
                "transactions": self.transactions,
                "failures": self.failures,
                "overall_failure_rate": overall_rate,
                "burn_rates": self._burn_rates(),
                "sides": {
                    side: self._side_document(side) for side in _SIDES
                },
                "regions": self._region_documents(),
                "worst_entities": self._worst_entities(worst_limit),
            }

    def to_registry(self) -> MetricsRegistry:
        """SLO state as gauges (``repro_slo_*`` once the server prefixes)."""
        registry = MetricsRegistry()
        document = self.document(worst_limit=0)
        for side, doc in document["sides"].items():
            if doc["availability"] is not None:
                registry.gauge("slo_availability", side=side).set(
                    doc["availability"]
                )
                registry.gauge(
                    "slo_error_budget_consumed", side=side
                ).set(doc["error_budget_consumed"])
            registry.gauge("slo_down_episodes", side=side).set(
                doc["down_episodes"]
            )
        for label, burn in document["burn_rates"].items():
            if burn is not None:
                registry.gauge("slo_burn_rate", window=label).set(burn)
        return registry

    # -- checkpoint state --------------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "schema": SLO_SCHEMA,
                "objective": self.objective,
                "regions": list(self._regions),
                "sides": {
                    side: {
                        "names": list(self._names[side]),
                        **{
                            key: ledger[key].tolist()
                            for key in _LEDGER_FIELDS
                        },
                    }
                    for side, ledger in self._ledgers.items()
                },
                "window": [list(entry) for entry in self._window],
                "transactions": self.transactions,
                "failures": self.failures,
                "last_folded": self._last_folded,
                "hours_folded": self.hours_folded,
            }

    def restore_state(self, state: Dict[str, Any]) -> None:
        with self._lock:
            if float(state["objective"]) != self.objective:
                raise ValueError(
                    "SLO checkpoint was taken under a different objective "
                    f"({state['objective']} vs {self.objective})"
                )
            self._set_regions(state.get("regions") or [])
            for side in _SIDES:
                stored = state["sides"][side]
                self._names[side] = [str(n) for n in stored["names"]]
                self._ledgers[side] = {
                    key: np.array(stored[key], dtype=np.int64)
                    for key in _LEDGER_FIELDS
                }
            self._window.clear()
            for entry in state["window"]:
                self._window.append(
                    (int(entry[0]), int(entry[1]), int(entry[2]))
                )
            self.transactions = int(state["transactions"])
            self.failures = int(state["failures"])
            self._last_folded = (
                int(state["last_folded"])
                if state["last_folded"] is not None else None
            )
            self.hours_folded = int(state["hours_folded"])


def render_slo_table(document: Dict[str, Any]) -> str:
    """The ``repro slo`` budget table, rendered from a :meth:`document`."""
    lines: List[str] = []
    objective = document["objective"]
    lines.append(
        f"SLO objective {objective:.4f} "
        f"(budget {document['budget']:.4f}, "
        f"down threshold f={document['down_threshold']:.2f})"
    )
    lines.append(
        f"hours folded: {document['hours_folded']}"
        + (
            f" (through sim-hour {document['last_folded_hour']})"
            if document["last_folded_hour"] is not None else ""
        )
    )
    lines.append("")
    lines.append(
        f"{'side':<14} {'availability':>12} {'budget used':>12} "
        f"{'episodes':>9} {'MTBF h':>8} {'MTTR h':>8}"
    )
    rows = list(document["sides"].items()) + [
        (f"region:{name}", doc) for name, doc in document["regions"].items()
    ]
    def _fmt(value: Optional[float], width: int, spec: str) -> str:
        if value is None:
            return f"{'n/a':>{width}}"
        return f"{value:>{width}{spec}}"

    for name, doc in rows:
        lines.append(
            f"{name:<14} "
            + _fmt(doc.get("availability"), 12, ".6f") + " "
            + _fmt(doc.get("error_budget_consumed"), 12, ".3f") + " "
            + _fmt(doc.get("down_episodes"), 9, "d") + " "
            + _fmt(doc.get("mtbf_hours"), 8, ".1f") + " "
            + _fmt(doc.get("mttr_hours"), 8, ".1f")
        )
    burn = document["burn_rates"]
    lines.append("")
    lines.append(
        "burn rates: " + "  ".join(
            f"{label}={burn[label]:.2f}x" if burn[label] is not None
            else f"{label}=n/a"
            for label, _ in BURN_WINDOWS
        )
    )
    worst = document["worst_entities"]
    if worst:
        lines.append("")
        lines.append("worst entities:")
        for row in worst:
            lines.append(
                f"  {row['side']:<7} {row['entity']:<28} "
                f"avail {row['availability']:.4f}  "
                f"down {row['down_hours']}h/"
                f"{row['down_episodes']} episode(s)"
            )
    return "\n".join(lines) + "\n"
