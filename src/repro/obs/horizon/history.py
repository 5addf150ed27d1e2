"""Multi-resolution, fixed-size history of per-hour entity stats.

:class:`HistoryStore` is the bounded memory behind ``/history``: every
folded simulated hour lands in one *cell* per resolution, and each
resolution keeps at most a fixed number of cells in a ring buffer --
so an indefinite ``repro serve --hours 0`` run holds a two-week
raw-hour window, a quarter at 6h, a year at day, and a decade at week
resolution, in constant space, forever.

Rollup invariants (the property tests in ``tests/obs/test_horizon.py``
hold these exactly, not approximately):

* every cell at every resolution is folded **directly from the raw
  hours it spans** -- there is no cascade of partial rollups, so a
  downsampled cell's sums/counts/maxes are *equal* (not close) to a
  recomputation from the raw hour stream;
* **sums add** (``transactions``, ``failures``, per-entity ``t``/``f``,
  per-entity ``valid`` hour counts), **counts add** (``hours``), and
  **maxes max** (``max_rate``, per-entity ``max_rate``) -- the only
  three merge operators, chosen because they are associative and exact
  over the integers and ratio-of-small-int floats involved;
* a cell is **immutable once complete** (``hours == span``): its
  canonical-JSON digest never changes afterwards, and ring-buffer
  eviction of older cells can never perturb a surviving cell's digest.

Entity-hour validity is the dataset's ``MIN_SAMPLES_PER_HOUR`` rule;
an entity's ``max_rate`` only considers its valid hours (0.0 while it
has none -- disambiguated by ``valid == 0``).  Per-entity fields are
numpy arrays in memory, folded once per hour into every resolution;
they become lists only where JSON is written (documents,
:func:`cell_digest`, :meth:`HistoryStore.export_state`).

Folding must happen strictly in ascending hour order (the online
detector's cursor guarantees this), which makes every document a pure
function of the folded hour sequence -- bit-identical at any worker
count and across kill/resume (state export/restore round-trips the
exact cells).

Only a ring's newest cell is ever folded into, so every older cell is
final.  The retention checkpoint relies on that: ``export_state(logged)``
hands each final cell to the checkpoint log once (stream
``cells.<resolution>``, ordinal = the cell's creation order) and keeps
only the newest cell per ring inline, so a checkpoint's size does not
grow with the run; ``restore_state(state, log)`` rebuilds each ring
from the logged cells and that inline one.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dataset import MIN_SAMPLES_PER_HOUR
from repro.obs.runstore.manifest import canonical_json

#: Schema stamped on ``/history`` documents and exported state.
HISTORY_SCHEMA = "repro.history/1"

#: (name, span in raw hours, ring capacity in cells).  Capacities are
#: chosen so coarser resolutions cover strictly longer horizons: 2
#: weeks of raw hours, ~12 weeks of 6h, a year of days, 10 years of
#: weeks -- ~1.5k cells total, constant forever.
RESOLUTIONS = (
    ("hour", 1, 336),
    ("6h", 6, 336),
    ("day", 24, 365),
    ("week", 168, 520),
)

_SIDES = ("client", "server")

#: One hour's per-entity counts: a column of ``entity_hour_sums``.
Column = Union[np.ndarray, Sequence[int]]

#: A cell's per-entity fields (in JSON key order) and their dtypes.
_SIDE_FIELDS = {
    "t": np.int64, "f": np.int64, "valid": np.int64, "max_rate": np.float64,
}


def _map_sides(cell: Dict[str, Any], convert) -> Dict[str, Any]:
    """``cell`` with ``convert(field, dtype)`` applied per entity field."""
    return {**cell, **{
        side: {
            key: convert(cell[side][key], dtype)
            for key, dtype in _SIDE_FIELDS.items()
        }
        for side in _SIDES
    }}


def _cell_json(cell: Dict[str, Any]) -> Dict[str, Any]:
    """The cell with its per-entity arrays as lists (the JSON form)."""
    return _map_sides(cell, lambda field, _: field.tolist())


def cell_digest(cell: Dict[str, Any]) -> str:
    """Canonical-JSON digest of one cell (stable once the cell is full)."""
    return hashlib.sha256(
        canonical_json(_cell_json(cell)).encode("utf-8")
    ).hexdigest()


def _new_cell(index: int, span: int, entities: Dict[str, int]) -> Dict[str, Any]:
    cell: Dict[str, Any] = {
        "index": index,
        "hour_start": index * span,
        "hour_stop": (index + 1) * span,
        "hours": 0,
        "transactions": 0,
        "failures": 0,
        "max_rate": 0.0,
    }
    for side in _SIDES:
        cell[side] = {
            key: np.zeros(entities[side], dtype=dtype)
            for key, dtype in _SIDE_FIELDS.items()
        }
    return cell


def _totals(t: int, f: int) -> Dict[str, Any]:
    t, f = int(t), int(f)
    rate = (f / t) if t > 0 else None
    return {"transactions": t, "failures": f, "rate": rate}


class RosterObserver:
    """The roster half of the detector-observer protocol.

    Holds each side's entity names in array-index order and each client
    region's member indices; the horizon observers derive from it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._names: Dict[str, List[str]] = {side: [] for side in _SIDES}
        self._set_regions([])

    def on_run_start(self, event: Dict[str, Any]) -> None:
        """Capture the entity rosters (and client regions, if shipped)."""
        with self._lock:
            for side, key in (("client", "clients"), ("server", "servers")):
                names = event.get(key)
                if isinstance(names, list):
                    self._names[side] = [str(n) for n in names]
            if isinstance(event.get("client_regions"), list):
                self._set_regions(event["client_regions"])

    def _set_regions(self, regions: Sequence[str]) -> None:
        self._regions = [str(r) for r in regions]
        labels = np.array(self._regions, dtype=object)
        #: Region -> its client indices, regions in sorted order.
        self._members: Dict[str, np.ndarray] = {
            r: np.flatnonzero(labels == r) for r in sorted(set(self._regions))
        }


def hour_sides(
    ct: Column, cf: Column, st: Column, sf: Column
) -> Dict[str, Tuple[np.ndarray, ...]]:
    """One hour's ``(t, f, valid, rates)`` arrays for each side.

    ``rates`` is ``f / t`` on valid entity-hours and 0.0 elsewhere, so
    a running ``np.maximum`` over it is the max over valid hours only.
    """
    sides = {}
    for side, trans, fails in (("client", ct, cf), ("server", st, sf)):
        t = np.asarray(trans, dtype=np.int64)
        f = np.asarray(fails, dtype=np.int64)
        valid = t >= MIN_SAMPLES_PER_HOUR
        rates = np.divide(f, t, out=np.zeros(len(t)), where=valid)
        sides[side] = (t, f, valid, rates)
    return sides


class HistoryStore(RosterObserver):
    """Fixed-size cascading-resolution rollups of the hour-stats stream."""

    def __init__(
        self, resolutions: Sequence[tuple] = RESOLUTIONS
    ) -> None:
        self.resolutions = tuple(
            (str(name), int(span), int(capacity))
            for name, span, capacity in resolutions
        )
        super().__init__()
        #: resolution name -> ring of cells, oldest first.
        self._rings: Dict[str, List[Dict[str, Any]]] = {
            name: [] for name, _, _ in self.resolutions
        }
        self._evicted: Dict[str, int] = {
            name: 0 for name, _, _ in self.resolutions
        }
        self._last_folded: Optional[int] = None
        self.hours_folded = 0

    # -- detector-observer protocol ---------------------------------------------

    def on_hour(
        self, hour: int, ct: Column, cf: Column, st: Column, sf: Column
    ) -> None:
        """Fold one completed hour into every resolution's current cell."""
        with self._lock:
            if self._last_folded is not None and hour <= self._last_folded:
                raise ValueError(
                    f"history folded out of order: hour {hour} after "
                    f"{self._last_folded}"
                )
            self._last_folded = hour
            self.hours_folded += 1
            per_side = hour_sides(ct, cf, st, sf)
            transactions = int(per_side["client"][0].sum())
            failures = int(per_side["client"][1].sum())
            rate = (failures / transactions) if transactions > 0 else 0.0
            entities = {side: len(per_side[side][0]) for side in _SIDES}
            for name, span, capacity in self.resolutions:
                ring = self._rings[name]
                index = hour // span
                cell = ring[-1] if ring else None
                if cell is None or cell["index"] != index:
                    cell = _new_cell(index, span, entities)
                    ring.append(cell)
                    excess = len(ring) - capacity
                    if excess > 0:
                        del ring[:excess]
                        self._evicted[name] += excess
                cell["hours"] += 1
                cell["transactions"] += transactions
                cell["failures"] += failures
                if rate > cell["max_rate"]:
                    cell["max_rate"] = rate
                for side, (t, f, valid, rates) in per_side.items():
                    bucket = cell[side]
                    bucket["t"] += t
                    bucket["f"] += f
                    bucket["valid"] += valid
                    np.maximum(
                        bucket["max_rate"], rates, out=bucket["max_rate"]
                    )

    # -- documents ---------------------------------------------------------------

    def document(self, params: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
        """The ``/history`` response for one query.

        Parameters (all optional): ``series`` = ``overall`` (default) |
        ``client`` | ``server`` | ``region``; ``res`` = resolution name
        (default ``hour``); ``entity`` = an entity name (restricts a
        ``client``/``server`` series to one roster member); ``from`` /
        ``to`` = inclusive/exclusive raw-hour bounds on cell starts.
        """
        params = params or {}
        series = params.get("series") or "overall"
        res = params.get("res") or self.resolutions[0][0]
        entity = params.get("entity")
        known = {name for name, _, _ in self.resolutions}
        if res not in known:
            raise KeyError(
                f"unknown resolution {res!r} "
                f"(expected one of {', '.join(sorted(known))})"
            )
        if series not in ("overall", "client", "server", "region"):
            raise KeyError(
                f"unknown series {series!r} "
                "(expected overall, client, server, or region)"
            )
        try:
            hour_from = int(params["from"]) if "from" in params else None
            hour_to = int(params["to"]) if "to" in params else None
        except ValueError:
            raise KeyError("from/to must be integers (raw sim-hours)")
        with self._lock:
            index = None
            if entity is not None and series in _SIDES:
                # Validate eagerly: an empty ring must still 400 on an
                # unknown entity, not silently return zero points.
                if entity not in self._names[series]:
                    raise KeyError(f"unknown {series} entity {entity!r}")
                index = self._names[series].index(entity)
            span = next(s for n, s, _ in self.resolutions if n == res)
            cells = [
                cell for cell in self._rings[res]
                if (hour_from is None or cell["hour_start"] >= hour_from)
                and (hour_to is None or cell["hour_start"] < hour_to)
            ]
            points = [
                self._render_cell(cell, series, index) for cell in cells
            ]
            return {
                "schema": HISTORY_SCHEMA,
                "series": series,
                "resolution": res,
                "span_hours": span,
                "entity": entity,
                "hours_folded": self.hours_folded,
                "last_folded_hour": self._last_folded,
                "evicted_cells": self._evicted[res],
                "point_count": len(points),
                "points": points,
            }

    def _render_cell(
        self, cell: Dict[str, Any], series: str, index: Optional[int]
    ) -> Dict[str, Any]:
        point = {k: cell[k] for k in ("hour_start", "hour_stop", "hours")}
        if series == "overall":
            point.update(
                _totals(cell["transactions"], cell["failures"]),
                max_rate=cell["max_rate"],
            )
        elif series == "region":
            bucket = cell["client"]
            point["regions"] = {
                region: _totals(
                    bucket["t"][members].sum(), bucket["f"][members].sum()
                )
                for region, members in self._members.items()
            }
        elif index is not None:
            bucket = cell[series]
            point.update(
                _totals(bucket["t"][index], bucket["f"][index]),
                valid_hours=int(bucket["valid"][index]),
                max_rate=float(bucket["max_rate"][index]),
            )
        else:
            bucket = cell[series]
            point.update(
                _totals(bucket["t"].sum(), bucket["f"].sum()),
                entities=len(bucket["t"]),
                entities_valid=int(np.count_nonzero(bucket["valid"])),
            )
        return point

    def cell_digests(self, res: str) -> List[str]:
        """Digests of the resolution's cells, oldest first (tests)."""
        with self._lock:
            return [cell_digest(cell) for cell in self._rings[res]]

    def cell_counts(self) -> Dict[str, int]:
        """Cells currently held per resolution (bounded by capacity)."""
        with self._lock:
            return {name: len(ring) for name, ring in self._rings.items()}

    # -- checkpoint state --------------------------------------------------------

    def export_state(
        self, logged: Optional[Dict[str, int]] = None
    ) -> Dict[str, Any]:
        """The JSON-able state (checkpointed at pruning boundaries).

        Without ``logged`` every ring cell is inline.  With it -- the
        cell count per :func:`log_stream` already in the checkpoint
        log -- only each ring's newest cell is inline; the cells before
        it can no longer change, and those not yet logged go to
        ``state["log"]`` in the :meth:`ChunkStore.write_checkpoint
        <repro.obs.runstore.chunks.ChunkStore.write_checkpoint>` form,
        with the ring's evicted count as the stream's floor.  A cell's
        ordinal in its stream is its creation order: ``evicted`` plus
        its ring position.
        """
        with self._lock:
            state = {
                "schema": HISTORY_SCHEMA,
                "resolutions": [list(r) for r in self.resolutions],
                "names": {s: list(self._names[s]) for s in _SIDES},
                "regions": list(self._regions),
                "evicted": dict(self._evicted),
                "last_folded": self._last_folded,
                "hours_folded": self.hours_folded,
            }
            if logged is None:
                state["rings"] = {
                    name: [_cell_json(cell) for cell in ring]
                    for name, ring in self._rings.items()
                }
                return state
            state.update(ring_lengths={}, rings={}, log={})
            for name, ring in self._rings.items():
                evicted = self._evicted[name]
                start = max(int(logged.get(log_stream(name), 0)), evicted)
                state["ring_lengths"][name] = len(ring)
                state["rings"][name] = [_cell_json(c) for c in ring[-1:]]
                state["log"][log_stream(name)] = {
                    "start": start,
                    "records": [
                        _cell_json(cell)
                        for cell in ring[start - evicted:-1]
                    ],
                    "floor": evicted,
                }
            return state

    def restore_state(
        self,
        state: Dict[str, Any],
        log: Optional[Dict[str, Tuple[int, List[Any]]]] = None,
    ) -> None:
        """Restore an :meth:`export_state` snapshot (exact round-trip).

        A snapshot taken with ``logged`` needs ``log``, the records
        :meth:`ChunkStore.read_log
        <repro.obs.runstore.chunks.ChunkStore.read_log>` returns for
        the counts it covers; each ring's older cells come from there.
        """
        with self._lock:
            stored = tuple(
                (str(n), int(s), int(c)) for n, s, c in state["resolutions"]
            )
            if stored != self.resolutions:
                raise ValueError(
                    "history checkpoint was taken under different "
                    f"resolutions ({stored} vs {self.resolutions})"
                )
            rings = {
                name: self._logged_cells(state, name, log or {})
                + state["rings"][name]
                for name, _, _ in self.resolutions
            }
            self._names = {
                s: [str(n) for n in state["names"][s]] for s in _SIDES
            }
            self._set_regions(state.get("regions") or [])
            self._rings = {
                name: [_map_sides(c, np.array) for c in ring]
                for name, ring in rings.items()
            }
            self._evicted = {
                name: int(state["evicted"][name])
                for name, _, _ in self.resolutions
            }
            self._last_folded = (
                int(state["last_folded"])
                if state["last_folded"] is not None else None
            )
            self.hours_folded = int(state["hours_folded"])

    @staticmethod
    def _logged_cells(
        state: Dict[str, Any], name: str,
        log: Dict[str, Tuple[int, List[Any]]],
    ) -> List[Dict[str, Any]]:
        """The ring cells of ``name`` that a snapshot left in the log."""
        lengths = state.get("ring_lengths")
        if lengths is None or not lengths[name]:
            return []
        evicted = int(state["evicted"][name])
        stop = evicted + int(lengths[name]) - 1
        first, records = log.get(log_stream(name), (stop, []))
        if first > evicted or first + len(records) != stop:
            raise ValueError(
                f"checkpoint log {log_stream(name)} holds cells "
                f"[{first}, {first + len(records)}) but the {name} ring "
                f"needs [{evicted}, {stop})"
            )
        return records[evicted - first:]


def log_stream(resolution: str) -> str:
    """The checkpoint-log stream of one resolution's completed cells."""
    return f"cells.{resolution}"
