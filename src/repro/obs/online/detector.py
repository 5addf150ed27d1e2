"""The streaming episode/blame detector.

:class:`OnlineDetector` folds committed ``(client, site, hour)`` count
blocks (:meth:`~OnlineDetector.fold_block`) and, per simulated hour,
mirrors the batch Section 4.4 pipeline incrementally:

* reduces each block once, with numpy, to per-(entity, hour) rates
  (validity: at least ``MIN_SAMPLES_PER_HOUR`` transactions, exactly as
  the batch rate matrices) and folds each hour's valid rates into a
  sorted float64 sample per side;
* re-estimates the episode knee threshold per side from the rate
  samples seen so far, via the shared :mod:`repro.core.knee`
  construction (fallback to the paper's f = 5% while degenerate);
* opens and closes failure episodes with hysteresis: an episode opens
  the first hour an entity's rate clears the current threshold, and
  closes after :data:`CLOSE_AFTER_HOURS` consecutive valid hours below
  it.  Only entities that are flagged or already open are visited.  On
  open, the *onset* is found by walking back over contiguous flagged
  hours -- the gap between onset and open is the detection latency the
  SLO report scores;
* attributes the hour's TCP failures (client-side / server-side / both
  / other) under the paper's fixed f = 5%, bucketed for every hour of
  the block at once from per-(client, hour) sums as
  :func:`repro.core.blame.run_blame_analysis` does, with no pair
  exclusion (an online observer cannot know which pairs will prove
  permanent);
* evaluates the declarative alert rules (:mod:`repro.obs.online.rules`)
  and appends any fired alerts to the run's alert stream.

Determinism is the design center: blocks are folded strictly in hour
order (a block that does not start at the next unfolded hour is
refused), alert records carry no wall-clock fields, entity names are
resolved from the ``run_start`` roster, and every per-hour quantity is
a pure function of the hours folded so far -- the exported alert stream
is therefore bit-identical at any worker count and any chunking.

End-of-run equivalence: the per-entity-hour rates the detector stores
are exactly the batch rate matrices' valid cells, and the final
threshold runs through the same knee code, so
:meth:`OnlineDetector.final_flags` reproduces the batch episode matrix
cell for cell (the property test in ``tests/obs/test_online.py`` holds
this at workers 1 and 4).
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import (
    Any, Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro import obs
from repro.core import knee as knee_mod
from repro.core.dataset import (
    MIN_SAMPLES_PER_HOUR,
    MeasurementDataset,
    entity_hour_sums,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.online.rules import (
    BLAME_VERDICT,
    DEFAULT_RULES,
    EPISODE_OPENED,
    FAILURE_RATE_BURN,
    SLO_BURN,
    AlertRule,
)

#: Schema identifier stamped on the ``alerts.jsonl`` header line.
ALERTS_SCHEMA = "repro.alerts/1"

#: Schema identifier stamped on exported detector state (the retention
#: checkpoint record embeds one of these).
DETECTOR_STATE_SCHEMA = "repro.detector-state/1"

#: Consecutive *valid* below-threshold hours before an open episode
#: closes (hysteresis against single-hour dips).
CLOSE_AFTER_HOURS = 2

#: The fixed threshold blame attribution runs at (the paper's f = 5%;
#: the adaptive knee drives episode *alerting*, but verdict bucketing
#: must match the batch Table 5 pipeline exactly).
BLAME_THRESHOLD = knee_mod.FALLBACK_THRESHOLD

_SIDES = ("client", "server")


class _SideState:
    """Running per-side detection state (one for clients, one for servers)."""

    __slots__ = ("side", "names", "sorted_rates", "by_hour", "open", "episodes")

    def __init__(self, side: str) -> None:
        self.side = side
        self.names: Optional[List[str]] = None
        #: Every retained valid entity-hour rate, ascending (feeds the knee).
        self.sorted_rates = np.empty(0, dtype=np.float64)
        #: hour -> that hour's per-entity rates, NaN where invalid, in
        #: hour order: onset walk-back, retention eviction and the
        #: end-of-run batch-equivalence flags read it.
        self.by_hour: Dict[int, np.ndarray] = {}
        #: entity index -> mutable open-episode state.
        self.open: Dict[int, Dict[str, Any]] = {}
        #: Closed-or-open episode log, in open order.
        self.episodes: List[Dict[str, Any]] = []

    def name_of(self, index: int) -> str:
        if self.names is not None and 0 <= index < len(self.names):
            return self.names[index]
        return f"{self.side}:{index}"

    def add_hour(self, hour: int, rates: np.ndarray) -> None:
        """Record one hour's rates and merge its valid ones into the
        sorted sample."""
        self.by_hour[hour] = rates
        new = np.sort(rates[~np.isnan(rates)])
        self.sorted_rates = np.insert(
            self.sorted_rates, np.searchsorted(self.sorted_rates, new), new
        )

    def evict_before(self, floor: int) -> None:
        """Drop every hour older than ``floor`` and its rates."""
        while self.by_hour:
            oldest = next(iter(self.by_hour))
            if oldest >= floor:
                break
            rates = self.by_hour.pop(oldest)
            old = np.sort(rates[~np.isnan(rates)])
            # The k-th copy of a repeated rate sits k places after the
            # first copy in the sorted sample.
            rank = np.arange(old.size) - np.searchsorted(old, old)
            self.sorted_rates = np.delete(
                self.sorted_rates,
                np.searchsorted(self.sorted_rates, old) + rank,
            )

    def threshold(self) -> float:
        """The current episode threshold: the online knee, else f = 5%."""
        knee = knee_mod.knee_of_sorted(self.sorted_rates)
        return knee if knee is not None else knee_mod.FALLBACK_THRESHOLD

    def knee(self) -> Optional[float]:
        """The raw online knee (``None`` while degenerate)."""
        return knee_mod.knee_of_sorted(self.sorted_rates)


class OnlineDetector:
    """Fold committed hour blocks into episodes, blame, and alerts."""

    def __init__(
        self,
        rules: Optional[Sequence[AlertRule]] = None,
        observers: Optional[Sequence[Any]] = None,
        retention_hours: Optional[int] = None,
    ) -> None:
        self.rules: Tuple[AlertRule, ...] = tuple(
            DEFAULT_RULES if rules is None else rules
        )
        #: Downstream hour-stream consumers (``on_run_start(event)`` /
        #: ``on_hour(hour, ct, cf, st, sf)``, each count an int64
        #: column view of the block's entity-hour sums), e.g. the horizon
        #: HistoryStore and SLOEngine.  Notified strictly in hour order
        #: behind the same cursor, so their documents inherit the
        #: detector's worker-count invariance for free.
        self.observers: List[Any] = list(observers or [])
        if retention_hours is not None and retention_hours < 1:
            raise ValueError(
                f"retention_hours must be >= 1, got {retention_hours}"
            )
        #: With retention on, per-entity-hour rates older than this many
        #: folded hours are evicted -- the knee then estimates over the
        #: retained window (a deliberate rolling-window estimator; see
        #: the serve daemon's retention docs), onset walk-back and
        #: ``final_flags`` are window-limited, and detector state stays
        #: O(window) so the retention checkpoint stays small.
        self.retention_hours = retention_hours
        self._lock = threading.Lock()
        self._sides = {side: _SideState(side) for side in _SIDES}
        self._next_hour = 0
        self._last_folded: Optional[int] = None
        self.hours_total: Optional[int] = None
        self.hours_folded = 0
        #: Running blame buckets at the fixed f = 5%.
        self.blame = {"server": 0, "client": 0, "both": 0, "other": 0}
        #: Latched rules (blame-verdict / burn fire at most once).
        self._latched: Set[str] = set()
        #: Per-burn-rule consecutive-hours streaks.
        self._burn_streak: Dict[str, int] = {
            r.name: 0 for r in self.rules if r.kind == FAILURE_RATE_BURN
        }
        #: Trailing (hour, transactions, failures) window for slo-burn
        #: rules; bounded by the widest slo-burn window in play.
        slo_windows = [r.hours for r in self.rules if r.kind == SLO_BURN]
        self._slo_window: Deque[Tuple[int, int, int]] = deque(
            maxlen=max(slo_windows) if slo_windows else 1
        )
        self.alerts: List[Dict[str, Any]] = []
        #: rule name -> alerts it fired, kept beside ``alerts`` so a
        #: scrape does not recount the whole stream.
        self._alerts_by_rule: Counter = Counter()
        #: Detection latencies (open hour minus onset hour), per episode.
        self.latencies: List[int] = []
        self.events_seen = 0

    # -- the feed ---------------------------------------------------------------

    def update(self, event: Dict[str, Any]) -> None:
        """Take the roster from a ``run_start`` event; ignore the rest."""
        with self._lock:
            self.events_seen += 1
            if event.get("type") != "run_start":
                return
            self.hours_total = int(event.get("hours") or 0) or None
            clients = event.get("clients")
            servers = event.get("servers")
            if isinstance(clients, list):
                self._sides["client"].names = [str(n) for n in clients]
            if isinstance(servers, list):
                self._sides["server"].names = [str(n) for n in servers]
            for observer in self.observers:
                observer.on_run_start(event)

    @obs.span("obs.online.detector.fold_block")
    def fold_block(
        self, arrays: Mapping[str, np.ndarray], hour_start: int
    ) -> None:
        """Fold every hour of a ``(client, site, hour)`` block, in order.

        ``hour_start`` is the block's first sim-hour and must be the
        next unfolded hour: the detector never skips or repeats an hour.
        The block is reduced once, for all its hours; the lock is then
        taken per hour, so read surfaces stay responsive while a long
        block folds.
        """
        sums = entity_hour_sums(arrays)
        rates = {
            "client": _hour_major_rates(sums["ct"], sums["cf"]),
            "server": _hour_major_rates(sums["st"], sums["sf"]),
        }
        blame = _blame_buckets(arrays, sums["ctcp"], rates)
        transactions = sums["ct"].sum(axis=0).tolist()
        failures = sums["cf"].sum(axis=0).tolist()
        for t in range(len(transactions)):
            hour = hour_start + t
            with self._lock:
                if hour != self._next_hour:
                    raise ValueError(
                        f"cannot fold hour {hour}: the next "
                        f"unfolded hour is {self._next_hour}"
                    )
                self._fold_hour(
                    hour,
                    {side: rates[side][t] for side in _SIDES},
                    {bucket: counts[t] for bucket, counts in blame.items()},
                    transactions[t], failures[t],
                )
                for observer in self.observers:
                    observer.on_hour(hour, *(
                        sums[key][:, t] for key in ("ct", "cf", "st", "sf")
                    ))
                self._trim_retention(hour)

    # -- the per-hour pipeline --------------------------------------------------

    def _fold_hour(
        self,
        hour: int,
        rates: Dict[str, np.ndarray],
        blame: Dict[str, int],
        transactions: int,
        failures: int,
    ) -> None:
        self._last_folded = hour
        self._next_hour = hour + 1
        self.hours_folded += 1

        opened: List[Tuple[str, int, Dict[str, Any]]] = []
        for side in _SIDES:
            state = self._sides[side]
            hour_rates = rates[side]
            state.add_hour(hour, hour_rates)
            threshold = state.threshold()
            valid = ~np.isnan(hour_rates)
            visit = set(np.flatnonzero(hour_rates >= threshold).tolist())
            visit.update(i for i in state.open if valid[i])
            for i in sorted(visit):
                rate = float(hour_rates[i])
                flagged = rate >= threshold
                info = state.open.get(i)
                if info is not None:
                    if flagged:
                        info["below"] = 0
                        info["peak"] = max(info["peak"], rate)
                        info["last_hour"] = hour
                    else:
                        info["below"] += 1
                        if info["below"] >= CLOSE_AFTER_HOURS:
                            info["close_hour"] = hour
                            del state.open[i]
                else:
                    onset = self._walk_back_onset(
                        state, i, hour, threshold
                    )
                    info = {
                        "entity_index": i,
                        "onset_hour": onset,
                        "open_hour": hour,
                        "peak": rate,
                        "last_hour": hour,
                        "below": 0,
                        "close_hour": None,
                    }
                    state.open[i] = info
                    state.episodes.append(info)
                    self.latencies.append(hour - onset)
                    opened.append((side, i, {
                        "rate": rate, "threshold": threshold, "info": info,
                    }))

        for bucket, count in blame.items():
            self.blame[bucket] += count
        self._evaluate_rules(hour, opened, transactions, failures)

    def _trim_retention(self, hour: int) -> None:
        """Evict per-entity-hour rates older than the retention window.

        A pure function of the folded hour number and
        ``retention_hours`` -- never of chunk or pruning boundaries --
        so trimming is invariant to ``--chunk-hours``, worker count,
        and kill/resume points.
        """
        if self.retention_hours is None:
            return
        for state in self._sides.values():
            state.evict_before(hour - self.retention_hours + 1)

    @staticmethod
    def _walk_back_onset(
        state: _SideState, i: int, hour: int, threshold: float
    ) -> int:
        """Earliest hour of the contiguous flagged run ending at ``hour``.

        Walks back over retained hours where the entity was valid and
        its rate clears the *current* ``threshold`` (the side's knee
        after this hour's rates were inserted) -- earlier hours that
        only now look episodic (the threshold moved) are what make
        detection latency nonzero.
        """
        onset = hour
        while True:
            rates = state.by_hour.get(onset - 1)
            # An invalid hour's NaN rate never clears the threshold.
            if rates is None or i >= rates.size or not rates[i] >= threshold:
                return onset
            onset -= 1

    def _evaluate_rules(
        self,
        hour: int,
        opened: List[Tuple[str, int, Dict[str, Any]]],
        transactions: int,
        failures: int,
    ) -> None:
        overall = (failures / transactions) if transactions > 0 else 0.0
        blame_total = sum(self.blame.values())
        self._slo_window.append((hour, transactions, failures))
        for rule in self.rules:
            if rule.kind == EPISODE_OPENED:
                for side, i, data in opened:
                    if rule.side is not None and rule.side != side:
                        continue
                    if data["rate"] < rule.min_peak_rate:
                        continue
                    info = data["info"]
                    self._fire(
                        rule, hour, side=side,
                        entity=self._sides[side].name_of(i),
                        detail={
                            "entity_index": i,
                            "onset_hour": info["onset_hour"],
                            "open_hour": hour,
                            "latency_hours": hour - info["onset_hour"],
                            "rate": data["rate"],
                            "threshold": data["threshold"],
                        },
                    )
            elif rule.kind == BLAME_VERDICT:
                if rule.name in self._latched or blame_total < rule.min_total:
                    continue
                count = self.blame[rule.side]
                fraction = count / blame_total
                if fraction >= rule.min_fraction:
                    self._latched.add(rule.name)
                    self._fire(
                        rule, hour, side=rule.side, entity=None,
                        detail={
                            "fraction": fraction,
                            "count": count,
                            "total": blame_total,
                            "counts": dict(
                                sorted(self.blame.items())
                            ),
                        },
                    )
            elif rule.kind == FAILURE_RATE_BURN:
                if overall >= rule.rate:
                    self._burn_streak[rule.name] += 1
                else:
                    self._burn_streak[rule.name] = 0
                if (
                    rule.name not in self._latched
                    and self._burn_streak[rule.name] >= rule.hours
                ):
                    self._latched.add(rule.name)
                    self._fire(
                        rule, hour, side=None, entity=None,
                        detail={
                            "rate": overall,
                            "streak_hours": self._burn_streak[rule.name],
                            "rate_floor": rule.rate,
                        },
                    )
            elif rule.kind == SLO_BURN:
                if rule.name in self._latched:
                    continue
                window_t = window_f = 0
                for entry_hour, entry_t, entry_f in self._slo_window:
                    if entry_hour > hour - rule.hours:
                        window_t += entry_t
                        window_f += entry_f
                if window_t <= 0:
                    continue
                budget = 1.0 - rule.objective
                burn = (window_f / window_t) / budget
                if burn >= rule.burn:
                    self._latched.add(rule.name)
                    self._fire(
                        rule, hour, side=None, entity=None,
                        detail={
                            "burn_rate": burn,
                            "burn_floor": rule.burn,
                            "window_hours": rule.hours,
                            "window_failure_rate": window_f / window_t,
                            "objective": rule.objective,
                        },
                    )

    def _fire(
        self,
        rule: AlertRule,
        hour: int,
        side: Optional[str],
        entity: Optional[str],
        detail: Dict[str, Any],
    ) -> None:
        # No wall-clock fields: the stream must digest identically
        # across runs and worker counts.
        self.alerts.append({
            "type": "alert",
            "seq": len(self.alerts),
            "hour": hour,
            "rule": rule.name,
            "kind": rule.kind,
            "severity": rule.severity,
            "side": side,
            "entity": entity,
            "detail": detail,
        })
        self._alerts_by_rule[rule.name] += 1

    @property
    def last_folded_hour(self) -> Optional[int]:
        """The newest hour folded so far (None before any)."""
        with self._lock:
            return self._last_folded

    # -- read surfaces ----------------------------------------------------------

    def snapshot(self, recent_alerts: int = 20) -> Dict[str, Any]:
        """Render-ready view for ``/alerts`` and the dashboard pane."""
        with self._lock:
            open_episodes = []
            for side in _SIDES:
                state = self._sides[side]
                for i in sorted(state.open):
                    info = state.open[i]
                    open_episodes.append({
                        "side": side,
                        "entity": state.name_of(i),
                        "onset_hour": info["onset_hour"],
                        "open_hour": info["open_hour"],
                        "peak_rate": info["peak"],
                    })
            return {
                "schema": ALERTS_SCHEMA,
                "rules": [r.name for r in self.rules],
                "hours_total": self.hours_total,
                "hours_folded": self.hours_folded,
                "thresholds": {
                    side: self._sides[side].knee() for side in _SIDES
                },
                "open_episodes": open_episodes,
                "episodes_opened": {
                    side: len(self._sides[side].episodes) for side in _SIDES
                },
                "blame": dict(sorted(self.blame.items())),
                "alert_count": len(self.alerts),
                "alerts_by_rule": dict(sorted(self._alerts_by_rule.items())),
                "alerts": list(self.alerts[-recent_alerts:]),
                "detection_latency_hours": _latency_stats(self.latencies),
            }

    def episodes_document(self) -> Dict[str, Any]:
        """The full episode log for the ``/episodes`` endpoint.

        Every episode ever opened (closed ones keep their close hour),
        per side, in open order -- the live counterpart of the batch
        episode matrix, with names resolved and detection latency
        attached per episode.
        """
        with self._lock:
            episodes = []
            for side in _SIDES:
                state = self._sides[side]
                for info in state.episodes:
                    episodes.append({
                        "side": side,
                        "entity": state.name_of(info["entity_index"]),
                        "entity_index": info["entity_index"],
                        "onset_hour": info["onset_hour"],
                        "open_hour": info["open_hour"],
                        "latency_hours": (
                            info["open_hour"] - info["onset_hour"]
                        ),
                        "last_hour": info["last_hour"],
                        "close_hour": info["close_hour"],
                        "open": info["close_hour"] is None,
                        "peak_rate": info["peak"],
                    })
            episodes.sort(key=lambda e: (e["open_hour"], e["side"], e["entity_index"]))
            return {
                "schema": ALERTS_SCHEMA,
                "hours_folded": self.hours_folded,
                "last_folded_hour": self._last_folded,
                "thresholds": {
                    side: self._sides[side].knee() for side in _SIDES
                },
                "episode_count": len(episodes),
                "open_count": sum(1 for e in episodes if e["open"]),
                "episodes": episodes,
            }

    def blame_document(self) -> Dict[str, Any]:
        """Running blame attribution + verdict for the ``/blame`` endpoint.

        The verdict is the dominant bucket of the TCP failures
        attributed so far under the paper's fixed f = 5% -- queryable
        sim-hours after fault onset, not at month-end.  ``None`` until
        any TCP failure has been attributed.
        """
        with self._lock:
            total = sum(self.blame.values())
            counts = dict(sorted(self.blame.items()))
            fractions = {
                side: (count / total if total else 0.0)
                for side, count in counts.items()
            }
            verdict = None
            if total > 0:
                verdict = max(counts, key=lambda side: (counts[side], side))
            return {
                "schema": ALERTS_SCHEMA,
                "hours_folded": self.hours_folded,
                "last_folded_hour": self._last_folded,
                "threshold": BLAME_THRESHOLD,
                "total": total,
                "counts": counts,
                "fractions": fractions,
                "verdict": verdict,
            }

    def to_registry(self) -> MetricsRegistry:
        """Alerting state as gauges (merged into ``/metrics``)."""
        snap = self.snapshot()
        registry = MetricsRegistry()
        registry.gauge("alert_count").set(snap["alert_count"])
        for rule, count in snap["alerts_by_rule"].items():
            registry.gauge("alerts_fired", rule=rule).set(count)
        for side in _SIDES:
            registry.gauge(
                "alert_open_episodes", side=side
            ).set(
                sum(
                    1 for e in snap["open_episodes"] if e["side"] == side
                )
            )
            threshold = snap["thresholds"][side]
            if threshold is not None:
                # Absent while degenerate: a scraper must not mistake
                # "no knee yet" for a 0% threshold.
                registry.gauge(
                    "alert_episode_threshold", side=side
                ).set(threshold)
        latency = snap["detection_latency_hours"]
        if latency["count"]:
            registry.gauge("detection_latency_hours").set(latency["mean"])
            registry.gauge("detection_latency_hours_max").set(latency["max"])
        return registry

    # -- end-of-run surfaces ----------------------------------------------------

    def final_threshold(self, side: str) -> float:
        """The end-of-run threshold for ``side`` (knee, else f = 5%)."""
        with self._lock:
            return self._sides[side].threshold()

    def final_flags(
        self, side: str, threshold: Optional[float] = None
    ) -> Set[Tuple[int, int]]:
        """The batch-equivalent episode set: (entity, hour) cells.

        Under the final threshold this is exactly
        ``episode_matrix(rate_matrix, detect_knee(rate_matrix))`` from
        the batch pipeline -- same valid cells, same rates, same shared
        knee code.
        """
        with self._lock:
            state = self._sides[side]
            if threshold is None:
                threshold = state.threshold()
            return {
                (i, hour)
                for hour, rates in state.by_hour.items()
                for i in np.flatnonzero(rates >= threshold).tolist()
            }

    def export(self) -> Dict[str, Any]:
        """The persistable alert stream: jsonl-ready lines plus summary.

        The run store serializes each line with canonical JSON and
        digests the file bytes; everything here is already
        wall-clock-free and worker-count-invariant.
        """
        with self._lock:
            summary = {
                "count": len(self.alerts),
                "by_rule": dict(sorted(self._alerts_by_rule.items())),
                "hours_folded": self.hours_folded,
                "detection_latency_hours": _latency_stats(self.latencies),
            }
            lines: List[Dict[str, Any]] = [{
                "type": "header",
                "schema": ALERTS_SCHEMA,
                "rules": [r.to_dict() for r in self.rules],
            }]
            lines.extend(self.alerts)
            lines.append({"type": "summary", **summary})
            return {"lines": lines, "summary": summary}

    # -- checkpoint state --------------------------------------------------------

    def export_state(
        self, logged: Optional[Dict[str, int]] = None
    ) -> Dict[str, Any]:
        """The full fold state (the retention checkpoint).

        Without ``logged`` the state is JSON-native: rates are recorded
        per entity as ``hour_rates`` (valid hours only).  With it, the
        retained rates are their in-memory form, one (hour, entity)
        float64 array ``rates`` with NaN where invalid, beside its
        ``hours``; the checkpoint store writes it as an array leaf.
        The per-hour rate vectors and ``sorted_rates`` are rebuilt from
        either on restore.  Restoring this state and folding hours N..
        is bit-identical to having folded 0..N.. in one process -- the
        property the retention-resume tests hold.

        With ``logged`` -- the record count per log stream
        (``alerts``, ``episodes``) already in the checkpoint log -- the
        state also keeps only open episodes and the alert count; alerts
        and closed episodes not yet logged go to ``state["log"]`` in
        the :meth:`ChunkStore.write_checkpoint
        <repro.obs.runstore.chunks.ChunkStore.write_checkpoint>` form.
        Closed episodes are logged in close order, which a later close
        can only extend; the latencies are rebuilt from the episodes.
        """
        with self._lock:
            sides: Dict[str, Any] = {}
            for side, state in self._sides.items():
                sides[side] = {"names": state.names}
                if logged is not None:
                    rows = list(state.by_hour.values())
                    sides[side].update(
                        hours=list(state.by_hour),
                        rates=np.stack(rows) if rows else np.empty(
                            (0, len(state.names or ()))
                        ),
                    )
                    continue
                hour_rates: Dict[str, Dict[str, float]] = {}
                for hour, rates in state.by_hour.items():
                    values = rates.tolist()
                    for i in np.flatnonzero(~np.isnan(rates)).tolist():
                        hour_rates.setdefault(str(i), {})[str(hour)] = (
                            values[i]
                        )
                sides[side]["hour_rates"] = hour_rates
            exported = {
                "schema": DETECTOR_STATE_SCHEMA,
                "next_hour": self._next_hour,
                "last_folded": self._last_folded,
                "hours_total": self.hours_total,
                "hours_folded": self.hours_folded,
                "blame": dict(sorted(self.blame.items())),
                "latched": sorted(self._latched),
                "burn_streak": dict(sorted(self._burn_streak.items())),
                "slo_window": [list(e) for e in self._slo_window],
                "events_seen": self.events_seen,
                "sides": sides,
            }
            if logged is None:
                for side, state in self._sides.items():
                    episode_index = {
                        id(info): n for n, info in enumerate(state.episodes)
                    }
                    sides[side]["episodes"] = [
                        dict(info) for info in state.episodes
                    ]
                    sides[side]["open"] = {
                        str(i): episode_index[id(info)]
                        for i, info in state.open.items()
                    }
                exported["alerts"] = [dict(a) for a in self.alerts]
                exported["latencies"] = list(self.latencies)
                return exported
            closed = sorted(
                (
                    (side, info)
                    for side, state in self._sides.items()
                    for info in state.episodes
                    if info["close_hour"] is not None
                ),
                key=lambda pair: (
                    pair[1]["close_hour"], _SIDES.index(pair[0]),
                    pair[1]["entity_index"],
                ),
            )
            for side, state in self._sides.items():
                sides[side]["open_episodes"] = [
                    dict(info) for info in state.open.values()
                ]
            exported["alert_count"] = len(self.alerts)
            exported["closed_episodes"] = len(closed)
            alerts_start = int(logged.get("alerts", 0))
            closed_start = int(logged.get("episodes", 0))
            exported["log"] = {
                "alerts": {
                    "start": alerts_start,
                    "records": [dict(a) for a in self.alerts[alerts_start:]],
                },
                "episodes": {
                    "start": closed_start,
                    "records": [
                        {"side": side, **info}
                        for side, info in closed[closed_start:]
                    ],
                },
            }
            return exported

    def restore_state(
        self,
        state: Dict[str, Any],
        log: Optional[Dict[str, Tuple[int, List[Any]]]] = None,
    ) -> None:
        """Restore an :meth:`export_state` snapshot (exact round-trip).

        A snapshot taken with ``logged`` needs ``log``, the records
        :meth:`ChunkStore.read_log
        <repro.obs.runstore.chunks.ChunkStore.read_log>` returns for
        the counts it covers: its alerts and closed episodes.

        The active rule set is not part of the state -- the caller
        constructs the detector with the same rules the original run
        used (the serve daemon's resume path does); unknown streak
        names are dropped and missing ones start at zero.
        """
        sides = state["sides"]
        if "alert_count" in state:
            log = log or {}
            alerts = _logged_records(log, "alerts", state["alert_count"])
            closed = _logged_records(
                log, "episodes", state["closed_episodes"]
            )
            # One episode per (open hour, entity) and side, appended in
            # that order: sorting restores the open order.
            episodes = {
                side: sorted(
                    [
                        {k: v for k, v in e.items() if k != "side"}
                        for e in closed if e["side"] == side
                    ] + stored["open_episodes"],
                    key=lambda e: (e["open_hour"], e["entity_index"]),
                )
                for side, stored in sides.items()
            }
            # A latency is appended per opened episode: by hour, clients
            # before servers, then by entity.
            opened = sorted(
                (
                    (rank, info)
                    for rank, side in enumerate(_SIDES)
                    for info in episodes.get(side, ())
                ),
                key=lambda pair: (
                    pair[1]["open_hour"], pair[0], pair[1]["entity_index"],
                ),
            )
            latencies = [
                info["open_hour"] - info["onset_hour"] for _, info in opened
            ]
        else:
            alerts = state["alerts"]
            episodes = {
                side: stored["episodes"] for side, stored in sides.items()
            }
            latencies = [int(v) for v in state["latencies"]]
        with self._lock:
            self._next_hour = int(state["next_hour"])
            self._last_folded = (
                int(state["last_folded"])
                if state["last_folded"] is not None else None
            )
            self.hours_total = (
                int(state["hours_total"])
                if state["hours_total"] is not None else None
            )
            self.hours_folded = int(state["hours_folded"])
            self.blame = {
                key: int(value) for key, value in state["blame"].items()
            }
            self._latched = set(state["latched"])
            for name in self._burn_streak:
                self._burn_streak[name] = int(
                    state["burn_streak"].get(name, 0)
                )
            self._slo_window.clear()
            for entry in state.get("slo_window") or []:
                self._slo_window.append(
                    (int(entry[0]), int(entry[1]), int(entry[2]))
                )
            self.alerts = [dict(a) for a in alerts]
            self._alerts_by_rule = Counter(a["rule"] for a in self.alerts)
            self.events_seen = int(state["events_seen"])
            for side, stored in sides.items():
                sstate = self._sides[side]
                names = stored.get("names")
                if names is not None:
                    sstate.names = [str(n) for n in names]
                if "rates" in stored:
                    rates = np.array(stored["rates"], dtype=np.float64)
                    sstate.by_hour = dict(zip(
                        (int(h) for h in stored["hours"]), rates
                    ))
                else:
                    sstate.by_hour = _by_hour(
                        stored["hour_rates"], len(sstate.names or ())
                    )
                    rates = np.array(list(sstate.by_hour.values()))
                sstate.sorted_rates = np.sort(rates[~np.isnan(rates)])
                sstate.episodes = [dict(info) for info in episodes[side]]
                sstate.open = {
                    info["entity_index"]: info for info in sstate.episodes
                    if info["close_hour"] is None
                }
            self.latencies = latencies


def _logged_records(
    log: Dict[str, Tuple[int, List[Any]]], stream: str, count: int
) -> List[Dict[str, Any]]:
    """All ``count`` records of a never-pruned log stream."""
    count = int(count)
    first, records = log.get(stream, (0, []))
    if first != 0 or len(records) != count:
        raise ValueError(
            f"checkpoint log {stream} holds records [{first}, "
            f"{first + len(records)}) but the detector state covers "
            f"[0, {count})"
        )
    return records


def _by_hour(
    hour_rates: Dict[str, Dict[str, float]], size: int
) -> Dict[int, np.ndarray]:
    """hour -> per-entity rates (NaN where invalid), in hour order,
    from the JSON form's per-entity ``{hour: rate}`` maps."""
    cells = [
        (int(h), int(i), float(r))
        for i, rates in hour_rates.items()
        for h, r in rates.items()
    ]
    size = max([size] + [i + 1 for _, i, _ in cells])
    by_hour: Dict[int, np.ndarray] = {}
    for h, i, r in cells:
        if h not in by_hour:
            by_hour[h] = np.full(size, np.nan)
        by_hour[h][i] = r
    return {h: by_hour[h] for h in sorted(by_hour)}


def _hour_major_rates(trans: np.ndarray, fails: np.ndarray) -> np.ndarray:
    """(hour, entity) failure rates from (entity, hour) sums, NaN where
    an entity-hour has too few transactions to be valid."""
    rates = np.full(trans.shape, np.nan)
    np.divide(fails, trans, out=rates, where=trans >= MIN_SAMPLES_PER_HOUR)
    return np.ascontiguousarray(rates.T)


def _blame_buckets(
    arrays: Mapping[str, np.ndarray],
    tcp_by_client: np.ndarray,
    rates: Dict[str, np.ndarray],
) -> Dict[str, List[int]]:
    """Per-hour TCP-failure blame buckets of a block at f = 5%.

    A client-hour's failures towards servers in an episode that hour
    are summed field by field; the client's own flag then picks the
    bucket, as :func:`repro.core.blame.run_blame_analysis` does, so no
    (client, site, hour) product is ever formed.
    """
    client_flags = rates["client"].T >= BLAME_THRESHOLD
    server_flags = rates["server"].T >= BLAME_THRESHOLD
    in_server = sum(
        np.einsum("csh,sh->ch", arrays[name], server_flags, dtype=np.int64)
        for name in MeasurementDataset.TCP_FAILURE_FIELDS
    )
    elsewhere = tcp_by_client - in_server
    return {
        "server": np.where(client_flags, 0, in_server).sum(axis=0).tolist(),
        "client": np.where(client_flags, elsewhere, 0).sum(axis=0).tolist(),
        "both": np.where(client_flags, in_server, 0).sum(axis=0).tolist(),
        "other": np.where(client_flags, 0, elsewhere).sum(axis=0).tolist(),
    }


def _latency_stats(latencies: List[int]) -> Dict[str, Any]:
    """Mean/median/max of the onset-to-alert latencies seen so far."""
    if not latencies:
        return {"count": 0, "mean": None, "p50": None, "max": None}
    ordered = sorted(latencies)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": ordered[len(ordered) // 2],
        "max": ordered[-1],
    }
