"""The ``repro serve`` daemon: simulate, commit, detect, serve -- repeat.

:class:`ServeDaemon` drives the existing columnar/parallel engine in
sim-time chunks of ``chunk_hours`` toward a fixed horizon.  After each
chunk it:

1. **commits** the chunk's count arrays durably through
   :class:`~repro.obs.runstore.chunks.ChunkStore` (npz + hour-chained
   manifest under ``runs/<id>/chunks/``), *then*
2. **folds** the committed arrays into the streaming
   :class:`~repro.obs.online.detector.OnlineDetector`
   (:meth:`~repro.obs.online.detector.OnlineDetector.fold_block`) -- the same
   feed a batch ``simulate --detect`` run gives it once at the end
   (pure reads; the digest cannot be perturbed).

The daemon holds no dataset: the chunk store's hour chain *is* the
dataset digest of the committed hours.  Because every hour draws from
its own derived RNG stream, any committed prefix is bit-identical to
the same hours of a batch run -- so a daemon killed at an arbitrary
point and resumed (``--resume RUN``) replays the committed chunks into
a fresh detector and continues from the cursor, finishing with the
same final digest *and* the same alert stream as an uninterrupted run.

**Identity.** The run id is content-addressed over the *plan* (hours,
per_hour, seed, fault) rather than the result -- the daemon must be
discoverable and resumable before the result exists.  The manifest is
written at start and refreshed per chunk (progress under
``dataset.provenance.serve``), then finalized with the dataset digest
and the alert stream at shutdown.

The HTTP surface (:class:`~repro.obs.live.server.MetricsServer`) serves
``/healthz``, ``/status`` (sim-clock, chunk cursor, ETA, worker lanes),
``/metrics``, ``/alerts``, ``/episodes``, ``/blame`` and ``/runs``
throughout.  SIGTERM/SIGINT set the
:class:`~repro.obs.live.shutdown.ShutdownCoordinator` flag; the loop
notices at the next chunk boundary, commits what is in flight, and
shuts down gracefully.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.core.dataset import fingerprint_sha256
# Not called here: the benchmark's layer table (bench/leg.py) wraps the
# per-hour stats producer under this module's name.
from repro.core.dataset import hour_entity_stats_from_block  # noqa: F401
from repro.obs.horizon.history import HistoryStore
from repro.obs.horizon.slo import SLOEngine
from repro.obs.live.server import DEFAULT_HOST, MetricsServer
from repro.obs.live.shutdown import ShutdownCoordinator
from repro.obs.metrics import MetricsRegistry
from repro.obs.online.detector import OnlineDetector
from repro.obs.online.rules import DEFAULT_RULES, SLO_BURN_RULES
from repro.obs.runstore.chunks import ChunkStore
from repro.obs.runstore.manifest import RunManifest, compute_run_id
from repro.obs.runstore.store import (
    RunStore,
    _git_revision,
    resolve_runs_dir,
    runs_index,
)
from repro.world.defaults import DEFAULT_HOURS
from repro.world.parallel import plan_shards, run_block
from repro.world.simulator import MonthSimulator, default_simulator

#: Identity schema for serve run ids (the *plan*, not the result).
SERVE_SCHEMA = "repro.serve/1"

#: Default sim-hours simulated (and committed) per chunk.
DEFAULT_CHUNK_HOURS = 6

#: The daemon's default rule set: the batch defaults plus the
#: multi-window SLO burn rules (a long-running service pages on budget
#: burn, not only on per-entity episodes).
SERVE_RULES = DEFAULT_RULES + SLO_BURN_RULES


@dataclass(frozen=True)
class ServeConfig:
    """Everything that defines one serve run (and its identity).

    ``hours=0`` means an *indefinite* horizon: the daemon simulates a
    periodic world (epoch = the paper's 744-hour month; sim-hour ``h``
    draws epoch hour ``h % 744``'s RNG streams) until stopped, and is
    only legal with ``retain_hours`` set -- unbounded history with no
    retention would grow without limit, which is exactly the failure
    mode retention exists to prevent.

    ``retain_hours`` is an execution knob, not identity: it bounds
    which chunk *payloads* stay on disk and which detector/history
    window is kept, never which counts are simulated -- the committed
    chain, which is the dataset digest, is unaffected by it.
    """

    hours: int = 744
    per_hour: int = 4
    seed: int = 20050101
    fault: Optional[str] = None
    chunk_hours: int = DEFAULT_CHUNK_HOURS
    workers: int = 1
    port: int = 0
    host: str = DEFAULT_HOST
    throttle_seconds: float = 0.0
    runs_dir: Optional[str] = None
    retain_hours: Optional[int] = None

    def identity_config(self) -> Dict[str, Any]:
        """The fields that affect *results* (digest-relevant only).

        ``chunk_hours``, worker count, retention, and the serving knobs
        are pure execution detail -- any split of the same plan
        produces the same dataset, so they must not change the run id.
        """
        return {
            "hours": self.hours,
            "per_hour": self.per_hour,
            "seed": self.seed,
            "fault": self.fault,
        }

    def stored_config(self) -> Dict[str, Any]:
        """What the chunk manifest pins for resume compatibility."""
        return {**self.identity_config(), "chunk_hours": self.chunk_hours}


def serve_run_id(config: ServeConfig) -> str:
    """Content-address a serve plan into its run id."""
    return compute_run_id({
        "schema": SERVE_SCHEMA,
        "command": "serve",
        "config": config.identity_config(),
    })


def plan_entities(config: Dict[str, Any]) -> Dict[str, Any]:
    """Entity names/regions for a stored serve plan (topology only).

    Builds the world a chunk manifest's config describes without
    simulating anything -- what ``repro slo`` needs to seed an SLO
    ledger for a run that has no retention checkpoint.  Lives here (not
    in ``obs.horizon``) because only the serve layer may import
    ``repro.world``.
    """
    from repro.world.defaults import build_default_world

    hours = int(config["hours"])
    return build_default_world(hours=hours or DEFAULT_HOURS).roster()


def plan_simulator(config: Dict[str, Any]) -> MonthSimulator:
    """The simulator for a plan (``hours``, ``per_hour``, ``seed``,
    ``fault``): :func:`~repro.world.simulator.default_simulator`, so its
    hours digest identically to a batch run of the plan.  The daemon
    simulates chunks with it; ``repro detect`` re-simulates a recorded
    run's whole dataset (here for the same reason as
    :func:`plan_entities`).

    ``hours=0`` (an indefinite serve run) builds one 744-hour epoch.
    """
    transform = None
    if config.get("fault"):
        from repro.world.scenarios import parse_fault_spec

        transform = parse_fault_spec(config["fault"])
    return default_simulator(
        int(config["hours"]) or DEFAULT_HOURS, int(config["per_hour"]),
        int(config["seed"]), truth_transform=transform,
    )


class ServeError(RuntimeError):
    """The daemon cannot start (conflicting state, bad resume target)."""


class ServeDaemon:
    """One serve run: build world, loop chunks, serve the read API."""

    def __init__(
        self,
        config: ServeConfig,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.perf_counter,
        chunk_callback: Optional[Callable[..., None]] = None,
        argv: Optional[List[str]] = None,
    ) -> None:
        if config.hours < 0:
            raise ServeError(f"--hours must be >= 0, got {config.hours}")
        if config.retain_hours is not None and config.retain_hours < 1:
            raise ServeError(
                f"--retain-hours must be >= 1, got {config.retain_hours}"
            )
        if config.hours == 0 and config.retain_hours is None:
            raise ServeError(
                "an indefinite horizon (--hours 0) requires a retention "
                "policy; set --retain-hours N"
            )
        self.config = config
        #: Indefinite mode: no horizon, world cycles per 744h epoch.
        self.indefinite = config.hours == 0
        #: The world horizon actually built (and the RNG epoch length).
        self.epoch_hours = config.hours if config.hours else DEFAULT_HOURS
        self.retention = config.retain_hours
        self.run_id = serve_run_id(config)
        self.store = RunStore(resolve_runs_dir(config.runs_dir))
        self.chunks = ChunkStore(self.store.run_dir(self.run_id))
        self.history = HistoryStore()
        self.slo = SLOEngine()
        self.detector = OnlineDetector(
            rules=SERVE_RULES,
            observers=[self.history, self.slo],
            retention_hours=self.retention,
        )
        self.coordinator = ShutdownCoordinator()
        #: Called after every committed chunk with (daemon, entry) --
        #: the test hook that requests a stop at a chosen boundary.
        self.chunk_callback = chunk_callback
        self.argv = list(argv or [])
        self._clock = clock
        self._monotonic = monotonic
        self._state_lock = threading.Lock()
        self._state = "initialized"
        self._lanes: List[List[int]] = []
        self._sim_seconds = 0.0
        self._sim_hours_done = 0
        self.cursor = 0
        self.resumed_hours = 0
        self.chunks_committed = 0
        self._created_unix = clock()
        self._started_monotonic = monotonic()
        self._last_chunk_seconds = 0.0
        self._pruned_chunks = 0
        #: The sim-hour of the retention checkpoint a resume would
        #: restore: the last one written or restored, else hour 0.
        self._checkpoint_hour = 0
        #: The latest chunk's ``run_block`` demotion to in-process
        #: shards, stamped into the manifest like a batch dataset's.
        self._parallel_fallback: Optional[Dict[str, Any]] = None
        #: Resolved once: the run manifest is rewritten every chunk and
        #: ``git rev-parse`` is a process spawn.
        self._git_rev = _git_revision()

        self.world = None
        self.truth = None
        self.simulator: Optional[MonthSimulator] = None
        self.server = MetricsServer(
            config.port,
            host=config.host,
            detector=self.detector,
            status_provider=self.status_document,
            runs_provider=lambda: runs_index(self.store),
            history_provider=self.history.document,
            slo_provider=self.slo.document,
            gauges_provider=self._gauge_registries,
        )

    # -- construction -----------------------------------------------------------

    def _build_world(self) -> None:
        """Mirror ``simulate_default_month`` exactly (digest equality).

        The world is built over :attr:`epoch_hours` -- the configured
        horizon, or one 744-hour month when indefinite.  In indefinite
        mode the fault process and RNG streams repeat each epoch
        (a planted ``--fault`` recurs every 744 sim-hours), keeping
        world/truth memory constant over an unbounded run.
        """
        self.simulator = plan_simulator(self.config.identity_config())
        self.world = self.simulator.world
        self.truth = self.simulator.truth

    def prepare(self, resume: bool = False, fresh: bool = False) -> None:
        """Build the world and reconcile with any committed chunks.

        ``fresh`` discards previously committed chunks; ``resume``
        verifies and replays them into the detector (identical hour
        sequence => identical alert stream) and moves the cursor.
        Committed chunks present with neither flag is an error:
        silently overwriting durable work would be worse than asking.
        """
        self._build_world()
        if fresh and self.chunks.exists():
            shutil.rmtree(self.chunks.chunks_dir, ignore_errors=True)
            self.chunks = ChunkStore(self.store.run_dir(self.run_id))
        self.detector.update({
            "type": "run_start", "hours": self.config.hours,
            **self.world.roster(),
        })
        fingerprint = fingerprint_sha256(self.world)
        if self.chunks.exists():
            stored = self.chunks.config()
            if stored != self.config.stored_config():
                raise ServeError(
                    f"run {self.run_id} has committed chunks under a "
                    f"different configuration ({stored}); use --fresh to "
                    "discard them"
                )
            manifest = self.chunks.load()
            if manifest.get("fingerprint_sha256") != fingerprint:
                raise ServeError(
                    f"run {self.run_id}: world fingerprint changed since "
                    "chunks were committed (code drift?); use --fresh"
                )
            committed = self.chunks.committed_hours()
            if committed and not resume:
                raise ServeError(
                    f"run {self.run_id} already has {committed} committed "
                    f"hour(s); continue with --resume {self.run_id} or "
                    "discard with --fresh"
                )
            self._pruned_chunks = sum(
                1 for e in self.chunks.entries() if e.get("pruned")
            )
            if resume and self.retention is not None:
                checkpoint = self.chunks.load_checkpoint()
                if checkpoint is not None:
                    self._restore_checkpoint(checkpoint)
            for entry, arrays in self.chunks.replay(start_hour=self.cursor):
                self.detector.fold_block(arrays, int(entry["hour_start"]))
                self.cursor = int(entry["hour_stop"])
            self.resumed_hours = self.cursor
            if self.resumed_hours:
                obs.logger.info(
                    "resumed %d committed hour(s) of run %s",
                    self.resumed_hours, self.run_id,
                )
        else:
            self.chunks.initialize(
                self.config.stored_config(), fingerprint, run_id=self.run_id
            )
        if self.retention is not None:
            self.chunks.record_retention(self.retention)
        self._state = "prepared"

    def _restore_checkpoint(self, checkpoint: Dict[str, Any]) -> None:
        """Restore fold state from a chain-verified retention checkpoint.

        Sets the replay cursor to the checkpoint's chunk boundary:
        pruned chunks behind it are chain-verified from their stored
        hour digests only, retained chunks past it (committed after the
        checkpoint was last written) are replayed on top of the restored
        state -- together bit-identical to an uninterrupted run's fold.
        """
        self.detector.restore_state(checkpoint["detector"])
        self.history.restore_state(checkpoint["history"])
        self.slo.restore_state(checkpoint["slo"])
        self.cursor = self._checkpoint_hour = int(checkpoint["hour"])
        obs.logger.info(
            "restored retention checkpoint at sim-hour %d (chain %s)",
            self.cursor, str(checkpoint["chain"])[:16],
        )

    # -- the chunk loop ---------------------------------------------------------

    def request_stop(self) -> None:
        """Programmatic graceful stop (same path as SIGTERM)."""
        self.coordinator.request_stop()

    def run(
        self, announce: Optional[Callable[[int], None]] = None
    ) -> Dict[str, Any]:
        """Serve until the horizon or a stop request; returns a summary.

        ``announce(port)`` is called once the HTTP server is bound (the
        CLI prints the endpoints).  Returns ``{"run_id", "completed",
        "committed_hours", "hours", "digest", "chain"}`` -- ``chain``
        is the dataset digest of the committed hours; ``digest`` is the
        same value, set only when the horizon was reached (mid-run it
        describes a dataset no batch run of this plan produces).
        """
        if self._state != "prepared":
            raise ServeError("run() before prepare()")
        config = self.config
        signals_installed = self.coordinator.install()
        if not signals_installed:
            obs.logger.info(
                "not on the main thread; graceful shutdown via "
                "request_stop() only"
            )
        self.server.start()
        if announce is not None:
            announce(self.server.port)
        self._state = "running"
        self._write_manifest(final=False)
        try:
            while (
                (self.indefinite or self.cursor < config.hours)
                and not self.coordinator.stop_requested()
            ):
                h0 = self.cursor
                h1 = h0 + config.chunk_hours
                if not self.indefinite:
                    h1 = min(h1, config.hours)
                # Chunks never straddle an epoch boundary: sim-hour h
                # draws epoch hour h % epoch_hours's RNG stream, and
                # run_block shards within one world horizon.
                e0 = h0 % self.epoch_hours
                h1 = min(h1, h0 + (self.epoch_hours - e0))
                with self._state_lock:
                    self._lanes = [
                        [a, b] for a, b in (
                            (h0 + s0, h0 + s1)
                            for s0, s1 in plan_shards(
                                h1 - h0, max(1, config.workers)
                            )
                        )
                    ]
                chunk_started = self._monotonic()
                with obs.span("serve.chunk", hour_start=h0, hour_stop=h1):
                    arrays, fallback = run_block(
                        self.simulator, e0, e0 + (h1 - h0),
                        workers=config.workers,
                    )
                    if fallback is not None:
                        self._parallel_fallback = fallback
                    entry = self.chunks.commit(h0, h1, arrays)
                    self.detector.fold_block(arrays, h0)
                    # A pooled chunk's arrays are a shared mapping that
                    # lives as long as this reference: release it before
                    # the next chunk allocates its own.
                    del arrays
                    if self.retention is not None:
                        self._checkpoint_and_prune()
                with self._state_lock:
                    self.cursor = h1
                    self.chunks_committed += 1
                    chunk_seconds = self._monotonic() - chunk_started
                    self._last_chunk_seconds = chunk_seconds
                    self._sim_seconds += chunk_seconds
                    self._sim_hours_done += h1 - h0
                    self._lanes = []
                obs.logger.info(
                    "chunk [%d, %d) committed (chain %s)",
                    h0, h1, entry["chain"][:16],
                )
                self._write_manifest(final=False)
                if self.chunk_callback is not None:
                    self.chunk_callback(self, entry)
                if (
                    config.throttle_seconds > 0
                    and (self.indefinite or self.cursor < config.hours)
                ):
                    # An interruptible sleep: a stop request (signal or
                    # programmatic) wakes it immediately.
                    self.coordinator.wait(config.throttle_seconds)
        finally:
            completed = (
                not self.indefinite and self.cursor >= config.hours
            )
            with self._state_lock:
                self._state = "finished" if completed else "stopped"
            digest = self.chunks.chain_digest() if completed else None
            self._write_manifest(final=True, digest=digest)
            self.server.stop()
            if signals_installed:
                self.coordinator.restore()
        return {
            "run_id": self.run_id,
            "completed": completed,
            "committed_hours": self.cursor,
            "hours": config.hours,
            "digest": digest,
            "chain": self.chunks.chain_digest(),
        }

    def _checkpoint_and_prune(self) -> None:
        """Prune payloads below the retention floor, checkpointing first
        when the prune needs it.

        A resume restores the last checkpoint and replays every chunk
        past it, so the payloads from the checkpoint's hour on must stay
        on disk.  While the floor (``boundary - retain_hours``) has not
        passed that hour, pruning up to it removes nothing a resume or
        ``repro slo`` reads, and no checkpoint is written.  Once it has,
        the fold state is checkpointed at the new boundary first and
        pruned second, so no reachable state ever depends on a payload
        the prune is about to delete.

        Runs inside the commit span, *before* the public cursor moves:
        a kill at any point leaves a checkpoint whose later chunks are
        all on disk -- the floor trails the cursor by ``retain_hours``.
        """
        boundary = self.chunks.committed_hours()
        floor = max(0, boundary - self.retention)
        if floor > self._checkpoint_hour:
            self.chunks.write_checkpoint({
                "hour": boundary,
                "run_id": self.run_id,
                "retain_hours": self.retention,
                "detector": self.detector.export_state(),
                "history": self.history.export_state(),
                "slo": self.slo.export_state(),
            })
            self._checkpoint_hour = boundary
        pruned = self.chunks.prune_payloads(floor)
        if pruned:
            self._pruned_chunks += pruned
            obs.logger.info(
                "pruned %d chunk payload(s) below sim-hour %d "
                "(manifest chain intact)", pruned, floor,
            )

    # -- gauges for /metrics ----------------------------------------------------

    def _gauge_registries(self) -> List[MetricsRegistry]:
        """Fresh per-scrape registries for the serve and SLO gauges.

        Built on demand so every ``/metrics`` scrape reflects the
        current cursor without the daemon mutating long-lived
        instruments from the chunk loop.
        """
        with self._state_lock:
            cursor = self.cursor
            last_chunk = self._last_chunk_seconds
            pruned = self._pruned_chunks
        serve = MetricsRegistry()
        serve.gauge("serve_committed_hours").set(float(cursor))
        serve.gauge("serve_chain_length").set(
            float(len(self.chunks.entries()))
        )
        serve.gauge("serve_last_chunk_seconds").set(last_chunk)
        serve.gauge("serve_resumed").set(
            1.0 if self.resumed_hours else 0.0
        )
        serve.gauge("serve_retain_hours").set(
            float(self.retention) if self.retention is not None else 0.0
        )
        serve.gauge("serve_pruned_chunks").set(float(pruned))
        for res, count in self.history.cell_counts().items():
            serve.gauge("history_cells", res=res).set(float(count))
        return [serve, self.slo.to_registry()]

    # -- the run record ---------------------------------------------------------

    def _write_manifest(
        self, final: bool, digest: Optional[str] = None
    ) -> None:
        """Write/refresh the run manifest (alert stream only on final).

        The run id is the *plan* address computed up front, so
        ``seal()`` is deliberately not called -- interrupted and
        completed invocations of the same plan share one run directory,
        which is exactly what makes ``--resume RUN`` resolvable.
        """
        config = self.config
        provenance = {
            "engine": "fast",
            "master_seed": config.seed,
            "per_hour": config.per_hour,
            "workers": config.workers,
            "serve": {
                "chunk_hours": config.chunk_hours,
                "committed_hours": self.cursor,
                "resumed_hours": self.resumed_hours,
                "completed": (
                    final and not self.indefinite
                    and self.cursor >= config.hours
                ),
                "chain": self.chunks.chain_digest(),
                "indefinite": self.indefinite,
                "retain_hours": self.retention,
                "pruned_hours": self.chunks.pruned_hours(),
                # The same value as "chain", under the name the
                # benchmark (bench/workloads.py) reads.
                "rolling_digest": self.chunks.chain_digest(),
            },
        }
        if self._parallel_fallback is not None:
            provenance["parallel_fallback"] = self._parallel_fallback
        dataset_info: Dict[str, Any] = {
            "fingerprint_sha256": fingerprint_sha256(self.world),
            "provenance": provenance,
        }
        if digest is not None:
            dataset_info["digest"] = digest
        manifest = RunManifest(
            run_id=self.run_id,
            command="serve",
            argv=self.argv,
            config={
                **config.identity_config(),
                "workers": config.workers,
                "chunk_hours": config.chunk_hours,
            },
            engine="fast",
            git_rev=self._git_rev,
            created_unix=self._created_unix,
            timings={
                "wall_seconds": self._monotonic() - self._started_monotonic,
            },
            metrics=obs.registry().dump_state(),
            dataset=dataset_info,
        )
        try:
            self.store.write(
                manifest,
                alerts=self.detector.export() if final else None,
            )
        except OSError as exc:
            obs.logger.warning("run record not written: %s", exc)

    # -- the /status document ---------------------------------------------------

    def status_document(self) -> Dict[str, Any]:
        """The daemon's ``/status`` body: sim-clock, cursor, ETA, lanes."""
        with self._state_lock:
            state = self._state
            cursor = self.cursor
            chunks_committed = self.chunks_committed
            lanes = [list(lane) for lane in self._lanes]
            sim_seconds = self._sim_seconds
            sim_hours = self._sim_hours_done
        config = self.config
        rate = (sim_hours / sim_seconds) if sim_seconds > 0 else None
        if self.indefinite:
            eta = None
        else:
            remaining = max(0, config.hours - cursor)
            eta = (remaining / rate) if rate else None
        return {
            "run_id": self.run_id,
            "state": state,
            "engine": "fast",
            "hours_total": None if self.indefinite else config.hours,
            "epoch_hours": self.epoch_hours,
            "committed_hours": cursor,
            "sim_clock_hour": cursor,
            "resumed_hours": self.resumed_hours,
            "chunk_hours": config.chunk_hours,
            "chunks_committed": chunks_committed,
            "chain": self.chunks.chain_digest(),
            "workers": config.workers,
            "lanes": lanes,
            "sim_hours_per_second": rate,
            "eta_seconds": eta,
            "throttle_seconds": config.throttle_seconds,
            "stop_requested": self.coordinator.stop_requested(),
            "retention": {
                "retain_hours": self.retention,
                "pruned_chunks": self._pruned_chunks,
                "pruned_hours": self.chunks.pruned_hours(),
            } if self.retention is not None else None,
        }
