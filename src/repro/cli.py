"""Command-line interface: ``repro`` (alias ``webfail``).

Subcommands:

* ``repro simulate`` -- run the month simulation, print the headline
  statistics, and optionally save the dataset to an .npz file.
* ``repro report`` -- run the simulation (or load a saved dataset) and
  print every paper table/figure comparison.
* ``repro timeseries --client NAME`` -- print the Figure 5/7 panel data
  for one client as CSV.
* ``repro figures`` / ``repro diagnose`` -- figure CSV export and the
  permanent-pair triage.
* ``repro obs trace.jsonl`` -- replay a JSONL trace into the span-tree
  summary.
* ``repro lint [paths]`` -- run the AST-based determinism & safety
  linter (see :mod:`repro.lint`) over the source tree.
* ``repro runs list|show|diff|check`` -- the persistent run registry
  (see :mod:`repro.obs.runstore`): every simulate/report/diagnose run
  writes a content-addressed manifest + attribution evidence under
  ``runs/<run-id>/``; these verbs render, compare, and regression-gate
  them.  Disable recording with ``--no-run-record``; relocate the
  registry with ``--runs-dir`` or ``$REPRO_RUNS_DIR``.

Simulation flags (global, also accepted after any subcommand): ``--hours``,
``--per-hour``, ``--seed``, and ``--workers N`` (hour-sharded parallel
simulation; the dataset is bit-identical for any worker count, so the
flag is purely a speed knob).

Observability flags (global, also accepted after any subcommand):

* ``--metrics PATH`` -- after the run, write the metrics registry to PATH
  in Prometheus text format (``-`` prints the human summary table).
* ``--trace PATH`` -- stream spans and events (including every RNG stream
  seed) to PATH as JSONL; replay with ``repro obs PATH``.
* ``-v/--verbose`` -- log progress to stderr (repeat for DEBUG, which
  includes the event stream).
"""

from __future__ import annotations

import argparse
import importlib
import logging
import sys
from typing import List, Optional

from repro import obs


def _add_run_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Simulation + observability options, shared by every subcommand.

    The same options are registered on the main parser (with real
    defaults) and on each subparser (with ``SUPPRESS`` defaults so a
    value given before the subcommand is not clobbered) -- both
    ``repro --hours 24 simulate`` and ``repro simulate --hours 24`` work.
    """
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--hours", type=int,
        default=d if suppress else 744,
        help="experiment duration in hours (default: the paper's month)",
    )
    parser.add_argument(
        "--per-hour", type=int,
        default=d if suppress else 4,
        help="accesses per client per URL per hour (default 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=d if suppress else 20050101
    )
    parser.add_argument(
        "--workers", type=int, metavar="N",
        default=d if suppress else None,
        help="worker processes for the month simulation (default: auto "
        "from CPU count; output is bit-identical for any worker count)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        default=d if suppress else None,
        help="write run metrics to PATH (Prometheus text format; "
        "'-' prints the human summary table)",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        default=d if suppress else None,
        help="stream spans/events (incl. RNG seeds) to PATH as JSONL",
    )
    parser.add_argument(
        "--live", action="store_true",
        default=d if suppress else False,
        help="render a live progress dashboard on stderr while the "
        "simulation runs (ANSI on a capable TTY, plain lines otherwise); "
        "the dataset is bit-identical with or without it",
    )
    parser.add_argument(
        "--serve-metrics", type=int, metavar="PORT",
        default=d if suppress else None,
        help="serve a Prometheus /metrics endpoint on 127.0.0.1:PORT "
        "while the run is in flight (0 binds an ephemeral port, "
        "announced on stderr); with --detect the same server also "
        "serves /alerts",
    )
    parser.add_argument(
        "--detect", action="store_true",
        default=d if suppress else False,
        help="run the online failure-detection pipeline over the "
        "simulated hours, in hour order, once the simulation returns: "
        "episode/blame analysis with alerting; the alert stream is "
        "persisted as alerts.jsonl in the run directory and is "
        "bit-identical at any --workers count",
    )
    parser.add_argument(
        "--alert-rules", metavar="PATH",
        default=d if suppress else None,
        help="alert-rule file (TOML or JSON) for --detect; implies "
        "--detect (default: the built-in rules)",
    )
    parser.add_argument(
        "--fault", metavar="SPEC",
        default=d if suppress else None,
        help="plant a ground-truth fault before simulating, e.g. "
        "server:berkeley.edu:24-48:0.5 (site-wide outage over hours "
        "[24,48) at intensity 0.5) -- the controlled target for "
        "detection-latency experiments",
    )
    parser.add_argument(
        "-v", "--verbose", action="count",
        default=d if suppress else 0,
        help="log progress to stderr (-vv for debug + event stream)",
    )
    parser.add_argument(
        "--runs-dir", metavar="DIR",
        default=d if suppress else None,
        help="run-registry root (default: $REPRO_RUNS_DIR or ./runs)",
    )
    parser.add_argument(
        "--no-run-record", action="store_true",
        default=d if suppress else False,
        help="do not record this run in the run registry",
    )


class _CommandParser(argparse.ArgumentParser):
    """A subcommand parser; ``configure`` names the module whose
    ``configure_parser`` adds its options, on first parse or help.

    Every command builds the whole parser, so only the dispatched
    command (or the one whose help is printed) imports its CLI module.
    """

    def __init__(self, *args, configure: Optional[str] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._configure = configure

    def _configured(self) -> None:
        if self._configure is not None:
            module, self._configure = self._configure, None
            importlib.import_module(module).configure_parser(self)

    def parse_known_args(self, args=None, namespace=None):
        self._configured()
        return super().parse_known_args(args, namespace)

    def format_help(self) -> str:
        self._configured()
        return super().format_help()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Study of End-to-End Web Access Failures' "
            "(CoNEXT 2006)"
        ),
    )
    _add_run_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_run_options(common, suppress=True)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )

    simulate = sub.add_parser(
        "simulate", help="run the simulation", parents=[common]
    )
    simulate.add_argument("--save", help="save the dataset to this .npz path")

    report_cmd = sub.add_parser(
        "report", help="print all table/figure comparisons", parents=[common]
    )
    report_cmd.add_argument(
        "--only",
        help="comma-separated subset: table3,figure1,table4,figure2,"
        "figure3,figure4,table5,table6,table7,table8,table9,headline",
    )

    ts = sub.add_parser(
        "timeseries", help="Figure 5/7 panel data for a client",
        parents=[common],
    )
    ts.add_argument("--client", required=True)

    figures_cmd = sub.add_parser(
        "figures", help="export figure data series as CSV (and ASCII previews)",
        parents=[common],
    )
    figures_cmd.add_argument("--out", required=True, help="output directory")
    figures_cmd.add_argument(
        "--ascii", action="store_true", help="also print ASCII previews"
    )

    sub.add_parser(
        "diagnose",
        help="triage the permanent-failure pairs (the deferred 4.4.2 study)",
        parents=[common],
    )

    obs_cmd = sub.add_parser(
        "obs", help="replay a JSONL trace file into a span-tree summary"
    )
    obs_cmd.add_argument("trace_file", help="JSONL trace from a --trace run")
    obs_cmd.add_argument(
        "--tree-only", action="store_true",
        help="print just the reconstructed span tree",
    )
    obs_cmd.add_argument(
        "--follow", action="store_true",
        help="tail the trace as it is written (one line per record, "
        "like tail -f); Ctrl-C to stop",
    )

    sub.add_parser(
        "lint", configure="repro.lint.cli",
        help="run the determinism & safety linter over the source tree",
    )
    sub.add_parser(
        "runs", configure="repro.obs.runstore.cli",
        help="render, diff, and regression-gate the recorded run registry",
    )
    sub.add_parser(
        "detect", configure="repro.obs.online.cli",
        help="score a recorded run's online detection against the batch "
        "analysis (precision/recall, blame agreement, detection latency)",
    )
    sub.add_parser(
        "slo", configure="repro.obs.horizon.cli",
        help="availability / error-budget / burn-rate table for a "
        "recorded serve run (rebuilt from its durable chunk store)",
    )
    sub.add_parser(
        "serve", configure="repro.serve.cli",
        help="run the continuous simulation daemon: sim-time chunks with "
        "incremental dataset commits, online detection, and the live "
        "HTTP API (/healthz /status /metrics /alerts /episodes /blame "
        "/runs); SIGTERM stops it gracefully, --resume continues",
        parents=[common],
    )
    return parser


def _simulate(args):
    from repro.world.parallel import default_workers
    from repro.world.simulator import simulate_default_month

    workers = getattr(args, "workers", None)
    if workers is None:
        workers = default_workers(args.hours)
    elif workers < 1:
        raise SystemExit(f"repro: error: --workers must be >= 1, got {workers}")
    obs.logger.info(
        "simulate: hours=%d per_hour=%d seed=%d workers=%d",
        args.hours, args.per_hour, args.seed, workers,
    )
    truth_transform = None
    fault = getattr(args, "fault", None)
    if fault:
        from repro.world.scenarios import parse_fault_spec

        try:
            truth_transform = parse_fault_spec(fault)
        except ValueError as exc:
            raise SystemExit(f"repro: error: {exc}")
    try:
        result = simulate_default_month(
            hours=args.hours, per_hour=args.per_hour, seed=args.seed,
            workers=workers, truth_transform=truth_transform,
        )
    except ValueError as exc:
        if truth_transform is None:
            raise
        # The transform validates against the built world (site names,
        # the hour span) -- surface that as a usage error too.
        raise SystemExit(f"repro: error: bad --fault: {exc}")
    recorder = getattr(args, "_run_recorder", None)
    if recorder is not None:
        recorder.record_result(result)
    live_session = getattr(args, "_live_session", None)
    if live_session is not None:
        live_session.fold_dataset(result.dataset)
    return result


def _record_evidence(args, dataset, mask, blame=None) -> None:
    """Collect attribution evidence into the run recorder, if recording.

    ``blame`` is the command's f = 5% blame pass over ``mask``, if it
    ran one (the evidence reuses it).
    """
    recorder = getattr(args, "_run_recorder", None)
    if recorder is None:
        return
    from repro.obs.runstore.evidence import collect_evidence

    with obs.span("cli.evidence"):
        recorder.record_evidence(
            collect_evidence(dataset, mask, blame=blame)
        )


def cmd_simulate(args) -> int:
    from repro.core import permanent, report

    result = _simulate(args)
    perm = permanent.find_permanent_pairs(result.dataset)
    print(report.headline_summary(result.dataset, perm))
    # The determinism contract's observable: same seed => same digest,
    # independent of --workers (CI compares these lines across runs).
    # A recording run has already hashed the dataset; print that value.
    recorder = getattr(args, "_run_recorder", None)
    digest = (
        recorder.dataset_info["digest"] if recorder is not None
        else result.dataset.digest()
    )
    print(f"\ndataset digest: {digest}")
    if recorder is not None:
        _record_evidence(args, result.dataset, perm.mask)
    if args.save:
        result.dataset.save(args.save)
        print(f"dataset saved to {args.save}")
    return 0


def cmd_report(args) -> int:
    from repro.core import blame, permanent, report

    result = _simulate(args)
    dataset = result.dataset
    with obs.span("cli.report.analysis"):
        perm = permanent.find_permanent_pairs(dataset)
        analysis = blame.run_blame_analysis(dataset, 0.05, perm.mask)
    _record_evidence(args, dataset, perm.mask, analysis)

    builders = {
        "headline": lambda: report.headline_summary(dataset, perm),
        "table3": lambda: report.table3(dataset),
        "figure1": lambda: report.figure1(dataset),
        "table4": lambda: report.table4(dataset),
        "figure2": lambda: report.figure2(dataset),
        "figure3": lambda: report.figure3(dataset),
        "figure4": lambda: report.figure4(dataset, perm.mask),
        "table5": lambda: report.table5(dataset, perm.mask),
        "table6": lambda: report.table6(dataset, analysis),
        "table7": lambda: report.table7(dataset, analysis),
        "table8": lambda: report.table8(dataset, analysis),
        "table9": lambda: report.table9(dataset, analysis),
    }
    wanted: List[str] = (
        [w.strip() for w in args.only.split(",")] if args.only else list(builders)
    )
    for name in wanted:
        builder = builders.get(name)
        if builder is None:
            print(f"unknown report {name!r}", file=sys.stderr)
            return 2
        obs.logger.info("report: building %s", name)
        print(builder())
        print()
    return 0


def cmd_figures(args) -> int:
    import pathlib

    from repro.core import figures, permanent
    from repro.core.bgp_correlation import (
        EndpointIndex,
        client_timeseries,
        correlate_instability,
    )

    result = _simulate(args)
    dataset, truth = result.dataset, result.truth
    with obs.span("cli.figures.analysis"):
        perm = permanent.find_permanent_pairs(dataset)
        index = EndpointIndex.build(
            dataset, truth.prefix_of_client, truth.prefix_of_replica
        )
        by_neighbors, _ = correlate_instability(dataset, truth.bgp_archive, index)
        howard = client_timeseries(
            dataset, truth.bgp_archive, index, "nodea.howard.edu"
        )

    series_list = [
        figures.figure1_series(dataset),
        figures.figure2_series(dataset),
        figures.figure3_series(dataset),
        figures.figure4_series(dataset, perm.mask),
        figures.figure5_series(howard),
        figures.figure6_series(by_neighbors),
    ]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for series in series_list:
        filename = series.name.replace(":", "_").replace(".", "_") + ".csv"
        series.save_csv(str(out / filename))
        print(f"wrote {out / filename} ({len(series)} rows)")
        if args.ascii:
            print(figures.render_figure(series))
            print()
    return 0


def cmd_diagnose(args) -> int:
    from repro.core import diagnosis, permanent

    result = _simulate(args)
    dataset = result.dataset
    with obs.span("cli.diagnose.analysis"):
        perm = permanent.find_permanent_pairs(dataset)
        investigation = diagnosis.investigate_permanent_failures(dataset, perm)
    _record_evidence(args, dataset, perm.mask)
    print(investigation.summary())
    print()
    for d in investigation.pair_specific_cases():
        print(
            f"pair-specific: {d.pair.client_name} x {d.pair.site_name} "
            f"({d.mode.value})"
        )
    return 0


def cmd_timeseries(args) -> int:
    from repro.core.bgp_correlation import EndpointIndex, client_timeseries

    result = _simulate(args)
    dataset = result.dataset
    truth = result.truth
    index = EndpointIndex.build(
        dataset, truth.prefix_of_client, truth.prefix_of_replica
    )
    series = client_timeseries(dataset, truth.bgp_archive, index, args.client)
    print("hour,attempts,failures,longest_streak,withdrawals,withdrawing_neighbors")
    for h in range(len(series.hours)):
        print(
            f"{h},{series.attempts[h]},{series.failures[h]},"
            f"{series.longest_streak[h]},{series.withdrawals[h]},"
            f"{series.withdrawing_neighbors[h]}"
        )
    return 0


def cmd_obs(args) -> int:
    from repro.obs import replay

    if getattr(args, "follow", False):
        try:
            for record in replay.tail_records(args.trace_file):
                print(replay.format_record(record), flush=True)
        except OSError as exc:
            print(f"cannot read trace: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            pass
        return 0
    try:
        trace = replay.load_trace(args.trace_file)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    if args.tree_only:
        print(replay.render_tree(trace) or "(no spans)")
    else:
        print(replay.summarize(trace))
    return 0


def _configure_observability(args) -> None:
    """Fresh registry + tracer per run; wire up -v logging and --trace."""
    verbose = getattr(args, "verbose", 0) or 0
    if verbose:
        level = logging.DEBUG if verbose > 1 else logging.INFO
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
        obs.logger.handlers = [handler]
        obs.logger.setLevel(level)
    obs.set_registry(obs.MetricsRegistry())
    tracer = obs.Tracer()
    if getattr(args, "trace", None):
        # Streaming only: a month-long run's 744 hour-spans need not be
        # retained in memory as well.
        try:
            tracer.enable(args.trace, keep_in_memory=False)
        except OSError as exc:
            raise SystemExit(f"repro: error: cannot write trace: {exc}")
        obs.logger.info("tracing to %s", args.trace)
    obs.set_tracer(tracer)
    metrics_path = getattr(args, "metrics", None)
    if metrics_path and metrics_path != "-":
        # Fail fast: don't discover an unwritable path after the run.
        try:
            open(metrics_path, "w", encoding="utf-8").close()
        except OSError as exc:
            raise SystemExit(f"repro: error: cannot write metrics: {exc}")


def _configure_live(args):
    """Start a live-telemetry session when ``--live``/``--serve-metrics``
    ask for one; returns it (or None).

    The session spools the event stream to a temp file which
    :func:`_finalize_recorder` appends to the run directory's
    ``trace.jsonl`` once the content-addressed run id is known.
    """
    live = bool(getattr(args, "live", False))
    port = getattr(args, "serve_metrics", None)
    rules_path = getattr(args, "alert_rules", None)
    detect = bool(getattr(args, "detect", False)) or rules_path is not None
    if not live and port is None and not detect:
        return None
    from repro.obs.live.session import LiveSession

    try:
        session = LiveSession(
            dashboard=live, serve_port=port, detect=detect,
            rules_path=rules_path,
        )
    except Exception as exc:
        # A bad rule file is a usage error, not a crash.
        from repro.obs.online.rules import RuleError

        if isinstance(exc, (RuleError, OSError)):
            print(f"repro: error: {exc}", file=sys.stderr)
            raise SystemExit(2)
        raise
    session.start()
    if session.port is not None:
        # stderr, not the logger: the scrape address must be visible
        # (and parseable) even without -v.
        print(
            f"serving /metrics on http://127.0.0.1:{session.port}",
            file=sys.stderr,
        )
        if session.detector is not None:
            print(
                f"serving /alerts on http://127.0.0.1:{session.port}/alerts",
                file=sys.stderr,
            )
    return session


def _export_metrics(args) -> None:
    metrics_path = getattr(args, "metrics", None)
    if not metrics_path:
        return
    registry = obs.registry()
    if metrics_path == "-":
        print()
        print(obs.summary_table(registry))
    else:
        try:
            with open(metrics_path, "w", encoding="utf-8") as fh:
                fh.write(obs.to_prometheus_text(registry))
        except OSError as exc:
            print(f"repro: error: cannot write metrics: {exc}", file=sys.stderr)
            return
        obs.logger.info("metrics written to %s", metrics_path)


#: Subcommands recorded in the run registry (the ones that simulate).
_RECORDED_COMMANDS = ("simulate", "report", "diagnose")


def _make_recorder(args, argv: Optional[List[str]]):
    """A RunRecorder for this invocation, or None when not recording."""
    if args.command not in _RECORDED_COMMANDS:
        return None
    if getattr(args, "no_run_record", False):
        return None
    from repro.obs.runstore.store import RunRecorder

    return RunRecorder(
        command=args.command,
        argv=list(argv) if argv is not None else sys.argv[1:],
        config={
            "hours": args.hours,
            "per_hour": args.per_hour,
            "seed": args.seed,
            "workers": getattr(args, "workers", None),
            "fault": getattr(args, "fault", None),
        },
        runs_dir=getattr(args, "runs_dir", None),
    )


def _finalize_recorder(args) -> None:
    """Write the run manifest; a failing registry never fails the run."""
    recorder = getattr(args, "_run_recorder", None)
    if recorder is None:
        return
    live_session = getattr(args, "_live_session", None)
    try:
        manifest = recorder.finalize(
            obs.registry(), trace_path=getattr(args, "trace", None),
            spool_path=(
                live_session.spool_path if live_session is not None else None
            ),
            alerts=(
                live_session.export_alerts()
                if live_session is not None else None
            ),
        )
    except OSError as exc:
        print(f"repro: warning: run not recorded: {exc}", file=sys.stderr)
        return
    print(
        f"run recorded: {manifest.run_id} "
        f"({recorder.store.run_dir(manifest.run_id)})"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "obs":
        return cmd_obs(args)
    if args.command == "lint":
        from repro.lint.cli import run as run_lint

        return run_lint(args)
    if args.command == "runs":
        from repro.obs.runstore.cli import run as run_runs

        return run_runs(args)
    if args.command == "detect":
        from repro.obs.online.cli import run as run_detect_cli

        return run_detect_cli(args)
    if args.command == "slo":
        from repro.obs.horizon.cli import run as run_slo

        return run_slo(args)
    if args.command == "serve":
        from repro.serve.cli import run as run_serve

        return run_serve(args, argv)
    handlers = {
        "simulate": cmd_simulate,
        "report": cmd_report,
        "timeseries": cmd_timeseries,
        "figures": cmd_figures,
        "diagnose": cmd_diagnose,
    }
    _configure_observability(args)
    args._run_recorder = _make_recorder(args, argv)
    args._live_session = _configure_live(args)
    coordinator = None
    if args._live_session is not None:
        # Graceful shutdown for --live/--serve-metrics/--detect runs: a
        # SIGTERM (systemd stop, CI cleanup) becomes a KeyboardInterrupt
        # so the finally-teardown below runs exactly as it does for ^C
        # -- the live session stops, the trace closes, metrics export.
        from repro.obs.live.shutdown import ShutdownCoordinator

        coordinator = ShutdownCoordinator(raise_interrupt=True)
        coordinator.install()
    tracer = obs.tracer()
    try:
        with obs.span(
            f"cli.{args.command}", hours=args.hours, per_hour=args.per_hour
        ):
            code = handlers[args.command](args)
    except KeyboardInterrupt:
        print(
            f"repro: {args.command} interrupted; run record not finalized",
            file=sys.stderr,
        )
        code = 130
    finally:
        if coordinator is not None:
            coordinator.restore()
        # Stop the live session before exporting/finalizing so the event
        # spool is fully drained when the recorder copies it.
        if args._live_session is not None:
            args._live_session.stop()
        tracer.close()
        _export_metrics(args)
    if code == 0:
        # After tracer.close() so a --trace file is complete when copied
        # into the run directory.
        _finalize_recorder(args)
    if args._live_session is not None:
        args._live_session.cleanup()
    return code


if __name__ == "__main__":
    sys.exit(main())
