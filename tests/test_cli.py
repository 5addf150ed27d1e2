"""Tests for the webfail CLI."""

import pytest

from repro import cli


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args([])

    def test_simulate_args(self):
        args = cli._build_parser().parse_args(
            ["--hours", "24", "--per-hour", "1", "simulate"]
        )
        assert args.hours == 24 and args.per_hour == 1
        assert args.command == "simulate"

    def test_timeseries_requires_client(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["timeseries"])

    def test_workers_flag_parsed(self):
        args = cli._build_parser().parse_args(
            ["--hours", "24", "--workers", "2", "simulate"]
        )
        assert args.workers == 2

    def test_workers_defaults_to_auto(self):
        args = cli._build_parser().parse_args(["--hours", "24", "simulate"])
        assert getattr(args, "workers", None) is None

    def test_workers_rejects_zero(self):
        with pytest.raises(SystemExit):
            cli.main(["--hours", "12", "--workers", "0", "simulate"])


class TestCommands:
    def test_simulate_and_save(self, tmp_path, capsys):
        out = str(tmp_path / "ds.npz")
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "simulate", "--save", out]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "median client failure rate" in captured
        assert "dataset digest: " in captured
        assert (tmp_path / "ds.npz").exists()

    def test_simulate_workers_digest_matches_sequential(self, capsys):
        """The CLI's printed digest is worker-count invariant -- the line
        CI compares across runs."""

        def digest_of(argv):
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            return next(
                line.split(": ", 1)[1] for line in out.splitlines()
                if line.startswith("dataset digest: ")
            )

        base = ["--hours", "12", "--per-hour", "1"]
        seq = digest_of(base + ["--workers", "1", "simulate"])
        par = digest_of(base + ["--workers", "2", "simulate"])
        assert seq == par

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_one_permanent_pair_pass(self, command, capsys, monkeypatch):
        """A command finds the permanent pairs once and hands that
        report to the headline; stdout is byte-identical to a headline
        that finds its own."""
        from repro.core import permanent, report

        find, headline = permanent.find_permanent_pairs, report.headline_summary
        calls = []

        def counting_find(dataset, *args, **kwargs):
            calls.append(dataset)
            return find(dataset, *args, **kwargs)

        monkeypatch.setattr(permanent, "find_permanent_pairs", counting_find)
        argv = ["--hours", "12", "--per-hour", "1", command]
        assert cli.main(argv) == 0
        once = capsys.readouterr().out
        assert len(calls) == 1
        monkeypatch.setattr(
            report, "headline_summary",
            lambda dataset, perm=None: headline(dataset),
        )
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == once
        assert len(calls) == 3

    def test_report_subset(self, capsys):
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "report", "--only", "table3"]
        )
        assert code == 0
        assert "Table 3" in capsys.readouterr().out

    def test_report_unknown_name(self, capsys):
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "report", "--only", "nope"]
        )
        assert code == 2

    def test_timeseries_csv(self, capsys):
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "timeseries",
             "--client", "nodea.howard.edu"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("hour,attempts")
        assert len(lines) == 13  # header + 12 hours


class TestFiguresCommand:
    def test_figures_export(self, tmp_path, capsys):
        out = str(tmp_path / "figs")
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "figures", "--out", out]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "figure1.csv" in captured
        import pathlib

        files = {p.name for p in pathlib.Path(out).iterdir()}
        assert {"figure1.csv", "figure4.csv", "figure6.csv"} <= files

    def test_figures_ascii(self, tmp_path, capsys):
        out = str(tmp_path / "figs")
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "figures", "--out", out,
             "--ascii"]
        )
        assert code == 0
        assert "#" in capsys.readouterr().out  # bar charts rendered


class TestDiagnoseCommand:
    def test_diagnose_runs(self, capsys):
        code = cli.main(["--hours", "24", "--per-hour", "2", "diagnose"])
        assert code == 0
        assert "permanent pairs diagnosed" in capsys.readouterr().out
