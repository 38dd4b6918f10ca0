"""Argument parsing, experiment CSV layout, and end-to-end CLI runs."""

import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import pytest

from sbvod import cli
from sbvod.caching import SchemeId
from sbvod.cli import (
    CSV_COLUMNS,
    ExperimentSpec,
    _item_runs,
    _t975,
    build_experiment_spec,
    default_workers,
    main,
    parse_args,
    run_experiment,
    run_many,
)
from sbvod.domain import ConfigError, SimConfig, derive_seed
from sbvod.engine import SimulationError, run_simulation


def tiny_spec(out_path, schemes=(SchemeId.NO_CACHE, SchemeId.ALL_CACHE), reps=2):
    return ExperimentSpec(
        name="custom",
        schemes=schemes,
        sweep_var="arrival_rate_per_min",
        values=(4.0, 6.0),
        replications=reps,
        base=SimConfig(horizon_minutes=60.0, warmup_minutes=10.0, seed=5),
        out_path=str(out_path),
    )


class TestParseArgs:
    def test_simulate_defaults(self):
        ns = parse_args(["simulate"])
        assert ns.command == "simulate"
        assert ns.scheme == [SchemeId.NO_CACHE]

    def test_scheme_aliases_accepted(self):
        ns = parse_args(["simulate", "--scheme", "proxy"])
        assert ns.scheme == [SchemeId.PROXY_CACHE]

    def test_bogus_scheme_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--scheme", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "proxy-cache" in err and "no-cache" in err

    def test_bad_sweep_list_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["experiment", "--out", "x", "--sweep", "4,x"])
        assert exc.value.code == 2
        assert "bad sweep list '4,x'" in capsys.readouterr().err

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2

    def test_experiment_needs_out(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["experiment"])
        assert exc.value.code == 2

    def test_experiment_sweep_list(self):
        ns = parse_args(
            ["experiment", "--out", "x.csv", "--name", "custom",
             "--sweep", "2,4", "--sweep-var", "arrival"]
        )
        assert ns.sweep == (2.0, 4.0)

    def test_comma_separated_schemes(self):
        ns = parse_args(["experiment", "--out", "x.csv", "--scheme", "all,random"])
        assert ns.scheme == [SchemeId.ALL_CACHE, SchemeId.RANDOM_CACHE]


class TestSpecValidation:
    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="nope", schemes=(SchemeId.NO_CACHE,), sweep_var="arrival_rate_per_min",
                values=(1.0,), replications=1, base=SimConfig(), out_path=str(tmp_path / "x.csv"),
            )

    def test_zero_reps_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="custom", schemes=(SchemeId.NO_CACHE,), sweep_var="arrival_rate_per_min",
                values=(1.0,), replications=0, base=SimConfig(), out_path=str(tmp_path / "x.csv"),
            )

    @pytest.mark.parametrize("name, sweep_var, values, base, message", [
        ("custom", "video_length_minutes", (30.5,), SimConfig(), "whole minutes, not 30.5"),
        ("custom", "arrival_rate_per_min", (4.0000001, 4.0000002), SimConfig(), "6 significant digits"),
        ("custom", "arrival_rate_per_min", (4, 4), SimConfig(), "6 significant digits"),
        ("delay_vs_length", "arrival_rate_per_min", (8.0,), SimConfig(),
         "delay_vs_length sweeps video_length_minutes, not arrival_rate_per_min"),
        ("custom", "arrival_rate_per_min", (4.0, -1.0), SimConfig(),
         "arrival_rate_per_min must be positive"),
        ("custom", "video_length_minutes", (35.0, 30.0), SimConfig(channels=7),
         "video_length_minutes = 30 does not split into 7 equal segments"),
        ("custom", "arrival_rate_per_min", (), SimConfig(), "sweep values must be non-empty"),
        ("custom", "seed", (1.0,), SimConfig(), "unsupported sweep variable 'seed'"),
    ], ids=["fractional-length", "values-print-alike", "repeated-value", "sweep-var-of-another-experiment",
            "negative-rate", "length-that-does-not-split", "no-values", "unsupported-sweep-var"])
    def test_api_spec_checks_every_sweep_rule(self, tmp_path, name, sweep_var, values, base, message):
        # Building the spec raises, so no run can start.
        with pytest.raises(ConfigError, match=message):
            ExperimentSpec(name=name, schemes=(SchemeId.NO_CACHE,), sweep_var=sweep_var, values=values,
                           replications=1, base=base, out_path=str(tmp_path / "x.csv"))

    def test_default_experiment_spec_from_args(self, tmp_path):
        ns = parse_args(["experiment", "--out", str(tmp_path / "r.csv")])
        spec = build_experiment_spec(ns)
        assert spec.name == "delay_vs_arrival"
        assert spec.sweep_var == "arrival_rate_per_min"
        assert spec.values == (2.0, 4.0, 6.0, 8.0, 10.0)
        assert spec.schemes == tuple(SchemeId)
        assert spec.replications == 5

    def test_length_family_sweeps_video_length(self, tmp_path):
        ns = parse_args(["experiment", "--out", str(tmp_path / "r.csv"),
                         "--name", "delay_vs_length"])
        spec = build_experiment_spec(ns)
        assert spec.sweep_var == "video_length_minutes"
        assert spec.values == (30.0, 60.0, 90.0)

    def test_named_experiment_takes_its_own_sweep_var(self, tmp_path):
        ns = parse_args(["experiment", "--out", str(tmp_path / "r.csv"),
                         "--name", "delay_vs_length", "--sweep-var", "length", "--sweep", "30,90"])
        spec = build_experiment_spec(ns)
        assert (spec.sweep_var, spec.values) == ("video_length_minutes", (30.0, 90.0))


class TestRunExperiment:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "r.csv"
        run_experiment(tiny_spec(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        # header + per scheme(2): per value(2): 2 reps + 1 agg
        assert len(lines) == 1 + 2 * 2 * (2 + 1)
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_rows_are_in_fixed_order(self, tmp_path):
        out = tmp_path / "r.csv"
        run_experiment(tiny_spec(out))
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").splitlines()[1:]]
        key = [(r[1], float(r[2]), r[4]) for r in rows]
        assert key == [
            ("no-cache", 4.0, "0"), ("no-cache", 4.0, "1"), ("no-cache", 4.0, "agg"),
            ("no-cache", 6.0, "0"), ("no-cache", 6.0, "1"), ("no-cache", 6.0, "agg"),
            ("all-cache", 4.0, "0"), ("all-cache", 4.0, "1"), ("all-cache", 4.0, "agg"),
            ("all-cache", 6.0, "0"), ("all-cache", 6.0, "1"), ("all-cache", 6.0, "agg"),
        ]

    def test_aggregate_is_exact_mean_of_reps(self, tmp_path):
        out = tmp_path / "r.csv"
        run_experiment(tiny_spec(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        cols = {name: i for i, name in enumerate(CSV_COLUMNS)}
        stats = [c for c in CSV_COLUMNS[cols["arrivals"]:cols["lps_requests"]] if c != "ci95_ms"]
        assert len(stats) == 10
        groups: dict[tuple, list[list[str]]] = {}
        for ln in lines[1:]:
            r = ln.split(",")
            assert len(r) == len(CSV_COLUMNS)
            groups.setdefault((r[1], r[2]), []).append(r)
        for (scheme, lam), rows in groups.items():
            reps = [r for r in rows if r[cols["replication"]] != "agg"]
            (agg,) = [r for r in rows if r[cols["replication"]] == "agg"]
            for col in stats:
                want = sum(float(r[cols[col]]) for r in reps) / len(reps)
                # Both sides round to six decimals independently, so they can
                # legitimately differ by one unit in the last printed place.
                assert float(agg[cols[col]]) == pytest.approx(want, abs=1.01e-6)

    def test_one_replication_agg_repeats_its_run(self, tmp_path):
        out = tmp_path / "r.csv"
        run_experiment(tiny_spec(out, schemes=(SchemeId.NO_CACHE, SchemeId.POR_CACHE), reps=1))
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").splitlines()[1:]]
        cols = {name: i for i, name in enumerate(CSV_COLUMNS)}
        assert len(rows) == 2 * 2 * 2 and all(len(r) == len(CSV_COLUMNS) for r in rows)
        for run, agg in zip(rows[::2], rows[1::2]):
            assert (run[cols["replication"]], agg[cols["replication"]]) == ("0", "agg")
            for col in CSV_COLUMNS[cols["arrivals"]:cols["lps_requests"]]:
                if col == "ci95_ms":
                    assert (run[cols[col]], agg[cols[col]]) == ("", "0.000000")
                else:
                    assert agg[cols[col]] == f"{float(run[cols[col]]):.6f}"
            assert agg[cols["lps_requests"]] == ""

    def test_ci_formula(self, tmp_path):
        out = tmp_path / "r.csv"
        run_experiment(tiny_spec(out, reps=3))
        lines = out.read_text(encoding="utf-8").splitlines()
        cols = {name: i for i, name in enumerate(CSV_COLUMNS)}
        rows = [ln.split(",") for ln in lines[1:]]
        reps = [r for r in rows if r[1] == "no-cache" and r[2] == "4" and r[4] != "agg"]
        (agg,) = [r for r in rows if r[1] == "no-cache" and r[2] == "4" and r[4] == "agg"]
        means = [float(r[cols["mean_delay_ms"]]) for r in reps]
        n = len(means)
        mu = sum(means) / n
        sd = math.sqrt(sum((m - mu) ** 2 for m in means) / (n - 1))
        assert float(agg[cols["ci95_ms"]]) == pytest.approx(4.302652729749464 * sd / math.sqrt(n), abs=5e-7)

    def test_seeds_derive_from_labels(self, tmp_path):
        out = tmp_path / "r.csv"
        spec = tiny_spec(out)
        run_experiment(spec)
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").splitlines()[1:]]
        first = rows[0]
        assert int(first[5]) == derive_seed(5, "no-cache", "4", 0)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(tiny_spec(a))
        run_experiment(tiny_spec(b))
        assert a.read_bytes() == b.read_bytes()


class TestRunMany:
    """Fanning runs out over worker processes changes no byte and no order."""

    def test_one_and_two_workers_write_identical_csvs(self, tmp_path, monkeypatch):
        # The golden experiment-csv sweep: six schemes, two rates, two reps.
        def csv_at(workers, out):
            monkeypatch.setattr(cli, "default_workers", lambda: workers)
            return run_experiment(spec(out)).read_bytes()

        def spec(out):
            base = SimConfig(num_videos=3, lps_capacity=3, seed=7, horizon_minutes=40.0,
                             warmup_minutes=5.0)
            return ExperimentSpec(name="delay_vs_arrival", schemes=tuple(SchemeId),
                                  sweep_var="arrival_rate_per_min", values=(4.0, 10.0),
                                  replications=2, base=base, out_path=str(out))

        one = csv_at(1, tmp_path / "one.csv")
        two = csv_at(2, tmp_path / "two.csv")
        assert one == two
        assert len(one.splitlines()) == 1 + 6 * 2 * (2 + 1)

    def test_reports_come_back_in_input_order(self):
        # Horizons from 15 to 240 minutes, so runs finish out of input order.
        jobs = [(SimConfig(horizon_minutes=float(h), warmup_minutes=5.0, seed=h), scheme)
                for h in (15, 30, 60, 240) for scheme in (SchemeId.NO_CACHE, SchemeId.DSC_CACHE)]
        random.Random(3).shuffle(jobs)
        expected = [run_simulation(cfg, scheme) for cfg, scheme in jobs]
        assert run_many(jobs, workers=2) == expected

    def test_failing_run_reaches_the_caller(self):
        good = SimConfig(horizon_minutes=20.0, warmup_minutes=5.0)
        bad = SimConfig(horizon_minutes=20.0, warmup_minutes=5.0, arrival_rate_per_min=-1.0)
        with pytest.raises(SimulationError) as here:
            run_simulation(bad, SchemeId.NO_CACHE)
        with pytest.raises(SimulationError) as pooled:
            run_many([(good, SchemeId.NO_CACHE), (bad, SchemeId.NO_CACHE)], workers=2)
        assert str(pooled.value) == str(here.value) == "invalid config: arrival_rate_per_min must be positive"

    def test_failing_run_exits_non_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "default_workers", lambda: 2)
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("horizon_minutes = 20\nwarmup_minutes = 5\n", encoding="utf-8")
        code = main(["experiment", "--config", str(cfg), "--name", "custom", "--sweep=4,-1",
                     "--sweep-var", "arrival", "--scheme", "no",
                     "--out", str(tmp_path / "x.csv")])
        assert code != 0
        assert capsys.readouterr().err == "sbvod: invalid config: arrival_rate_per_min must be positive\n"

    def test_default_workers_is_between_one_and_eight(self):
        assert 1 <= default_workers() <= 8


class TestMain:
    def test_simulate_prints_report(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("horizon_minutes = 45\nwarmup_minutes = 5\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg), "--scheme", "proxy", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proxy-cache" in out
        assert "mean_startup_delay_ms" in out

    def test_simulate_writes_single_row_csv(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("horizon_minutes = 45\nwarmup_minutes = 5\n", encoding="utf-8")
        out_csv = tmp_path / "one.csv"
        code = main(["simulate", "--config", str(cfg), "--scheme", "all",
                     "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "all-cache"

    def test_experiment_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("horizon_minutes = 45\nwarmup_minutes = 5\nseed = 12\n", encoding="utf-8")
        out_csv = tmp_path / "exp.csv"
        code = main(["experiment", "--config", str(cfg), "--name", "custom",
                     "--sweep", "3,6", "--sweep-var", "arrival", "--scheme", "no,por",
                     "--reps", "2", "--out", str(out_csv)])
        assert code == 0
        assert len(out_csv.read_text(encoding="utf-8").splitlines()) == 1 + 2 * 2 * 3

    def test_custom_without_sweep_is_usage_error(self, tmp_path, capsys):
        code = main(["experiment", "--name", "custom", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_simulate_with_two_schemes_is_usage_error(self, capsys):
        assert main(["simulate", "--scheme", "no,por"]) == 2
        assert capsys.readouterr().err == "sbvod: simulate takes exactly one --scheme\n"

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_config_file_read_errors_are_usage_errors(self, tmp_path, capsys):
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbfhorizon_minutes = 20\nwarmup_minutes = 5\n")
        assert main(["simulate", "--scheme", "no", "--config", str(bom)]) == 0
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"# caf\xe9\nseed = 1\n")
        for path, err in ((tmp_path, "Is a directory"), (latin1, "byte 5 is not UTF-8"),
                          (tmp_path / "missing.cfg", "No such file or directory")):
            capsys.readouterr()
            assert main(["simulate", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"sbvod: {path}: {err}")

    def test_invalid_config_values_are_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("channels = 7\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg)])
        assert code == 2
        assert "segments" in capsys.readouterr().err

    def test_nan_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("arrival_rate_per_min = nan\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg)])
        assert code == 2
        assert "arrival_rate_per_min must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--name", "custom", "--sweep-var", "arrival", "--sweep=4,-1"],
        ["--name", "custom", "--sweep-var", "arrival", "--sweep=nan"],
        ["--name", "custom", "--sweep-var", "length", "--sweep=30.5"],
        ["--reps", "0"],
        ["--scheme", ","],
        ["--name", "delay_vs_length", "--sweep-var", "arrival", "--sweep=8"],
        ["--name", "custom", "--sweep-var", "arrival", "--sweep=4.0000001,4.0000002"],
        ["--name", "custom", "--sweep-var", "arrival", "--sweep=4,4"],
    ], ids=["negative-rate", "nan-rate", "fractional-length", "zero-reps", "no-scheme",
            "sweep-var-of-another-experiment", "values-print-alike", "repeated-value"])
    def test_bad_experiment_is_usage_error_before_any_run(self, tmp_path, capsys, args):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("horizon_minutes = 20\nwarmup_minutes = 5\n", encoding="utf-8")
        out_csv = tmp_path / "x.csv"
        code = main(["experiment", "--config", str(cfg), "--reps", "1", "--sweep=4", *args,
                     "--out", str(out_csv)])
        assert code == 2
        assert capsys.readouterr().err.startswith("sbvod: ")
        assert not out_csv.exists()

    def test_length_sweep_checks_its_points_not_the_base(self, tmp_path, capsys):
        # The base's 60 minutes do not split into 7 segments, but a length sweep never runs them.
        cfg = tmp_path / "l7.cfg"
        cfg.write_text("channels = 7\nhorizon_minutes = 60\nwarmup_minutes = 5\n", encoding="utf-8")
        args = ["experiment", "--config", str(cfg), "--name", "delay_vs_length", "--scheme", "no",
                "--reps", "1", "--out"]
        out_csv = tmp_path / "l7.csv"
        assert main([*args, str(out_csv), "--sweep", "35,70"]) == 0
        assert len(out_csv.read_text(encoding="utf-8").splitlines()) == 1 + 2 * 2
        bad_csv = tmp_path / "bad.csv"
        assert main([*args, str(bad_csv), "--sweep", "30,70"]) == 2
        assert capsys.readouterr().err.endswith(
            "sbvod: invalid config: video_length_minutes = 30 does not split into 7 equal segments\n")
        assert not bad_csv.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--scheme", "dsc"],
        ["experiment", "--name", "custom", "--sweep-var", "arrival", "--sweep=4", "--reps", "1"],
        ["analyze"],
    ], ids=["simulate", "experiment", "analyze"])
    def test_unwritable_out_is_usage_error_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                          command):
        def no_run(*args, **kwargs):
            raise AssertionError("ran before checking --out")

        for name in ("run_simulation", "run_many", "catalog_from_config"):
            monkeypatch.setattr(cli, name, no_run)
        missing = tmp_path / "missing"
        for out, err in ((missing / "x.csv", f"--out directory {missing} does not exist"),
                         (tmp_path, f"--out {tmp_path} is a directory"),
                         ("", "--out . is a directory")):
            code = main([*command, "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err == f"sbvod: {err}\n"
            assert captured.out == ""
        assert not missing.exists()

    def test_out_directory_vanishing_mid_run_is_a_runtime_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        # --out passed its check before the run; a write that then fails is
        # a runtime fault like any other OSError, not a usage error.
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        cfg = SimConfig(horizon_minutes=20.0, warmup_minutes=5.0)

        def run_then_lose_the_directory(_cfg, scheme, trace=None):
            out_dir.rmdir()
            return run_simulation(cfg, scheme)

        monkeypatch.setattr(cli, "run_simulation", run_then_lose_the_directory)
        code = main(["simulate", "--scheme", "no", "--out", str(out_dir / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("sbvod: [Errno 2] No such file or directory")

    def test_analyze_prints_capacity_report(self, capsys):
        code = main(["analyze", "--cache-mbit", "0", "--service-minutes", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hit_ratio" in out
        assert "supported_streams" in out

    @pytest.mark.parametrize("flags", [[], ["--reserved-mbps", "1"]])
    def test_analyze_text_does_not_grow_with_the_catalog(self, tmp_path, capsys, flags):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("num_videos = 100000\nconsumption_rate_mbps = 0.0001\n", encoding="utf-8")
        assert main(["analyze", "--config", str(cfg), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "cached_items              v1q1-v50000q1" in lines
        assert max(len(ln) for ln in lines) <= 200

    @pytest.mark.parametrize("flag,value", [
        ("--reserved-mbps", "-3"), ("--reserved-mbps", "nan"), ("--reserved-mbps", "inf"),
        ("--cache-mbit", "nan"), ("--cache-mbit", "-1"), ("--cache-mbit", "inf"),
        ("--service-minutes", "nan"), ("--service-minutes", "inf"), ("--service-minutes", "0"),
        ("--arrival-per-sec", "inf"), ("--arrival-per-sec", "nan"), ("--arrival-per-sec", "-1"),
        ("--lps-channels", "0"),
    ])
    def test_bad_analyze_flag_is_usage_error_before_any_output(self, tmp_path, capsys, flag, value):
        out_csv = tmp_path / "cap.csv"
        code = main(["analyze", flag, value, "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"sbvod: {flag} must be ")
        assert captured.out == ""
        assert not out_csv.exists()

    def test_analyze_accepts_a_zero_arrival_rate(self, capsys):
        # The rate's range includes 0, as the cache size's and reservation's do.
        assert main(["analyze", "--arrival-per-sec", "0"]) == 0
        assert "blocking_prob" in capsys.readouterr().out

    def test_item_runs_break_at_gaps_and_quality_changes(self):
        keys = {(1, 1), (2, 1), (4, 1), (5, 1), (6, 1), (7, 2), (8, 2), (10, 1)}
        assert _item_runs(keys) == "v1q1-v2q1 v4q1-v6q1 v7q2-v8q2 v10q1"
        assert _item_runs(set()) == "(none)"

    def test_analyze_with_reservation_and_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "cap.csv"
        code = main(["analyze", "--cache-mbit", "0", "--reserved-mbps", "3",
                     "--lps-channels", "2", "--out", str(out_csv)])
        assert code == 0
        text = out_csv.read_text(encoding="utf-8")
        assert text.startswith("key,value\n")
        assert "broadcast_bandwidth_bps" in text


def _fresh_python(script: str) -> str:
    """Run ``script`` in a new interpreter that imports sbvod from this tree; returns its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestColdStart:
    """sbvod runs on the standard library alone: no command and no pool worker loads numpy."""

    def test_commands_that_draw_nothing_never_load_numpy(self, tmp_path):
        out = _fresh_python(f"""
            import contextlib, io, sys
            before = set(sys.modules)
            import sbvod
            from sbvod import cli
            assert "numpy" not in sys.modules, "import sbvod"
            for argv, code in ((["analyze"], 0), (["analyze", "--reserved-mbps", "-3"], 2),
                               (["simulate", "--config", {str(tmp_path)!r}], 2)):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    assert cli.main(argv) == code, argv
                assert "numpy" not in sys.modules, argv
            report = sbvod.run_simulation(sbvod.SimConfig(horizon_minutes=20.0, warmup_minutes=5.0),
                                          sbvod.SchemeId.DSC_CACHE)
            assert "numpy" not in sys.modules, "run_simulation"
            loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
            outside = sorted(loaded - sys.stdlib_module_names - {{"sbvod"}})
            assert not outside, outside
            print(repr(report))
        """)
        here = run_simulation(SimConfig(horizon_minutes=20.0, warmup_minutes=5.0), SchemeId.DSC_CACHE)
        assert out == repr(here) + "\n"

    def test_analyze_never_loads_hashlib(self):
        # Only seeding needs blake2b; hashlib would also load OpenSSL's _hashlib.
        _fresh_python("""
            import contextlib, io, sys
            import sbvod
            from sbvod.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["analyze"]) == 0
            loaded = sorted({"hashlib", "_hashlib"} & set(sys.modules))
            assert not loaded, loaded
        """)

    def test_workers_forked_from_a_numpy_free_parent_write_the_same_csv(self, tmp_path):
        _fresh_python(f"""
            import sys
            before = set(sys.modules)
            from sbvod import cli
            from sbvod.caching import SchemeId
            from sbvod.domain import SimConfig

            def csv_at(workers, name):
                cli.default_workers = lambda: workers
                spec = cli.ExperimentSpec(
                    name="custom", schemes=(SchemeId.NO_CACHE, SchemeId.DSC_CACHE),
                    sweep_var="arrival_rate_per_min", values=(4.0, 10.0), replications=2,
                    base=SimConfig(horizon_minutes=30.0, warmup_minutes=5.0, seed=3),
                    out_path={str(tmp_path)!r} + "/" + name)
                return cli.run_experiment(spec).read_bytes()

            two = csv_at(2, "two.csv")
            assert "numpy" not in sys.modules, "the pooled run loaded numpy in the parent"
            one = csv_at(1, "one.csv")
            assert "numpy" not in sys.modules, "the serial run loaded numpy"
            assert one == two
            # __mp_main__ is the name multiprocessing gives __main__ in its pool.
            loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
            outside = sorted(loaded - sys.stdlib_module_names - {{"sbvod", "__mp_main__"}})
            assert not outside, outside
        """)


def _t975_oracle(df: int) -> float:
    """The two-sided 95% Student-t quantile at 30 digits.

    One Newton step on the mpmath CDF, from the value under test: its error
    is squared, so the step lands on the true quantile to far below 1e-7.
    """
    with mpmath.workdps(30):
        nu, t = mpmath.mpf(df), mpmath.mpf(_t975(df))
        upper = mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, nu / (nu + t * t), regularized=True)
        pdf = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
        pdf *= (1 + t * t / nu) ** (-(nu + 1) / 2)
        return float(t - (mpmath.mpf("0.975") - 1 + upper / 2) / pdf)


def test_t975_matches_mpmath_student_t():
    for df in range(1, 1001):
        assert _t975(df) == pytest.approx(_t975_oracle(df), rel=1e-7), df
    with pytest.raises(ValueError):
        _t975(0)
