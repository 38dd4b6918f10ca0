"""Argument parsing, experiment CSV layout, and end-to-end CLI runs."""

import math
import random

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
from sbvod.domain import SimConfig, derive_seed
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
        groups: dict[tuple, list[list[str]]] = {}
        for ln in lines[1:]:
            r = ln.split(",")
            groups.setdefault((r[1], r[2]), []).append(r)
        for (scheme, lam), rows in groups.items():
            reps = [r for r in rows if r[cols["replication"]] != "agg"]
            (agg,) = [r for r in rows if r[cols["replication"]] == "agg"]
            for col in ("mean_delay_ms", "failure_prob", "arrivals"):
                want = sum(float(r[cols[col]]) for r in reps) / len(reps)
                # Both sides round to six decimals independently, so they can
                # legitimately differ by one unit in the last printed place.
                assert float(agg[cols[col]]) == pytest.approx(want, abs=1.01e-6)

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

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

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
    ], ids=["negative-rate", "nan-rate", "fractional-length", "zero-reps", "no-scheme"])
    def test_bad_experiment_is_usage_error_before_any_run(self, tmp_path, capsys, args):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("horizon_minutes = 20\nwarmup_minutes = 5\n", encoding="utf-8")
        out_csv = tmp_path / "x.csv"
        code = main(["experiment", "--config", str(cfg), "--reps", "1", "--sweep=4", *args,
                     "--out", str(out_csv)])
        assert code == 2
        assert capsys.readouterr().err.startswith("sbvod: ")
        assert not out_csv.exists()

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

    def test_item_runs_break_at_gaps_and_quality_changes(self):
        flags = {(1, 1): True, (2, 1): True, (3, 1): False, (4, 1): True, (5, 1): True,
                 (6, 1): True, (7, 2): True, (8, 2): True, (10, 1): True}
        assert _item_runs(flags) == "v1q1-v2q1 v4q1-v6q1 v7q2-v8q2 v10q1"
        assert _item_runs({(1, 1): False}) == "(none)"

    def test_analyze_with_reservation_and_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "cap.csv"
        code = main(["analyze", "--cache-mbit", "0", "--reserved-mbps", "3",
                     "--lps-channels", "2", "--out", str(out_csv)])
        assert code == 0
        text = out_csv.read_text(encoding="utf-8")
        assert text.startswith("key,value\n")
        assert "broadcast_bandwidth_bps" in text


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
