"""Command-line front end: single runs, experiment sweeps, capacity analysis.

Experiment sweeps emit one CSV row per replication plus an aggregate row
per (scheme, swept value). Every row is formatted from plain Python
numbers with fixed precision and emitted in a fixed order, so two runs
from the same config and seed produce byte-identical files, whether the
sweep's runs were made in one process or spread over several.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from . import analytic, engine
from .caching import SchemeId, SourceKind, normalize_scheme
from .domain import (
    BITS_PER_MEGABIT,
    ConfigError,
    SimConfig,
    catalog_from_config,
    derive_seed,
    load_config,
    validate_config,
)
from .engine import MetricsReport, SimulationError, run_simulation

_ARRIVAL_SWEEP = (2.0, 4.0, 6.0, 8.0, 10.0)
_CUSTOM = "custom"
# Each experiment's swept field and default values; a custom one takes both from the flags.
_EXPERIMENTS: dict[str, tuple[str | None, tuple[float, ...]]] = {
    "delay_vs_arrival": ("arrival_rate_per_min", _ARRIVAL_SWEEP),
    "delay_vs_length": ("video_length_minutes", (30.0, 60.0, 90.0)),
    "failure_vs_arrival": ("arrival_rate_per_min", _ARRIVAL_SWEEP),
    _CUSTOM: (None, ()),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)

_SWEEP_VARS = {"arrival": "arrival_rate_per_min", "length": "video_length_minutes"}

# The statistic columns in CSV order, each with its value in a report. A
# run row prints the value; an agg row prints its mean over the
# replications that have one. ci95_ms has no per-run value: only an agg
# row computes it.
_STATS: tuple[tuple[str, Callable[[MetricsReport], float | None] | None], ...] = (
    ("arrivals", lambda r: r.arrivals),
    ("mean_delay_ms", lambda r: r.mean_startup_delay_ms),
    ("ci95_ms", None),
    ("failure_prob", lambda r: r.failure_probability),
    ("attempts", lambda r: r.attempts),
    ("failures", lambda r: r.failures),
    # One column per acquisition outcome, in the engine's histogram order.
    *((f"outcome_{k.value}", lambda r, k=k.value: r.outcome_counts[k]) for k in SourceKind),
)

CSV_COLUMNS = (
    "experiment",
    "scheme",
    "arrival_rate_per_min",
    "video_length_min",
    "replication",
    "seed",
    *(name for name, _value in _STATS),
    "lps_requests",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully-resolved sweep: what to run, over what, and where to write.

    Building one checks every sweep rule, for CLI and API callers alike, and raises
    ``ConfigError`` before any run. It validates each point, not the base, whose swept field never runs.
    """

    name: str
    schemes: tuple[SchemeId, ...]
    sweep_var: str
    values: tuple[float, ...]
    replications: int
    base: SimConfig
    out_path: str

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.name!r}")
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        if not self.values:
            raise ConfigError("sweep values must be non-empty")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.sweep_var not in _SWEEP_VARS.values():
            raise ConfigError(f"unsupported sweep variable {self.sweep_var!r}")
        own = _EXPERIMENTS[self.name][0]
        if own not in (None, self.sweep_var):
            raise ConfigError(f"{self.name} sweeps {own}, not {self.sweep_var}")
        printed: dict[str, float] = {}
        for value in self.values:
            # Seeds and rows carry the value as printed, so values that print alike would share both.
            label = f"{value:g}"
            if label in printed:
                raise ConfigError(f"sweep values {printed[label]!r} and {value!r} are the same to 6 significant digits")
            printed[label] = value
            if self.sweep_var == "video_length_minutes" and value % 1 != 0:
                raise ConfigError(f"video lengths must be whole minutes, not {value:g}")
            _checked(_cfg_for_value(self, value))


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def _cell(x: float | None) -> str:
    """An integer as an integer, a float to six decimals, ``None`` as an empty cell."""
    return str(x) if isinstance(x, int) else _fmt(x)


def _fmt_lps(requests: dict[int, int]) -> str:
    return ";".join(f"{k}:{requests[k]}" for k in sorted(requests))


def _write_csv(path: str, rows: list[str]) -> Path:
    out = Path(path)
    out.write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n", encoding="utf-8")
    return out


def _row(name: str, scheme: str, cfg: SimConfig, rep: str, seed: int,
         stats: list[float | None], lps: str) -> str:
    return ",".join((name, scheme, f"{cfg.arrival_rate_per_min:g}", f"{cfg.video_length_minutes:g}",
                     rep, str(seed), *map(_cell, stats), lps))


def _run_row(name: str, cfg: SimConfig, rep: int, report: MetricsReport) -> str:
    stats = [None if value is None else value(report) for _name, value in _STATS]
    return _row(name, report.scheme, cfg, str(rep), report.seed, stats, _fmt_lps(report.lps_requests))


# Two-sided 95% Student-t quantiles for 1 to 29 degrees of freedom.
_T975 = (
    12.706204736174705, 4.302652729749464, 3.1824463052837095, 2.7764451051977943,
    2.5705818356363155, 2.44691185114497, 2.3646242515927853, 2.3060041352041667,
    2.2621571627982053, 2.228138851986275, 2.2009851600916397, 2.178812829667229,
    2.1603686564627926, 2.144786687917804, 2.1314495455597755, 2.1199052992212546,
    2.109815577833317, 2.1009220402410387, 2.0930240544083096, 2.085963447265865,
    2.0796138447276804, 2.0738730679040263, 2.0686576104190486, 2.063898561628026,
    2.0595385527532977, 2.055529438642873, 2.0518305164802855, 2.048407141795245,
    2.0452296421327043,
)
_Z975 = 1.9599639845400543


def _t975(df: int) -> float:
    """Two-sided 95% Student-t quantile for ``df`` degrees of freedom.

    Tabled below 30; from there the four-term Cornish-Fisher expansion
    around the normal quantile (Abramowitz & Stegun 26.7.5) is within a
    relative 1.6e-8.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if df < 30:
        return _T975[df - 1]
    z = _Z975
    g1 = (z**3 + z) / 4
    g2 = (5 * z**5 + 16 * z**3 + 3 * z) / 96
    g3 = (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384
    g4 = (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160
    return z + g1 / df + g2 / df**2 + g3 / df**3 + g4 / df**4


def _mean(values: list[float | None]) -> float | None:
    kept = [v for v in values if v is not None]
    return math.fsum(kept) / len(kept) if kept else None


def _agg_row(spec: ExperimentSpec, cfg: SimConfig, reports: list[MetricsReport]) -> str:
    means = [r.mean_startup_delay_ms for r in reports if r.mean_startup_delay_ms is not None]
    if len(means) >= 2:
        # stdev() differs by version (3.10 roots the rounded variance, 3.11+
        # rounds the exact root); variance() and math.sqrt() do not.
        sd = math.sqrt(statistics.variance(means))
        ci = _t975(len(means) - 1) * sd / math.sqrt(len(means))
    else:
        ci = 0.0 if means else None
    stats = [ci if value is None else _mean([value(r) for r in reports]) for _name, value in _STATS]
    return _row(spec.name, reports[0].scheme, cfg, "agg", spec.base.seed, stats, "")


def _cfg_for_value(spec: ExperimentSpec, value: float) -> SimConfig:
    if spec.sweep_var == "video_length_minutes":
        return replace(spec.base, video_length_minutes=int(value))
    return replace(spec.base, arrival_rate_per_min=value)


def default_workers() -> int:
    """Worker processes a sweep uses: the CPUs this process may run on, at most 8.

    ``taskset -c 0 sbvod experiment ...`` therefore makes every run in
    the ``sbvod`` process itself. The cap keeps a large host from starting
    dozens of ~23 MB workers; no host above two CPUs has been measured.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, 8)


def run_many(jobs: list[tuple[SimConfig, SchemeId]], workers: int | None = None) -> list[MetricsReport]:
    """Run each ``(cfg, scheme)`` job; returns the reports in input order.

    A run is a pure function of its config and scheme, so where it runs
    changes no byte. With one worker, or one job, the runs are made here
    through this module's ``run_simulation``; otherwise they are spread
    over ``min(workers, len(jobs))`` processes. ``workers`` defaults to
    ``default_workers()``. An exception raised by a run reaches the caller
    with its type and message.
    """
    workers = default_workers() if workers is None else workers
    if workers == 1 or len(jobs) <= 1:
        return [run_simulation(cfg, scheme) for cfg, scheme in jobs]
    from concurrent.futures import ProcessPoolExecutor

    # One job per task: a run (18-53 ms by scheme at the default config and 10
    # clients/min, Python 3.11.7) dwarfs a round trip, and schemes differ in cost,
    # so chunks of a short sweep would unbalance workers.
    # Workers call the engine, not this module's ``run_simulation``, so a
    # wrapper bound on that name (the benchmark's unit timer) stays in the parent.
    cfgs, schemes = zip(*jobs)
    with ProcessPoolExecutor(min(workers, len(jobs))) as pool:
        return list(pool.map(engine.run_simulation, cfgs, schemes, chunksize=1))


def _plan_runs(spec: ExperimentSpec) -> list[tuple[SimConfig, SchemeId]]:
    """Every run of the sweep as a ``(cfg, scheme)`` job, in (scheme, value, replication) order."""
    runs = []
    for scheme in spec.schemes:
        for value in spec.values:
            cfg_v = _cfg_for_value(spec, value)
            for rep in range(spec.replications):
                seed = derive_seed(spec.base.seed, scheme.value, f"{value:g}", rep)
                runs.append((replace(cfg_v, seed=seed), scheme))
    return runs


def run_experiment(spec: ExperimentSpec) -> Path:
    """Run the sweep through ``run_many`` and write its CSV; returns the output path.

    Runs are seeded by hashing (base seed, scheme, swept value,
    replication index) with the package's 64-bit label mix, so each run
    is independent yet exactly reproducible, and rows appear in fixed
    (scheme, value, replication) order for any worker count.
    """
    runs = _plan_runs(spec)
    reports = run_many(runs)
    reps = spec.replications
    lines = []
    for i in range(0, len(runs), reps):
        point = reports[i:i + reps]
        for rep, ((cfg, _scheme), report) in enumerate(zip(runs[i:i + reps], point)):
            lines.append(_run_row(spec.name, cfg, rep, report))
        lines.append(_agg_row(spec, runs[i][0], point))
    return _write_csv(spec.out_path, lines)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _scheme_arg(text: str) -> list[SchemeId]:
    try:
        return [normalize_scheme(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sweep_arg(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep list {text!r}") from None


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse the command line; exits with status 2 on usage errors."""
    parser = argparse.ArgumentParser(
        prog="sbvod",
        description="Staggered-broadcast VOD simulator and capacity model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation and print its metrics")
    sim.add_argument("--config", type=str, default=None, help="config file path")
    sim.add_argument("--scheme", type=_scheme_arg, default=[SchemeId.NO_CACHE],
                     help="caching scheme (e.g. proxy, por, dsc, all, random, no)")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--out", type=str, default=None, help="also write a one-row CSV")
    sim.add_argument("--trace", action="store_true", help="write an event trace to stderr")

    exp = sub.add_parser("experiment", help="run a sweep and write a CSV")
    exp.add_argument("--config", type=str, default=None)
    exp.add_argument("--name", choices=EXPERIMENT_NAMES, default=EXPERIMENT_NAMES[0])
    exp.add_argument("--scheme", type=_scheme_arg, default=None,
                     help="comma-separated schemes; default is all six")
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--reps", type=int, default=5, help="replications per point")
    exp.add_argument("--out", type=str, required=True)
    exp.add_argument("--sweep", type=_sweep_arg, default=None,
                     help="override sweep values, e.g. 2,4,6")
    exp.add_argument("--sweep-var", choices=("arrival", "length"), default=None,
                     help="swept variable for custom experiments")

    ana = sub.add_parser("analyze", help="print the analytic capacity report")
    ana.add_argument("--config", type=str, default=None)
    ana.add_argument("--cache-mbit", type=float, default=None,
                     help="proxy cache size in megabits (default: half the catalog)")
    ana.add_argument("--reserved-mbps", type=float, default=0.0,
                     help="bandwidth kept aside to rebroadcast uncached videos")
    ana.add_argument("--lps-channels", type=int, default=1,
                     help="proxy channels replaying each broadcast-selected item")
    ana.add_argument("--arrival-per-sec", type=float, default=None,
                     help="request rate (default: config arrivals per minute / 60)")
    ana.add_argument("--service-minutes", type=float, default=None,
                     help="mean stream holding time (default: the video length)")
    ana.add_argument("--out", type=str, default=None, help="also write key,value CSV")

    return parser.parse_args(argv)


def _checked(cfg: SimConfig) -> SimConfig:
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return cfg


def _load_base_config(path: str | None, seed: int | None) -> SimConfig:
    cfg = load_config(path) if path else SimConfig()
    return cfg if seed is None else replace(cfg, seed=seed)


def build_experiment_spec(ns: argparse.Namespace) -> ExperimentSpec:
    """Map the flags onto a spec; its own checks raise ``ConfigError`` for a sweep that cannot run."""
    base = _load_base_config(ns.config, ns.seed)
    sweep_var, values = _EXPERIMENTS[ns.name]
    if sweep_var is None and (ns.sweep is None or ns.sweep_var is None):
        raise ConfigError(f"{ns.name} experiments need --sweep and --sweep-var")
    return ExperimentSpec(
        name=ns.name,
        schemes=tuple(SchemeId) if ns.scheme is None else tuple(ns.scheme),
        sweep_var=sweep_var if ns.sweep_var is None else _SWEEP_VARS[ns.sweep_var],
        values=values if ns.sweep is None else ns.sweep,
        replications=ns.reps,
        base=base,
        out_path=ns.out,
    )


def _print_aligned(pairs: list[tuple[str, object]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")


def _report_pairs(report: MetricsReport) -> list[tuple[str, object]]:
    return [
        ("scheme", report.scheme),
        ("seed", report.seed),
        ("arrivals", report.arrivals),
        ("mean_startup_delay_ms", _fmt(report.mean_startup_delay_ms) or "n/a"),
        ("failure_probability", _fmt(report.failure_probability) or "n/a"),
        ("attempts", report.attempts),
        ("failures", report.failures),
        ("outcome_counts", report.outcome_counts),
        ("lps_requests", report.lps_requests),
        ("empty", report.empty),
    ]


def _cmd_simulate(ns: argparse.Namespace) -> int:
    if len(ns.scheme) != 1:
        raise ConfigError("simulate takes exactly one --scheme")
    cfg = _checked(_load_base_config(ns.config, ns.seed))
    trace = sys.stderr if ns.trace else None
    report = run_simulation(cfg, ns.scheme[0], trace=trace)
    _print_aligned(_report_pairs(report))
    if ns.out:
        _write_csv(ns.out, [_run_row(_CUSTOM, cfg, 0, report)])
    return 0


def _cmd_experiment(ns: argparse.Namespace) -> int:
    spec = build_experiment_spec(ns)
    out = run_experiment(spec)
    print(f"wrote {out}")
    return 0


def _item_runs(keys: set[tuple[int, int]]) -> str:
    """The placed (video, quality) items; consecutive ids at one quality print as ``vAqQ-vBqQ``."""
    runs: list[list[int]] = []  # [first id, last id, quality]
    for v, q in sorted(keys):
        if runs and runs[-1][1:] == [v - 1, q]:
            runs[-1][1] = v
        else:
            runs.append([v, v, q])
    return " ".join(f"v{a}q{q}" if a == b else f"v{a}q{q}-v{b}q{q}" for a, b, q in runs) or "(none)"


def _check_analyze_flags(ns: argparse.Namespace) -> None:
    """Reject a non-finite or out-of-range ``analyze`` flag before any computation."""
    for flag, value, positive in (("--cache-mbit", ns.cache_mbit, False),
                                  ("--reserved-mbps", ns.reserved_mbps, False),
                                  ("--arrival-per-sec", ns.arrival_per_sec, False),
                                  ("--service-minutes", ns.service_minutes, True)):
        if value is not None and not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            raise ConfigError(f"{flag} must be a finite number {'>' if positive else '>='} 0, not {value:g}")
    if ns.lps_channels < 1:
        raise ConfigError(f"--lps-channels must be at least 1, not {ns.lps_channels}")


def _cmd_analyze(ns: argparse.Namespace) -> int:
    _check_analyze_flags(ns)
    cfg = _checked(_load_base_config(ns.config, None))
    videos = catalog_from_config(cfg)
    total_bits = math.fsum(q.size_bits for v in videos for q in v.qualities)
    cache_bits = (
        ns.cache_mbit * BITS_PER_MEGABIT if ns.cache_mbit is not None else total_bits / 2.0
    )
    lam = ns.arrival_per_sec if ns.arrival_per_sec is not None else cfg.arrival_rate_per_min / 60.0
    service_min = ns.service_minutes if ns.service_minutes is not None else float(cfg.video_length_minutes)
    bandwidth_bits = cfg.bandwidth_mbps * BITS_PER_MEGABIT

    placement = analytic.place_cache(videos, cache_bits)
    if ns.reserved_mbps > 0.0:
        placement = analytic.select_broadcast_videos(
            videos, placement, ns.reserved_mbps * BITS_PER_MEGABIT, ns.lps_channels
        )
        report = analytic.broadcast_analysis(videos, placement, lam, bandwidth_bits, service_min)
    else:
        report = analytic.dedicated_stream_analysis(videos, placement, lam, bandwidth_bits, service_min)

    pairs: list[tuple[str, object]] = [
        ("videos", len(videos)),
        ("cache_capacity_mbit", f"{cache_bits / BITS_PER_MEGABIT:.6g}"),
        ("cached_items", _item_runs(placement.cached)),
        ("broadcast_items", _item_runs(placement.broadcast)),
        ("hit_ratio", f"{report.hit_ratio:.6f}"),
        ("lambda_dedicated_per_sec", f"{report.lambda_dedicated:.6f}"),
        ("avg_stream_rate_bps", f"{report.avg_stream_rate:.6g}"),
        ("supported_streams", report.supported_streams),
        ("broadcast_bandwidth_bps", f"{report.broadcast_bandwidth:.6g}"),
        ("lambda_broadcast_per_sec", f"{report.lambda_broadcast:.6f}"),
        ("avg_broadcast_rate_bps", f"{report.avg_broadcast_rate:.6g}"),
        ("dedicated_capacity", report.dedicated_capacity),
        ("blocking_prob", f"{report.blocking_prob:.6g}"),
        ("overall_blocking", f"{report.overall_blocking:.6g}"),
        ("mean_service_minutes", f"{report.mean_service_minutes:.6g}"),
    ]
    _print_aligned(pairs)
    if ns.out:
        rows = ["key,value"] + [f"{k},{v}" for k, v in pairs]
        Path(ns.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    ns = parse_args(argv)
    commands = {"simulate": _cmd_simulate, "experiment": _cmd_experiment, "analyze": _cmd_analyze}
    try:
        # Every command takes --out; a path that cannot be written fails before any run.
        if ns.out is not None:
            out = Path(ns.out)
            if not out.parent.is_dir():
                raise ConfigError(f"--out directory {out.parent} does not exist")
            if out.is_dir():
                raise ConfigError(f"--out {out} is a directory")
        return commands[ns.command](ns)
    except ConfigError as exc:
        print(f"sbvod: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, OSError, ValueError) as exc:
        print(f"sbvod: {exc}", file=sys.stderr)
        return 1

