"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test verifies one claim end to end and records a one-line verdict;
the conftest hook echoes all verdicts after the run so the gate reads as
a checklist. Numbers here are either forced analytically (slot spacing,
loss formula, greedy placement) or structural (orderings, exact zeros,
byte equality), never tuned to match a measurement.
"""

import itertools
import math
import random
import time
from dataclasses import replace

import mpmath

from sbvod.analytic import erlang_b, hit_ratio, place_cache, weighted_items
from sbvod.balancer import LpsEntry, LpsTable, assign_lps, record_request, release_request
from sbvod.caching import SchemeId
from sbvod.cli import main, run_many
from sbvod.domain import MS_PER_MINUTE, QualityLevel, SimConfig, VideoSpec, derive_seed
from sbvod.engine import run_simulation

CRITERION_LINES: list[str] = []

BASE_SEED = 20260822


def _check(num: int, desc: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{status}] {desc}: {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_no_cache_baseline_delay():
    """Mean no-cache delay equals half the slot spacing (6 min) within 2%."""
    cfg = SimConfig(
        video_length_minutes=60,
        channels=5,
        arrival_rate_per_min=6.0,
        horizon_minutes=2000.0,
        warmup_minutes=30.0,
        seed=derive_seed(BASE_SEED, "baseline"),
    )
    t0 = time.perf_counter()
    report = run_simulation(cfg, SchemeId.NO_CACHE)
    elapsed = time.perf_counter() - t0
    expected = 6 * MS_PER_MINUTE
    rel_err = abs(report.mean_startup_delay_ms - expected) / expected
    ok = report.arrivals >= 10_000 and rel_err <= 0.02 and elapsed < 10.0
    _check(
        1,
        "no-cache mean startup delay = 6 min +/- 2%",
        ok,
        f"mean={report.mean_startup_delay_ms / MS_PER_MINUTE:.4f} min over "
        f"{report.arrivals} arrivals, err={rel_err * 100:.2f}%, {elapsed:.2f}s",
    )


def test_criterion_2_proxy_cache_never_fails():
    """Proxy acquisitions never fall back to a slot at default capacity."""
    jobs = [
        (
            SimConfig(
                arrival_rate_per_min=lam,
                horizon_minutes=120.0,
                warmup_minutes=30.0,
                seed=derive_seed(BASE_SEED, "proxy-zero", f"{lam:g}", rep),
            ),
            SchemeId.PROXY_CACHE,
        )
        for lam in (2.0, 4.0, 6.0, 8.0, 10.0)
        for rep in range(30)
    ]
    total_attempts = 0
    total_failures = 0
    worst = 0.0
    for report in run_many(jobs, workers=2):
        total_attempts += report.attempts
        total_failures += report.failures
        worst = max(worst, report.failure_probability)
    ok = total_failures == 0 and worst == 0.0
    _check(
        2,
        "proxy-cache failure probability exactly 0 across lambda grid x 30 reps",
        ok,
        f"{total_failures} failures in {total_attempts} attempts over 150 runs",
    )


def test_criterion_3_proxy_delay_invariant_in_video_length():
    """Same seed and rate give the same proxy mean delay for 30/60/90 min."""
    means = {}
    for minutes in (30, 60, 90):
        cfg = SimConfig(
            video_length_minutes=minutes,
            horizon_minutes=150.0,
            warmup_minutes=30.0,
            seed=derive_seed(BASE_SEED, "length"),
        )
        report = run_simulation(cfg, SchemeId.PROXY_CACHE)
        means[minutes] = report.mean_startup_delay_ms
    spread = max(means.values()) - min(means.values())
    ok = spread < 1e-9
    _check(
        3,
        "proxy-cache mean delay identical across video lengths 30/60/90",
        ok,
        f"means={means} ms, spread={spread:g} ms",
    )


def test_criterion_4_erlang_b_against_factorial_sum():
    """Recurrence matches 50-digit finite-sum evaluation to 1e-12 relative."""
    t0 = time.perf_counter()
    worst = 0.0
    with mpmath.workdps(50):
        for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            am = mpmath.mpf(a)
            term = mpmath.mpf(1)
            total = mpmath.mpf(1)
            for n in range(1, 101):
                term = term * am / n
                total += term
                want = float(term / total)
                got = erlang_b(a, n)
                worst = max(worst, abs(got - want) / want)
    spot_ok = abs(erlang_b(1.0, 1) - 0.5) < 1e-15 and abs(erlang_b(1.0, 2) - 0.2) < 1e-15
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and spot_ok and elapsed < 1.0
    _check(
        4,
        "loss-formula recurrence vs direct factorial sum (N <= 100)",
        ok,
        f"worst rel err={worst:.2e}, spot values B(1,1)=0.5 B(1,2)=0.2 exact, {elapsed:.2f}s",
    )


def _videos_from_weights(weights, size):
    total = sum(weights)
    out = []
    for i, w in enumerate(weights, start=1):
        out.append(
            VideoSpec(
                id=i,
                length_minutes=60,
                consumption_rate_mbps=1.5,
                popularity=w / total,
                qualities=(
                    QualityLevel(q_index=1, stream_rate_bps=1.5e6, size_bits=size, request_prob=1.0),
                ),
            )
        )
    return tuple(out)


def _brute_force_best(videos, capacity):
    items = list(weighted_items(videos))
    best = 0.0
    for mask in itertools.product((0, 1), repeat=len(items)):
        used = sum(q.size_bits for (_v, q, _w), m in zip(items, mask) if m)
        if used <= capacity:
            got = sum(w for (_v, _q, w), m in zip(items, mask) if m)
            best = max(best, got)
    return best


def test_criterion_5_placement_matches_exhaustive_search():
    """Greedy equals brute-force subset search on equal-size instances."""
    rng = random.Random(515)
    t0 = time.perf_counter()
    size = 10.0
    instances = 0
    worst = 0.0
    for n in range(1, 11):
        patterns = [
            [rng.uniform(0.05, 1.0) for _ in range(n)],
            [rng.uniform(0.05, 1.0) for _ in range(n)],
            [1.0] * n,
            [1.0 if i < n // 2 else 0.5 for i in range(n)],
        ]
        capacities = [size * k for k in range(n + 1)] + [size * k + size / 2 for k in range(n)]
        for weights in patterns:
            videos = _videos_from_weights(weights, size)
            for cap in capacities:
                greedy = hit_ratio(videos, place_cache(videos, cap))
                best = _brute_force_best(videos, cap)
                worst = max(worst, abs(greedy - best))
                instances += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _check(
        5,
        "greedy placement optimal on all sampled equal-size instances (<= 10 items)",
        ok,
        f"{instances} instances, worst objective gap={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_neighbor_scheme_delay_ordering_and_trend():
    """All-Cache < DSC-Cache < Random-Cache at 6/min; all non-increasing in rate."""
    lams = (2.0, 4.0, 6.0, 8.0, 10.0)
    schemes = (SchemeId.ALL_CACHE, SchemeId.DSC_CACHE, SchemeId.RANDOM_CACHE)
    reps = 30
    points = [(scheme, lam) for scheme in schemes for lam in lams]
    jobs = [
        (
            SimConfig(
                arrival_rate_per_min=lam,
                horizon_minutes=330.0,
                warmup_minutes=90.0,
                seed=derive_seed(BASE_SEED, "trend", scheme.value, f"{lam:g}", rep),
            ),
            scheme,
        )
        for scheme, lam in points
        for rep in range(reps)
    ]
    reports = run_many(jobs, workers=2)
    agg: dict[str, dict[float, float]] = {s.value: {} for s in schemes}
    for i, (scheme, lam) in enumerate(points):
        means = [r.mean_startup_delay_ms for r in reports[i * reps:(i + 1) * reps]]
        agg[scheme.value][lam] = sum(means) / len(means)

    at6 = {s.value: agg[s.value][6.0] for s in schemes}
    order_ok = at6["all-cache"] < at6["dsc-cache"] < at6["random-cache"]
    trend_ok = True
    for scheme in schemes:
        series = [agg[scheme.value][lam] for lam in lams]
        for lo, hi in zip(series, series[1:]):
            if hi > lo + 1e-9:
                trend_ok = False
    ok = order_ok and trend_ok
    _check(
        6,
        "delay ordering all < dsc < random at 6/min and non-increasing in arrival rate",
        ok,
        "at 6/min: all={all-cache:.0f} dsc={dsc-cache:.0f} random={random-cache:.0f} ms".format(**at6)
        + f", ordering={'ok' if order_ok else 'violated'}"
        + f", trend={'ok' if trend_ok else 'violated'}",
    )


def test_criterion_7_balancer_fairness_randomized():
    """Assignment always hits a minimum-count LPS; record-only stays within 1."""
    rng = random.Random(707)
    sequences = 10_000
    assigns = 0
    for _ in range(sequences):
        n_lps = rng.randint(1, 5)
        table = LpsTable([LpsEntry(i, f"LPS{i}", f"10.0.0.{i}:1") for i in range(1, n_lps + 1)])
        active: list[tuple[int, str]] = []
        record_only = True
        next_cid = 0
        for _op in range(15):
            if active and rng.random() < 0.3:
                lps, cid = active.pop(rng.randrange(len(active)))
                release_request(table, lps, cid)
                record_only = False
            else:
                got = assign_lps(table)
                counts = {e.lps_id: e.request_count for e in table.entries}
                low = min(counts.values())
                want = min(i for i, c in counts.items() if c == low)
                assert got == want, f"assign returned {got}, minimum-count choice is {want}"
                cid = f"C{next_cid}"
                next_cid += 1
                record_request(table, got, cid)
                active.append((got, cid))
                assigns += 1
                if record_only:
                    counts = [e.request_count for e in table.entries]
                    assert max(counts) - min(counts) <= 1
    _check(
        7,
        "least-requests assignment with smallest-id ties over randomized sequences",
        True,
        f"{sequences} sequences, {assigns} assignments verified against linear scan",
    )


def test_criterion_8_experiment_reruns_are_byte_identical(tmp_path):
    """The experiment subcommand is a pure function of (config, seed)."""
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "horizon_minutes = 60\nwarmup_minutes = 10\nseed = 31\n",
        encoding="utf-8",
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv_tail = [
        "--config", str(cfg), "--name", "custom", "--sweep", "4,6",
        "--sweep-var", "arrival", "--scheme", "no,proxy", "--reps", "2",
    ]
    code_a = main(["experiment", *argv_tail, "--out", str(out_a)])
    code_b = main(["experiment", *argv_tail, "--out", str(out_b)])
    same = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and same
    _check(
        8,
        "two experiment invocations with one config and seed emit identical bytes",
        ok,
        f"{out_a.stat().st_size} bytes each, identical={same}",
    )
