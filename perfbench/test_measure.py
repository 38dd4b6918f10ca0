"""Tests of the benchmark's own arithmetic and of its metric tables.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
from measure import (
    Batch,
    HostSpeed,
    Tracer,
    beyond_count,
    erlang_b_oracle,
    percentile,
    quartile_spread,
    rebound,
    samples_needed,
    tail_rule,
)

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_percentile_is_nearest_rank():
    xs = list(range(1, 11))
    assert percentile(xs, 50) == 5
    assert percentile(xs, 90) == 9
    assert percentile(xs, 91) == 10
    assert percentile(reversed(xs), 100) == 10
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_beyond_count_counts_samples_above_the_percentile():
    for n in (1, 7, 20, 40, 99, 100, 1000):
        for q in (50.0, 75.0, 90.0, 99.0):
            xs = list(range(n))
            above = sum(1 for x in xs if x > percentile(xs, q))
            assert beyond_count(n, q) == above


@pytest.mark.parametrize(
    "n, q",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, q):
    assert tail_rule(n) == q


def test_samples_needed_is_the_first_count_the_rule_accepts():
    for q in (50.0, 75.0, 90.0, 99.0):
        n = samples_needed(q)
        assert beyond_count(n, q) >= 10
        assert beyond_count(n - 1, q) < 10


def test_quartile_spread_matches_hand_computed_quartiles():
    # statistics.quantiles (exclusive method) of 1..10: 2.75, 5.5, 8.25.
    assert quartile_spread(range(1, 11)) == pytest.approx((8.25 - 2.75) / 5.5)
    assert quartile_spread([4.0] * 10) == 0.0
    # Scaling every value leaves the relative spread unchanged.
    xs = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98]
    assert quartile_spread([3 * x for x in xs]) == pytest.approx(quartile_spread(xs))


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.t += 2

    leaf = tracer.span("leaf", leaf)

    def mid():
        clock.t += 1
        leaf()
        clock.t += 1

    mid = tracer.span("mid", mid)

    def top():
        clock.t += 3
        mid()
        leaf()

    tracer.span("top", top)()
    s = tracer.spans
    assert (s["top"].calls, s["top"].total, s["top"].self_time) == (1, 9, 3)
    assert (s["mid"].calls, s["mid"].total, s["mid"].self_time) == (1, 4, 2)
    assert (s["leaf"].calls, s["leaf"].total, s["leaf"].self_time) == (2, 4, 4)


def test_span_closes_when_the_callee_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.t += 5
        raise KeyError("x")

    boom = tracer.span("boom", boom, keep_samples=True)

    def outer():
        with pytest.raises(KeyError):
            boom()
        clock.t += 1

    tracer.span("outer", outer)()
    assert tracer.spans["boom"].samples == [5]
    assert tracer.spans["outer"].self_time == 1


def test_observer_sees_arguments_and_result():
    seen = []
    f = Tracer().span("f", lambda a, b: a + b, observe=lambda args, r: seen.append((args, r)))
    assert f(2, 3) == 5
    assert seen == [((2, 3), 5)]


def test_rebound_restores_attributes_even_on_error():
    class Owner:
        def method(self):
            return "orig"

    with pytest.raises(RuntimeError):
        with rebound([(Owner, "method", lambda self: "new")]):
            assert Owner().method() == "new"
            raise RuntimeError
    assert Owner().method() == "orig"


def test_host_speed_spends_its_share_and_scales_by_the_mean():
    clock = FakeClock()

    def kernel():
        clock.t += 0.01

    host = HostSpeed(ref_ms=5.0, share=0.1, kernel=kernel, clock=clock)
    host.tick()
    assert host.samples_ms == [10.0]
    clock.t += 1.0  # a second of measured work
    host.tick()
    # Kernel time reaches a tenth of the time not spent on the kernel.
    assert len(host.samples_ms) == 10
    assert host.spent >= 0.1 * (clock.t - host.spent) - 0.01
    assert host.scale() == pytest.approx(0.5)


def test_host_speed_scales_an_instant_by_the_samples_near_it():
    clock = FakeClock()
    times = iter([0.01, 0.01, 0.03])

    def kernel():
        clock.t += next(times)

    host = HostSpeed(ref_ms=10.0, share=0.008, kernel=kernel, clock=clock)
    host.tick()  # one 10 ms sample at t=0
    clock.t = 5.0
    host.tick()  # 10 ms at t=5, then 30 ms at t=5.01
    assert host.scale_at(0.2, 0.5) == pytest.approx(1.0)
    assert host.scale_at(5.2, 0.5) == pytest.approx(0.5)
    assert host.scale_at(3.0, 0.5) == pytest.approx(1.0)  # none near: the next sample


def test_units_run_out_of_process_are_rerun_where_the_timer_sees_them():
    tracer = Tracer()
    unit = tracer.span("unit", lambda: None, keep_samples=True)

    class OutOfProcessSweep:
        def run_batch(self):
            return b"two rows"

        def rerun_units(self, output):
            unit()
            unit()

    batch = run.timed_batch(OutOfProcessSweep(), tracer.stats("unit"))
    assert len(batch.unit_times) == 2


def test_kernel_time_inside_a_batch_is_not_charged_to_it():
    tracer = Tracer()
    host = HostSpeed(ref_ms=1.0, share=1.0, kernel=lambda: time.sleep(0.02))
    unit = tracer.span("unit", lambda: time.sleep(0.01), lambda _a, _r: host.tick(), keep_samples=True)

    class Sweep:
        def run_batch(self):
            for _ in range(3):
                unit()
            return b""

    batch = run.timed_batch(Sweep(), tracer.stats("unit"), host)
    assert host.spent >= 0.02
    assert batch.wall == pytest.approx(sum(batch.unit_times), abs=0.01)


def _exact_erlang_b(a: int, n: int) -> Fraction:
    terms = [Fraction(a) ** k / math.factorial(k) for k in range(n + 1)]
    return terms[-1] / sum(terms)


@pytest.mark.parametrize("a, n", [(1, 1), (2, 2), (5, 3), (30, 40), (90, 80), (7, 0)])
def test_erlang_b_oracle_matches_exact_rationals(a, n):
    assert erlang_b_oracle(float(a), n) == pytest.approx(float(_exact_erlang_b(a, n)), rel=1e-12)


def test_per_layer_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    batch = Batch(wall=1.0, unit_times=[0.5], output=b"x")
    computed = layers.layer_metrics(Tracer(), layers.Observations(), [batch], [batch], True)
    assert set(computed) == {m["name"] for m in bench["per_layer"]}
    assert all(v == v for v in computed.values())  # no NaN on an empty trace


def test_every_layer_metric_has_a_prediction():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert set(expected["layer_map"]) == {m["name"] for m in bench["per_layer"]}
    assert set(expected["workloads"]) == {w["name"] for w in bench["workloads"]}
