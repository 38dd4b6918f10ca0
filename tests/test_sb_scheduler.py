"""Timetable construction and queries for the staggered broadcast channels.

The worked values come from enumerating the 60-minute, 5-channel
timetable by hand: segments are 12 minutes, channel i starts at
(i - 1) * 12 min, and somewhere a segment-1 slot opens every 12 minutes.
"""

import random
import statistics
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbvod.domain import MS_PER_MINUTE
from sbvod.sb_scheduler import (
    NonDivisibleError,
    build_plan,
    classify_arrival,
    max_channels,
    segment_duration_ms,
)

MIN = MS_PER_MINUTE


class TestSegmentDuration:
    def test_sixty_over_five_is_twelve_minutes(self):
        assert segment_duration_ms(60, 5) == 12 * MIN == 720_000

    def test_thirty_over_five(self):
        assert segment_duration_ms(30, 5) == 6 * MIN

    def test_non_divisible_rejected(self):
        with pytest.raises(NonDivisibleError):
            segment_duration_ms(60, 7)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            segment_duration_ms(0, 5)
        with pytest.raises(ValueError):
            segment_duration_ms(60, 0)


class TestMaxChannels:
    def test_worked_examples(self):
        assert max_channels(45.0, 1.5, 5) == 6
        assert max_channels(54.0, 1.5, 5) == 7
        assert max_channels(1.5, 1.5, 1) == 1

    def test_float_edge_does_not_lose_a_channel(self):
        # 0.3 * 7 style float noise must not round 5 down to 4.
        assert max_channels(1.5, 0.3, 1) == 5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_channels(0.0, 1.5, 1)


class TestBuildPlan:
    def test_offsets_and_cycle(self):
        # Channel i starts segment 1 at (i - 1) * 12 min.
        plan = build_plan(60, 5)
        assert plan.segment_duration_ms == 12 * MIN
        assert all(classify_arrival(plan, off * MIN).on_time for off in (0, 12, 24, 36, 48))
        assert plan.cycle_ms == 60 * MIN

    def test_single_channel_degenerate(self):
        plan = build_plan(30, 1)
        assert plan.segment_duration_ms == plan.cycle_ms == 30 * MIN

    def test_plan_size_does_not_grow_with_channels(self):
        # 50 minutes on 10**6 channels: 3 ms segments. A stored offset per
        # channel would take tens of MB here, and validated channel counts
        # reach 6 * 10**10.
        tracemalloc.start()
        try:
            plan = build_plan(50, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        assert plan.segment_duration_ms == 3 and plan.cycle_ms == 50 * MIN
        assert classify_arrival(plan, (10**6 - 1) * 3).on_time

    def test_slot_sequence_across_channels(self):
        # Segment-1 slots open at 0, 12, 24, 36, 48, 60, ... minutes on
        # channels 1, 2, 3, 4, 5, 1, ...
        plan = build_plan(60, 5)
        for k in range(12):
            assert classify_arrival(plan, k * 12 * MIN).wait_ms == 0


class TestNextFirstSegmentStart:
    """The wait for the next segment-1 slot, as ``classify_arrival`` reports it."""

    def test_at_epoch(self):
        plan = build_plan(60, 5)
        assert classify_arrival(plan, 0).wait_ms == 0

    def test_five_minutes_in(self):
        plan = build_plan(60, 5)
        assert classify_arrival(plan, 5 * MIN).wait_ms == 7 * MIN

    def test_exactly_one_segment_in(self):
        plan = build_plan(60, 5)
        assert classify_arrival(plan, 12 * MIN).wait_ms == 0

    def test_arrival_class_is_an_immutable_value(self):
        arrival = classify_arrival(build_plan(60, 5), 5 * MIN)
        assert repr(arrival) == "ArrivalClass(on_time=False, missed_ms=300000, wait_ms=420000)"
        with pytest.raises(AttributeError):
            arrival.wait_ms = 0
        with pytest.raises(AttributeError):
            arrival.note = "no instance dict"

    @given(st.integers(min_value=0, max_value=10 * 60 * MIN - 1))
    def test_wait_bounded_and_lands_on_segment_one(self, t):
        plan = build_plan(60, 5)
        wait = classify_arrival(plan, t).wait_ms
        assert 0 <= wait < plan.segment_duration_ms
        assert classify_arrival(plan, t + wait).on_time


class TestMeanWait:
    def test_closed_form_over_one_cycle(self):
        # Averaging the wait over every ms offset in one segment gives
        # (D-1)/2 on the integer grid; the continuous-time value is D/2.
        plan = build_plan(60, 5)
        d = plan.segment_duration_ms
        total = sum((d - (s % d)) % d for s in range(d))
        assert total / d == (d - 1) / 2

    def test_mean_wait_near_half_segment_for_uniform_draws(self):
        plan = build_plan(60, 5)
        d = plan.segment_duration_ms
        rng = random.Random(1234)
        waits = [classify_arrival(plan, rng.randrange(10 * plan.cycle_ms)).wait_ms for _ in range(100_000)]
        assert statistics.fmean(waits) == pytest.approx(d / 2, rel=0.01)
