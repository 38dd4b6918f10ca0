"""Timetable construction and queries for the staggered broadcast channels.

The worked values come from enumerating the 60-minute, 5-channel
timetable by hand: segments are 12 minutes, channel i starts at
(i - 1) * 12 min, and somewhere a segment-1 slot opens every 12 minutes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbvod.domain import MS_PER_MINUTE, QualityLevel, VideoSpec
from sbvod.sb_scheduler import (
    BeforeStartError,
    BroadcastPlan,
    NonDivisibleError,
    build_plan,
    classify_arrival,
    current_segment,
    max_channels,
    next_first_segment_start,
    segment_duration_ms,
)

MIN = MS_PER_MINUTE


def _video(minutes=60, vid=1):
    q = QualityLevel(q_index=1, stream_rate_bps=1.5e6, size_bits=minutes * 60 * 1.5e6, request_prob=1.0)
    return VideoSpec(
        id=vid, length_minutes=minutes, consumption_rate_mbps=1.5, popularity=1.0, qualities=(q,)
    )


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
        plan = build_plan(_video(60), 5)
        assert plan.segment_duration_ms == 12 * MIN
        assert plan.channel_offsets_ms == (0, 12 * MIN, 24 * MIN, 36 * MIN, 48 * MIN)
        assert plan.cycle_ms == 60 * MIN

    def test_single_channel_degenerate(self):
        plan = build_plan(_video(30), 1)
        assert plan.channel_offsets_ms == (0,)
        assert plan.cycle_ms == 30 * MIN

    def test_plan_size_does_not_grow_with_channels(self):
        # 50 minutes on 10**6 channels: 3 ms segments. A stored offset per
        # channel would take tens of MB here, and validated channel counts
        # reach 6 * 10**10.
        video = _video(50)
        tracemalloc.start()
        try:
            plan = build_plan(video, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        assert plan.segment_duration_ms == 3 and plan.cycle_ms == 50 * MIN
        last_start = (10**6 - 1) * 3
        assert current_segment(plan, 10**6, last_start) == 1
        assert current_segment(plan, 10**6, last_start + 3) == 2

    def test_epoch_shift(self):
        plan = build_plan(_video(60), 5, epoch_ms=5 * MIN)
        ch, wait = next_first_segment_start(plan, 5 * MIN)
        assert (ch, wait) == (1, 0)
        with pytest.raises(BeforeStartError):
            next_first_segment_start(plan, 4 * MIN)

    def test_slot_sequence_across_channels(self):
        # Segment-1 slots at 0, 12, 24, 36, 48, 60, ... minutes on
        # channels 1, 2, 3, 4, 5, 1, ...
        plan = build_plan(_video(60), 5)
        for k in range(12):
            ch, wait = next_first_segment_start(plan, k * 12 * MIN)
            assert wait == 0
            assert ch == (k % 5) + 1


class TestNextFirstSegmentStart:
    def test_at_epoch(self):
        plan = build_plan(_video(60), 5)
        assert next_first_segment_start(plan, 0) == (1, 0)

    def test_five_minutes_in(self):
        plan = build_plan(_video(60), 5)
        assert next_first_segment_start(plan, 5 * MIN) == (2, 7 * MIN)

    def test_exactly_one_segment_in(self):
        plan = build_plan(_video(60), 5)
        assert next_first_segment_start(plan, 12 * MIN) == (2, 0)

    @given(st.integers(min_value=0, max_value=10 * 60 * MIN - 1))
    def test_wait_bounded_and_lands_on_segment_one(self, t):
        plan = build_plan(_video(60), 5)
        ch, wait = next_first_segment_start(plan, t)
        assert 0 <= wait < plan.segment_duration_ms
        assert current_segment(plan, ch, t + wait) == 1

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10 * 60 * MIN - 1),
    )
    @settings(max_examples=60)
    def test_exactly_one_live_channel_opens_segment_one(self, channels, t):
        minutes = channels * 6  # always divisible
        plan = build_plan(_video(minutes), channels)
        ch, wait = next_first_segment_start(plan, t)
        instant = t + wait
        openers = []
        for c in range(1, channels + 1):
            try:
                if current_segment(plan, c, instant) == 1 and (
                    (instant - plan.channel_offsets_ms[c - 1]) % plan.segment_duration_ms == 0
                ):
                    openers.append(c)
            except BeforeStartError:
                pass
        assert openers == [ch]


class TestCurrentSegment:
    def test_thirteen_minutes(self):
        plan = build_plan(_video(60), 5)
        assert current_segment(plan, 1, 13 * MIN) == 2
        assert current_segment(plan, 2, 13 * MIN) == 1

    def test_at_epoch(self):
        plan = build_plan(_video(60), 5)
        assert current_segment(plan, 1, 0) == 1

    def test_cycles_with_period(self):
        plan = build_plan(_video(60), 5)
        for t in (0, 3 * MIN, 12 * MIN, 55 * MIN):
            a = current_segment(plan, 1, t)
            assert current_segment(plan, 1, t + plan.cycle_ms) == a
            assert current_segment(plan, 1, t + 3 * plan.cycle_ms) == a

    def test_before_channel_start(self):
        plan = build_plan(_video(60), 5)
        with pytest.raises(BeforeStartError):
            current_segment(plan, 3, 12 * MIN)  # channel 3 starts at 24 min

    def test_channel_out_of_range(self):
        plan = build_plan(_video(60), 5)
        with pytest.raises(ValueError):
            current_segment(plan, 6, 0)


class TestSlotFunctionsAgree:
    """``next_first_segment_start`` and ``classify_arrival`` describe one slot position."""

    @pytest.mark.parametrize(
        "plan",
        [
            build_plan(_video(1), 3),
            BroadcastPlan(video_id=1, channels=4, segment_duration_ms=7, epoch_ms=5),
        ],
        ids=["1min-3ch", "7ms-4ch-epoch5"],
    )
    def test_every_ms_of_two_cycles(self, plan):
        d, k = plan.segment_duration_ms, plan.channels
        for t in range(plan.epoch_ms, plan.epoch_ms + 2 * plan.cycle_ms):
            cls = classify_arrival(plan, t)
            channel, wait = next_first_segment_start(plan, t)
            assert (wait == 0) == cls.on_time, t
            if not cls.on_time:
                assert wait == d - cls.missed_ms, t
                assert channel == cls.channel % k + 1, t


class TestMeanWait:
    def test_closed_form_over_one_cycle(self):
        # Averaging the wait over every ms offset in one segment gives
        # (D-1)/2 on the integer grid; the continuous-time value is D/2.
        plan = build_plan(_video(60), 5)
        d = plan.segment_duration_ms
        total = sum((d - (s % d)) % d for s in range(d))
        assert total / d == (d - 1) / 2

    def test_mean_wait_near_half_segment_for_uniform_draws(self):
        plan = build_plan(_video(60), 5)
        d = plan.segment_duration_ms
        rng = np.random.Generator(np.random.PCG64(1234))
        ts = rng.integers(0, 10 * plan.cycle_ms, size=100_000)
        waits = [next_first_segment_start(plan, int(t))[1] for t in ts]
        assert np.mean(waits) == pytest.approx(d / 2, rel=0.01)
