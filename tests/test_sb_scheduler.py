"""The staggered-broadcast timetable a run derives, and the channel budget.

The worked values come from enumerating the 60-minute, 5-channel
timetable by hand: segments are 12 minutes, channel i starts at
(i - 1) * 12 min, and somewhere a segment-1 slot opens every 12 minutes.
A run derives its segment and cycle from the validated config
(``engine.Simulation``), and ``engine.classify_arrival`` places each
arrival against the segment; ``test_domain`` checks the segment rule.
"""

import math
import random
import statistics
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbvod.caching import SchemeId
from sbvod.domain import MS_PER_MINUTE, SimConfig, max_channels
from sbvod.engine import Simulation, classify_arrival

MIN = MS_PER_MINUTE
# The segment of the 60-minute video on 5 channels.
D = 12 * MIN


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
        with pytest.raises(ValueError, match="positive"):
            max_channels(math.nan, 1.5, 1)


class TestBuildPlan:
    """A run's segment-1 slots and cycle, whatever its channel count."""

    def test_offsets_and_cycle(self):
        # Channel i starts segment 1 at (i - 1) * 12 min.
        sim = Simulation(SimConfig(), SchemeId.NO_CACHE)
        assert all(classify_arrival(sim.segment_ms, off * MIN).on_time for off in (0, 12, 24, 36, 48))
        assert sim.cycle_ms == 60 * MIN

    def test_single_channel_degenerate(self):
        sim = Simulation(SimConfig(video_length_minutes=30, channels=1), SchemeId.NO_CACHE)
        assert sim.segment_ms == sim.cycle_ms == 30 * MIN

    def test_plan_size_does_not_grow_with_channels(self):
        # 50 minutes on 10**6 channels: 3 ms segments. A stored offset per
        # channel would take tens of MB here, and validated channel counts
        # reach 6 * 10**10.
        def traced(channels):
            cfg = SimConfig(video_length_minutes=50, channels=channels, consumption_rate_mbps=1e-5)
            Simulation(cfg, SchemeId.NO_CACHE)  # first-use caches stay out of the peak
            tracemalloc.start()
            try:
                return Simulation(cfg, SchemeId.NO_CACHE), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, five_peak = traced(5)
        sim, peak = traced(10**6)
        assert peak <= five_peak + 1000
        assert sim.segment_ms == 3 and sim.cycle_ms == 50 * MIN
        assert classify_arrival(sim.segment_ms, (10**6 - 1) * 3).on_time

    def test_slot_sequence_across_channels(self):
        # Segment-1 slots open at 0, 12, 24, 36, 48, 60, ... minutes on
        # channels 1, 2, 3, 4, 5, 1, ...
        for k in range(12):
            assert classify_arrival(D, k * 12 * MIN).wait_ms == 0


class TestNextFirstSegmentStart:
    """The wait for the next segment-1 slot, as ``classify_arrival`` reports it."""

    def test_at_epoch(self):
        assert classify_arrival(D, 0).wait_ms == 0

    def test_five_minutes_in(self):
        assert classify_arrival(D, 5 * MIN).wait_ms == 7 * MIN

    def test_exactly_one_segment_in(self):
        assert classify_arrival(D, 12 * MIN).wait_ms == 0

    def test_arrival_class_is_an_immutable_value(self):
        arrival = classify_arrival(D, 5 * MIN)
        assert repr(arrival) == "ArrivalClass(on_time=False, missed_ms=300000, wait_ms=420000)"
        with pytest.raises(AttributeError):
            arrival.wait_ms = 0
        with pytest.raises(AttributeError):
            arrival.note = "no instance dict"

    @given(st.integers(min_value=0, max_value=10 * 60 * MIN - 1))
    def test_wait_bounded_and_lands_on_segment_one(self, t):
        wait = classify_arrival(D, t).wait_ms
        assert 0 <= wait < D
        assert classify_arrival(D, t + wait).on_time


class TestMeanWait:
    def test_closed_form_over_one_cycle(self):
        # Averaging the wait over every ms offset in one segment gives
        # (D-1)/2 on the integer grid; the continuous-time value is D/2.
        total = sum((D - (s % D)) % D for s in range(D))
        assert total / D == (D - 1) / 2

    def test_mean_wait_near_half_segment_for_uniform_draws(self):
        rng = random.Random(1234)
        waits = [classify_arrival(D, rng.randrange(10 * 60 * MIN)).wait_ms for _ in range(100_000)]
        assert statistics.fmean(waits) == pytest.approx(D / 2, rel=0.01)
