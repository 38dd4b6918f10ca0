"""Capacity model: Erlang-B, greedy placement, and the stream-rate algebra.

Two independent oracles live here: a high-precision factorial-sum
evaluation of the loss formula (mpmath, 50 digits) and an exhaustive
subset search for cache placement. The shipped code must agree with
both without sharing any code path with them.
"""

import dataclasses
import itertools
import math
import random
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbvod.analytic import (
    PlacementMap,
    broadcast_analysis,
    broadcast_reserved_bits,
    dedicated_stream_analysis,
    erlang_b,
    hit_ratio,
    place_cache,
    select_broadcast_videos,
    weighted_items,
)
from sbvod.domain import QualityLevel, SimConfig, VideoSpec, catalog_from_config, zipf_popularity


def erlang_b_oracle(load, servers):
    """Direct finite-sum evaluation of (a^N/N!) / sum(a^z/z!) at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(load)
        total = mpmath.mpf(0)
        term = mpmath.mpf(1)  # a^0 / 0!
        for z in range(servers + 1):
            if z > 0:
                term = term * a / z
            total += term
        return float(term / total)


def make_videos(weights, sizes=None, rates=None, length_min=60):
    """One single-quality video per weight; weights are popularities."""
    total = sum(weights)
    out = []
    for i, w in enumerate(weights, start=1):
        size = sizes[i - 1] if sizes else 1.0e9
        rate = rates[i - 1] if rates else 1.5e6
        out.append(
            VideoSpec(
                id=i,
                length_minutes=length_min,
                consumption_rate_mbps=1.5,
                popularity=w / total,
                qualities=(
                    QualityLevel(q_index=1, stream_rate_bps=rate, size_bits=size, request_prob=1.0),
                ),
            )
        )
    return tuple(out)


class TestErlangB:
    def test_spot_values(self):
        assert erlang_b(1.0, 1) == pytest.approx(0.5, abs=1e-15)
        assert erlang_b(1.0, 2) == pytest.approx(0.2, abs=1e-15)

    def test_zero_servers_blocks_everything(self):
        assert erlang_b(3.7, 0) == 1.0
        assert erlang_b(0.0, 0) == 1.0

    def test_zero_load_never_blocks(self):
        assert erlang_b(0.0, 4) == 0.0

    def test_matches_factorial_sum_oracle(self):
        for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            for n in (1, 2, 3, 7, 20, 50, 100):
                got = erlang_b(a, n)
                want = erlang_b_oracle(a, n)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_monotone_in_load_and_servers(self):
        for n in (1, 5, 20):
            vals = [erlang_b(a, n) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
            assert vals == sorted(vals)
        for a in (1.0, 10.0):
            vals = [erlang_b(a, n) for n in (0, 1, 2, 5, 10, 40)]
            assert vals == sorted(vals, reverse=True)

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            erlang_b(-1.0, 3)
        with pytest.raises(ValueError):
            erlang_b(1.0, -3)
        with pytest.raises(ValueError, match="offered_load must be non-negative"):
            erlang_b(math.nan, 5)


def brute_force_best_hit(videos, capacity):
    """Max hit ratio over every feasible subset of (video, quality) items."""
    items = list(weighted_items(videos))
    best = 0.0
    for mask in itertools.product((0, 1), repeat=len(items)):
        size = math.fsum(q.size_bits for (v, q, w), m in zip(items, mask) if m)
        if size <= capacity:
            best = max(best, math.fsum(w for (v, q, w), m in zip(items, mask) if m))
    return best


class TestPlaceCache:
    def test_equal_size_worked_example(self):
        videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 10.0, 10.0])
        placement = place_cache(videos, 20.0)
        assert placement.is_cached(1, 1)
        assert placement.is_cached(2, 1)
        assert not placement.is_cached(3, 1)

    def test_zero_capacity(self):
        videos = make_videos([0.5, 0.5])
        placement = place_cache(videos, 0.0)
        assert placement.cached == set()

    def test_full_capacity(self):
        videos = make_videos([0.5, 0.5], sizes=[8.0, 8.0])
        placement = place_cache(videos, 16.0)
        assert placement.cached == {(1, 1), (2, 1)}

    def test_skip_and_continue_lets_smaller_item_in(self):
        # The runner-up is too large; the scan keeps going and caches the
        # third item instead of stopping at the first miss.
        videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 50.0, 10.0])
        placement = place_cache(videos, 20.0)
        assert placement.is_cached(1, 1)
        assert not placement.is_cached(2, 1)
        assert placement.is_cached(3, 1)

    def test_capacity_constraint_always_respected(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            videos = make_videos(
                [rng.uniform(0.1, 1.0) for _ in range(n)],
                sizes=[rng.choice([5.0, 10.0, 25.0]) for _ in range(n)],
            )
            cap = rng.uniform(0.0, 60.0)
            placement = place_cache(videos, cap)
            used = sum(
                q.size_bits for v, q, w in weighted_items(videos) if placement.is_cached(v.id, q.q_index)
            )
            assert used <= cap + 1e-9

    def test_matches_brute_force_on_equal_sizes(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(1, 8)
            videos = make_videos([rng.uniform(0.05, 1.0) for _ in range(n)], sizes=[10.0] * n)
            cap = rng.choice([0.0, 10.0, 15.0, 20.0, 45.0, 10.0 * n])
            placement = place_cache(videos, cap)
            assert hit_ratio(videos, placement) == pytest.approx(
                brute_force_best_hit(videos, cap), abs=1e-12
            )

    def test_hit_ratio_monotone_in_capacity(self):
        videos = make_videos([0.4, 0.3, 0.2, 0.1], sizes=[10.0, 20.0, 5.0, 40.0])
        prev = -1.0
        for cap in (0.0, 5.0, 10.0, 20.0, 35.0, 75.0):
            h = hit_ratio(videos, place_cache(videos, cap))
            assert h >= prev
            prev = h


class TestHitRatio:
    def test_all_and_none(self):
        videos = make_videos([0.6, 0.4])
        everything = place_cache(videos, 1e18)
        nothing = place_cache(videos, 0.0)
        assert hit_ratio(videos, everything) == pytest.approx(1.0)
        assert hit_ratio(videos, nothing) == 0.0

    def test_empty_sums_are_float_zeros(self):
        # A report field that is a float must read 0.0, not the int 0,
        # when nothing is cached or broadcast.
        videos = make_videos([0.6, 0.4])
        nothing = place_cache(videos, 0.0)
        assert type(hit_ratio(videos, nothing)) is float
        for analysis in (dedicated_stream_analysis, broadcast_analysis):
            report = analysis(videos, nothing, 0.1, 54e6, 60.0)
            assert type(report.hit_ratio) is float
            assert type(report.broadcast_bandwidth) is float

    def test_whole_zipf_catalog_cached_is_at_most_one(self):
        # The rounded 1/rank shares of some catalogs (1,674 videos is the
        # first) sum a hair past 1. Stand-ins carry the fields hit_ratio
        # reads, since building 2,000 real catalogs takes seconds.
        quality = catalog_from_config(SimConfig())[0].qualities
        everything = PlacementMap(cached={(k, 1) for k in range(1, 2001)})
        for n in range(1, 2001):
            videos = [SimpleNamespace(id=k, popularity=p, qualities=quality)
                      for k, p in enumerate(zipf_popularity(n), start=1)]
            assert hit_ratio(videos, everything) <= 1.0, n
        report = dedicated_stream_analysis(catalog_from_config(SimConfig(num_videos=1674)),
                                           everything, 0.1, 54e6, 60.0)
        assert report.hit_ratio == 1.0

    def test_partial(self):
        videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 10.0, 10.0])
        placement = place_cache(videos, 10.0)
        assert hit_ratio(videos, placement) == pytest.approx(0.5)


class TestDedicatedStreams:
    def test_everything_cached_degenerates(self):
        videos = make_videos([1.0])
        placement = place_cache(videos, 1e18)
        rep = dedicated_stream_analysis(videos, placement, 0.1, 54e6, 60.0)
        assert rep.lambda_dedicated == 0.0
        assert rep.overall_blocking == 0.0
        assert rep.supported_streams == 0

    def test_nothing_cached_single_video(self):
        videos = make_videos([1.0])
        placement = place_cache(videos, 0.0)
        rep = dedicated_stream_analysis(videos, placement, 0.1, 54e6, 60.0)
        assert rep.lambda_dedicated == pytest.approx(0.1)
        assert rep.avg_stream_rate == pytest.approx(1.5e6)
        assert rep.supported_streams == 36

    def test_miss_rate_with_partial_cache(self):
        videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 10.0, 10.0])
        placement = place_cache(videos, 10.0)  # only the .5 item fits
        rep = dedicated_stream_analysis(videos, placement, 1.0, 54e6, 60.0)
        assert rep.lambda_dedicated == pytest.approx(0.5)

    def test_overall_blocking_identity(self):
        videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 10.0, 10.0])
        placement = place_cache(videos, 10.0)
        rep = dedicated_stream_analysis(videos, placement, 0.05, 9e6, 60.0)
        assert 0.0 <= rep.overall_blocking <= rep.blocking_prob <= 1.0
        assert rep.overall_blocking == pytest.approx(
            rep.blocking_prob * rep.lambda_dedicated / 0.05, rel=1e-12
        )

    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_blocking_identity_property(self, weights, cached_count, lam):
        videos = make_videos(weights, sizes=[10.0] * len(weights))
        placement = place_cache(videos, 10.0 * min(cached_count, len(weights)))
        rep = dedicated_stream_analysis(videos, placement, lam, 54e6, 60.0)
        assert rep.overall_blocking == pytest.approx(
            rep.blocking_prob * rep.lambda_dedicated / lam, rel=1e-9, abs=1e-15
        )


class TestBroadcastSelection:
    def test_zero_reservation_flags_nothing(self):
        videos = make_videos([0.6, 0.4])
        placement = select_broadcast_videos(videos, place_cache(videos, 0.0), 0.0, 1)
        assert placement.broadcast == set()

    def test_ample_reservation_flags_all_non_cached(self):
        videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 10.0, 10.0])
        placement = place_cache(videos, 10.0)
        out = select_broadcast_videos(videos, placement, 1e12, 2)
        for v, q, _w in weighted_items(videos):
            if not out.is_cached(v.id, q.q_index):
                assert out.is_broadcast(v.id, q.q_index)

    def test_budget_worked_example(self):
        # Popularity favors the 2-Mbps item; with two replay channels its
        # cost is 4 Mbps which fits the 4.5 Mbps budget, and the 1-Mbps
        # item would need 2 more.
        videos = make_videos([0.7, 0.3], rates=[2.0e6, 1.0e6])
        placement = place_cache(videos, 0.0)
        out = select_broadcast_videos(videos, placement, 4.5e6, 2)
        assert out.is_broadcast(1, 1)
        assert not out.is_broadcast(2, 1)
        assert broadcast_reserved_bits(videos, out) == pytest.approx(4.0e6)

    def test_does_not_touch_cached_flags(self):
        videos = make_videos([0.5, 0.5], sizes=[10.0, 10.0])
        placement = place_cache(videos, 10.0)
        out = select_broadcast_videos(videos, placement, 1e12, 1)
        assert out.cached == placement.cached == {(1, 1)}
        assert out.cached is not placement.cached
        assert out.broadcast == {(2, 1)} and placement.broadcast == set()


class TestBroadcastAnalysis:
    def test_empty_selection_reproduces_dedicated_analysis(self):
        videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 10.0, 10.0])
        placement = place_cache(videos, 10.0)
        empty_x = select_broadcast_videos(videos, placement, 0.0, 1)
        a = dedicated_stream_analysis(videos, placement, 0.2, 54e6, 60.0)
        b = broadcast_analysis(videos, empty_x, 0.2, 54e6, 60.0)
        assert a == b

    def test_served_weight_split(self):
        # .5 cached, .3 broadcast, .2 rides the dedicated link.
        videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 10.0, 10.0])
        placement = place_cache(videos, 10.0)
        out = select_broadcast_videos(videos, placement, 1.5e6 * 1, 1)
        assert out.is_broadcast(2, 1) and not out.is_broadcast(3, 1)
        rep = broadcast_analysis(videos, out, 1.0, 54e6, 60.0)
        assert rep.lambda_broadcast == pytest.approx(0.2)
        assert rep.broadcast_bandwidth == pytest.approx(1.5e6)

    def test_full_coverage_goes_degenerate(self):
        videos = make_videos([0.5, 0.5], sizes=[10.0, 10.0])
        placement = place_cache(videos, 10.0)
        out = select_broadcast_videos(videos, placement, 1e12, 1)
        rep = broadcast_analysis(videos, out, 1.0, 54e6, 60.0)
        assert rep.lambda_broadcast == 0.0
        assert rep.blocking_prob == 0.0

    def test_reservation_shrinks_dedicated_capacity(self):
        videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 10.0, 10.0])
        placement = place_cache(videos, 0.0)
        none_x = select_broadcast_videos(videos, placement, 0.0, 1)
        some_x = select_broadcast_videos(videos, placement, 1.5e6, 1)
        a = broadcast_analysis(videos, none_x, 1.0, 54e6, 60.0)
        b = broadcast_analysis(videos, some_x, 1.0, 54e6, 60.0)
        assert b.dedicated_capacity < a.dedicated_capacity
        assert b.lambda_broadcast < a.lambda_broadcast

    def test_oversized_reservation_rejected(self):
        videos = make_videos([1.0], rates=[2.0e6])
        placement = place_cache(videos, 0.0)
        out = select_broadcast_videos(videos, placement, 1e9, 1)
        with pytest.raises(ValueError, match="exceeds the link bandwidth"):
            broadcast_analysis(videos, out, 1.0, 1e6, 60.0)


def _field_reprs(report):
    """Each report field by name, as a repr, so 0 and 0.0 or a last-bit change differ."""
    return {f.name: repr(getattr(report, f.name)) for f in dataclasses.fields(report)}


class TestSharedReportBody:
    _VIDEOS = make_videos([0.4, 0.3, 0.2, 0.1], sizes=[10.0] * 4, rates=[1.5e6, 2e6, 1e6, 3e6])

    @pytest.mark.parametrize("cache_bits", [0.0, 10.0, 20.0, 40.0])
    def test_dedicated_ignores_broadcast_flags(self, cache_bits):
        placement = place_cache(self._VIDEOS, cache_bits)
        flagged = select_broadcast_videos(self._VIDEOS, placement, 4e6, 2)
        plain = PlacementMap(cached=flagged.cached)
        assert flagged.broadcast or cache_bits == 40.0
        assert _field_reprs(dedicated_stream_analysis(self._VIDEOS, flagged, 0.5, 20e6, 60.0)) == (
            _field_reprs(dedicated_stream_analysis(self._VIDEOS, plain, 0.5, 20e6, 60.0))
        )

    @pytest.mark.parametrize("cache_bits", [0.0, 10.0, 20.0, 40.0])
    @pytest.mark.parametrize("lps_channels", [1, 3])
    def test_nothing_replayed_matches_dedicated(self, cache_bits, lps_channels):
        placement = place_cache(self._VIDEOS, cache_bits)
        empty = select_broadcast_videos(self._VIDEOS, placement, 0.0, lps_channels)
        # Flags on cached items replay nothing either.
        cached_flags = PlacementMap(cached=placement.cached, broadcast=set(placement.cached),
                                    lps_channels=lps_channels)
        expected = _field_reprs(dedicated_stream_analysis(self._VIDEOS, placement, 0.5, 20e6, 60.0))
        for p in (empty, cached_flags):
            assert broadcast_reserved_bits(self._VIDEOS, p) == 0.0
            assert _field_reprs(broadcast_analysis(self._VIDEOS, p, 0.5, 20e6, 60.0)) == expected


class TestWeightedItems:
    def test_weights_multiply_popularity_and_request_prob(self):
        q1 = QualityLevel(q_index=1, stream_rate_bps=1e6, size_bits=1e9, request_prob=0.75)
        q2 = QualityLevel(q_index=2, stream_rate_bps=2e6, size_bits=2e9, request_prob=0.25)
        v = VideoSpec(
            id=1, length_minutes=60, consumption_rate_mbps=1.5, popularity=0.4, qualities=(q1, q2)
        )
        got = [(q.q_index, w) for _v, q, w in weighted_items([v])]
        assert got == [(1, pytest.approx(0.3)), (2, pytest.approx(0.1))]


def test_placement_map_defaults():
    pm = PlacementMap()
    assert not pm.is_cached(1, 1)
    assert not pm.is_broadcast(1, 1)
    assert pm.lps_channels == 1


_NAN_CASES = {
    "cache-capacity": (lambda v, p: place_cache(v, math.nan), "cache_capacity_bits must be non-negative"),
    "reservation": (lambda v, p: select_broadcast_videos(v, p, math.nan, 1),
                    "reserved_broadcast_bits must be non-negative"),
    "lps-channels": (lambda v, p: select_broadcast_videos(v, p, 0.0, math.nan),
                     "lps_channels must be at least 1"),
    "arrival-rate": (lambda v, p: dedicated_stream_analysis(v, p, math.nan, 54e6, 60.0),
                     "lambda_per_sec must be non-negative"),
    "bandwidth": (lambda v, p: dedicated_stream_analysis(v, p, 0.1, math.nan, 60.0),
                  "bandwidth_bits must be positive"),
    "service-time": (lambda v, p: broadcast_analysis(v, p, 0.1, 54e6, math.nan),
                     "mean_service_minutes must be positive"),
}


@pytest.mark.parametrize("call, message", _NAN_CASES.values(), ids=_NAN_CASES)
def test_nan_arguments_are_rejected(call, message):
    """A NaN argument fails the same check as an out-of-range one, instead of flowing into the result."""
    videos = make_videos([0.5, 0.3, 0.2], sizes=[10.0, 10.0, 10.0])
    with pytest.raises(ValueError, match=message):
        call(videos, place_cache(videos, 10.0))
