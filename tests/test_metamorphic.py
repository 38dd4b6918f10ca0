"""Whole-run metamorphic relations: pairs of configs whose runs must agree.

Each relation holds for any random stream, so it checks the simulator
without pinning a number. Most runs are short (150 minutes at 10
arrivals/min over three videos) but long enough that neighbour hits,
relays, cache retention and fallbacks all occur.
"""

from dataclasses import replace

import pytest

from sbvod.caching import SchemeId
from sbvod.domain import SimConfig
from sbvod.engine import run_simulation

SEEDS = (1, 2, 3)


def _cfg(seed: int, **overrides) -> SimConfig:
    return SimConfig(arrival_rate_per_min=10.0, num_videos=3, horizon_minutes=150.0,
                     warmup_minutes=5.0, seed=seed, **overrides)


def _counts(cfg: SimConfig, scheme: SchemeId):
    """Every count a report is built from; the scheme name is left out."""
    r = run_simulation(cfg, scheme)
    return r.delay_sum_ms, r.failures, r.outcome_counts, r.lps_requests


@pytest.mark.parametrize("seed", SEEDS)
def test_random_cache_that_keeps_every_video_is_all_cache(seed):
    # Retention draws come from their own substream, so keeping always leaves
    # every other draw, and hence the whole run, as all-cache makes it.
    cfg = _cfg(seed, random_cache_prob=1.0)
    assert _counts(cfg, SchemeId.RANDOM_CACHE) == _counts(cfg, SchemeId.ALL_CACHE)


@pytest.mark.parametrize("scheme", [SchemeId.ALL_CACHE, SchemeId.RANDOM_CACHE, SchemeId.DSC_CACHE])
@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_the_area_and_the_radio_range_together_changes_nothing(seed, scheme):
    # A power-of-two factor scales every position and distance exactly, so
    # each range test, and the grid cell each client falls in, is unchanged.
    base = _cfg(seed)
    want = _counts(base, scheme)
    for factor in (2.0, 0.5, 2.0**40):
        scaled = replace(base, lf_radius_m=base.lf_radius_m * factor,
                         client_range_m=base.client_range_m * factor)
        assert _counts(scaled, scheme) == want, f"x{factor:g}"


@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_one_proxy_with_no_latency_is_the_forwarder(seed, capacity):
    # With no hop cost the proxy's extra hop is free, and the one proxy's
    # pool queues and refuses exactly as the forwarder's does.
    cfg = _cfg(seed, msg_latency_ms=0, num_lps=1, lps_capacity=capacity)
    proxy = run_simulation(cfg, SchemeId.PROXY_CACHE)
    por = run_simulation(cfg, SchemeId.POR_CACHE)
    assert (proxy.delay_sum_ms, proxy.failures, proxy.attempts) == (por.delay_sum_ms, por.failures, por.attempts)
    assert proxy.outcome_counts["lps"] == por.outcome_counts["por"]
    assert por.failures > 0  # refusals happen, so the pools are exercised


@pytest.mark.parametrize("seed", SEEDS)
def test_a_proxy_fetch_costs_one_hop_more_than_the_forwarder(seed):
    # A zero latency hides hop counts, so this twin keeps it. Pools that never
    # fill leave only the hops to differ: a proxy fetch pays one latency more.
    cfg = _cfg(seed, lps_capacity=10**6)
    proxy = run_simulation(cfg, SchemeId.PROXY_CACHE)
    por = run_simulation(cfg, SchemeId.POR_CACHE)
    assert proxy.failures == por.failures == 0
    assert proxy.outcome_counts["lps"] == por.outcome_counts["por"] > 0
    assert proxy.delay_sum_ms == por.delay_sum_ms + cfg.msg_latency_ms * proxy.outcome_counts["lps"]


@pytest.mark.parametrize("scheme", [s for s in SchemeId if s is not SchemeId.NO_CACHE])
@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_both_rates_together_changes_nothing(seed, scheme):
    # A fetch reads only their ratio, and the channel budget only their
    # quotient; a power-of-two factor leaves both exact. No-cache reads neither.
    base = _cfg(seed)
    want = _counts(base, scheme)
    for factor in (2.0, 2.0**20):
        scaled = replace(base, bandwidth_mbps=base.bandwidth_mbps * factor,
                         consumption_rate_mbps=base.consumption_rate_mbps * factor)
        assert _counts(scaled, scheme) == want, f"x{factor:g}"


@pytest.mark.parametrize("seed", SEEDS)
def test_one_ms_segments_put_every_arrival_on_a_slot(seed):
    # With D = 1 ms a segment-1 slot opens at every integer-ms arrival, so no
    # scheme acquires anything: every run is no-cache's, with no delay at all.
    # Only this config runs the engine's on-time branch.
    cfg = SimConfig(video_length_minutes=1, channels=60000, bandwidth_mbps=1e9,
                    arrival_rate_per_min=10.0, horizon_minutes=120.0, seed=seed)
    want = _counts(cfg, SchemeId.NO_CACHE)
    for scheme in SchemeId:
        assert _counts(cfg, scheme) == want, scheme
    delay_sum_ms, failures, outcomes, _lps = want
    assert delay_sum_ms == failures == 0
    assert outcomes["channel_slot"] == sum(outcomes.values()) > 0
