"""Event loop, client lifecycle, buffers, queues, and run-level metrics."""

import dataclasses
import heapq
import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sbvod import balancer
from sbvod.analytic import erlang_b
from sbvod.caching import SchemeId, SourceKind
from sbvod.domain import MS_PER_MINUTE, SimConfig, validate_config
from sbvod.engine import (
    ClientState,
    Simulation,
    SimulationError,
    StreamPool,
    classify_arrival,
    run_simulation,
)
from sbvod.sb_scheduler import build_plan

MIN = MS_PER_MINUTE


def short_cfg(**overrides):
    base = dict(horizon_minutes=90.0, warmup_minutes=10.0, seed=11)
    base.update(overrides)
    return SimConfig(**base)


class TestClassifyArrival:
    def test_at_epoch_is_on_time(self):
        cls = classify_arrival(build_plan(60, 5), 0)
        assert cls.on_time and cls.missed_ms == 0

    def test_five_minutes_in_is_late_on_channel_one(self):
        # Channel 1 opened segment 1 at 0; channel 2 opens it at 12 min.
        cls = classify_arrival(build_plan(60, 5), 5 * MIN)
        assert not cls.on_time
        assert cls.missed_ms == 5 * MIN
        assert cls.wait_ms == 7 * MIN

    def test_slot_boundary_is_on_time_next_channel(self):
        cls = classify_arrival(build_plan(60, 5), 12 * MIN)
        assert cls.on_time and cls.wait_ms == 0


class TestStreamPool:
    def test_idle_pool_has_no_wait(self):
        pool = StreamPool(2)
        assert pool.projected_wait(0) == 0

    def test_wait_is_next_completion_when_full(self):
        pool = StreamPool(2)
        pool.admit(0, 400)
        pool.admit(0, 900)
        assert pool.projected_wait(100) == 300

    def test_completion_frees_slot(self):
        pool = StreamPool(1)
        pool.admit(0, 400)
        assert pool.projected_wait(400) == 0

    def test_fifo_projection_stacks_pending_holds(self):
        pool = StreamPool(1)
        pool.admit(0, 1000)
        pool.enqueue(7, 500)  # will run 1000..1500
        assert pool.projected_wait(0) == 1500

    def test_admit_past_capacity_is_a_fault(self):
        pool = StreamPool(1)
        pool.admit(0, 100)
        with pytest.raises(SimulationError):
            pool.admit(0, 200)

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            StreamPool(0)

    def test_enqueue_with_a_free_slot_is_a_fault(self):
        pool = StreamPool(2)
        pool.admit(0, 100)
        with pytest.raises(SimulationError):
            pool.enqueue(7, 500)

    def test_huge_capacity_allocates_nothing_per_slot(self):
        tracemalloc.start()
        try:
            pool = StreamPool(10**12)
            for t in range(0, 20_000, 10):
                assert pool.projected_wait(t) == 0
                pool.admit(t, t + 35)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class _ReplayPool:
    """The pool as first written: busy end times, and every queued hold
    replayed on each query. The reference that StreamPool must agree with."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._busy = []
        self._pending = deque()

    def _prune(self, now_ms):
        while self._busy and self._busy[0] <= now_ms:
            heapq.heappop(self._busy)

    def projected_wait(self, now_ms):
        self._prune(now_ms)
        if not self._pending and len(self._busy) < self.capacity:
            return 0
        avail = [now_ms] * (self.capacity - len(self._busy)) + list(self._busy)
        heapq.heapify(avail)
        for _cid, hold in self._pending:
            start = heapq.heappop(avail)
            heapq.heappush(avail, start + hold)
        return max(0, heapq.heappop(avail) - now_ms)

    def admit(self, now_ms, end_ms):
        self._prune(now_ms)
        assert len(self._busy) < self.capacity, "reference pool admitted past capacity"
        heapq.heappush(self._busy, end_ms)

    def enqueue(self, client_id, hold_ms):
        self._pending.append((client_id, hold_ms))

    def pop_pending(self):
        return self._pending.popleft()


def _agree_with_replay(seed: int, steps: int) -> int:
    """Drive both pools the way the engine does; returns the queued-job count.

    Each arrival asks for the projected wait, then is refused, admitted at
    once, or queued with its grant scheduled at the promised instant. A
    grant due at the arrival's own ms is delivered before or after it at
    random, as the event heap's sequence order may have it.
    """
    rng = random.Random(seed)
    capacity = rng.randint(1, 4)
    pool, ref = StreamPool(capacity), _ReplayPool(capacity)
    grants: list[tuple[int, int, int, int]] = []  # (grant_ms, seq, client_id, hold_ms)
    now = queued = 0

    def deliver(grant_ms, cid, hold):
        assert pool.pop_pending() == cid
        assert ref.pop_pending()[0] == cid
        ref.admit(grant_ms, grant_ms + hold)

    for cid in range(steps):
        now += rng.choice((0, 0, rng.randint(1, 300)))
        while grants and (grants[0][0] < now or (grants[0][0] == now and rng.random() < 0.5)):
            grant_ms, _seq, gid, hold = heapq.heappop(grants)
            deliver(grant_ms, gid, hold)
        wait = pool.projected_wait(now)
        assert wait == ref.projected_wait(now), (seed, cid)
        hold = rng.randint(1, 600)
        if wait > rng.randint(0, 1500):
            continue  # refused: past the next broadcast slot
        if wait == 0:
            pool.admit(now, now + hold)
            ref.admit(now, now + hold)
        else:
            pool.enqueue(cid, hold)
            ref.enqueue(cid, hold)
            heapq.heappush(grants, (now + wait, cid, cid, hold))
            queued += 1
    while grants:
        grant_ms, _seq, gid, hold = heapq.heappop(grants)
        deliver(grant_ms, gid, hold)
    return queued


def test_stream_pool_matches_replay_reference():
    queued = sum(_agree_with_replay(seed, 300) for seed in range(300))
    assert queued > 10_000  # the queue path is exercised, not just idle admits


# Loss mode at load 8 on 10 slots. Holds average 10**6 ms, so rounding
# arrivals and holds to whole ms shifts the load by a negligible share.
_LOSS_SERVERS, _LOSS_LOAD, _LOSS_HOLD_MS = 10, 8.0, 1e6
_HOLD_LAWS = {
    "exponential": lambda g, n: g.exponential(_LOSS_HOLD_MS, n),
    "deterministic": lambda g, n: np.full(n, _LOSS_HOLD_MS),
    "lognormal": lambda g, n: g.lognormal(math.log(_LOSS_HOLD_MS) - 0.5, 1.0, n),
}


@pytest.mark.parametrize("law", sorted(_HOLD_LAWS))
def test_loss_mode_pool_blocks_at_erlang_b(law):
    # Refusing whenever a wait would be projected turns the pool into an
    # M/G/c/c loss system, whose blocking is Erlang B for any hold law.
    n, batches = 200_000, 20
    g = np.random.Generator(np.random.PCG64(2024))
    gaps = np.rint(g.exponential(_LOSS_HOLD_MS / _LOSS_LOAD, n)).astype(np.int64).tolist()
    holds = np.rint(_HOLD_LAWS[law](g, n)).astype(np.int64).tolist()
    pool = StreamPool(_LOSS_SERVERS)
    refused, t = [], 0
    for gap, hold in zip(gaps, holds):
        t += gap
        blocked = pool.projected_wait(t) > 0
        if not blocked:
            pool.admit(t, t + hold)
        refused.append(blocked)
    size = n // batches
    means = [sum(refused[i * size:(i + 1) * size]) / size for i in range(batches)]
    mean = sum(means) / batches
    sd = math.sqrt(sum((m - mean) ** 2 for m in means) / (batches - 1))
    half_width = 2.861 * sd / math.sqrt(batches)  # Student t, 99%, 19 degrees of freedom
    assert half_width < 0.01
    assert abs(mean - erlang_b(_LOSS_LOAD, _LOSS_SERVERS)) <= half_width, (mean, half_width)


class TestSimulationLifecycle:
    def test_invalid_config_is_a_fault(self):
        bad = dataclasses.replace(SimConfig(), channels=0)
        with pytest.raises(SimulationError, match="invalid config"):
            Simulation(bad, SchemeId.NO_CACHE)

    def test_fresh_simulation_has_no_clients(self):
        sim = Simulation(short_cfg(), SchemeId.NO_CACHE)
        assert sim.clients == {}

    def test_one_arrival_one_present_client(self):
        sim = Simulation(short_cfg(), SchemeId.NO_CACHE)
        sim._schedule_next_arrival(from_ms=0)
        assert sim.step()
        assert len(sim.clients) == 1

    def test_one_world_view_per_run_follows_the_clock(self):
        sim = Simulation(short_cfg(), SchemeId.PROXY_CACHE)
        sim._schedule_next_arrival(from_ms=0)
        view = sim.world_view()
        for _ in range(30):
            assert sim.step()
            assert sim.world_view() is view
            assert view.now_ms == sim.now
        assert sim.now > 0

    def test_setup_does_not_grow_with_the_catalog(self):
        # The largest catalog that validates. Building a catalog entry and a
        # free-holder grid per video held about 65 MB before the first event.
        cfg = SimConfig(num_videos=10**5, consumption_rate_mbps=1e-4, horizon_minutes=5,
                        warmup_minutes=0)
        tracemalloc.start()
        try:
            sim = Simulation(cfg, SchemeId.ALL_CACHE)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 10 * 2**20
        report = sim.run()
        assert report.arrivals > 0
        assert set(sim.free_holders) <= set(range(1, cfg.num_videos + 1))


class TestRunMetrics:
    def test_determinism_bitwise(self):
        cfg = short_cfg(seed=21)
        for scheme in SchemeId:
            assert run_simulation(cfg, scheme) == run_simulation(cfg, scheme)

    def test_seed_changes_the_run(self):
        a = run_simulation(short_cfg(seed=1), SchemeId.NO_CACHE)
        b = run_simulation(short_cfg(seed=2), SchemeId.NO_CACHE)
        assert a != b

    def test_conservation_and_full_drain(self):
        sim = Simulation(short_cfg(seed=8), SchemeId.DSC_CACHE)
        report = sim.run()
        assert sim.arrived == sim.departed
        assert not sim.clients
        assert report.arrivals <= sim.arrived

    def test_empty_report_when_horizon_equals_warmup(self):
        cfg = short_cfg(horizon_minutes=30.0, warmup_minutes=30.0)
        report = run_simulation(cfg, SchemeId.NO_CACHE)
        assert report.empty
        assert report.arrivals == 0
        assert report.mean_startup_delay_ms is None
        assert report.failure_probability is None

    def test_no_cache_makes_no_attempts(self):
        report = run_simulation(short_cfg(), SchemeId.NO_CACHE)
        assert report.attempts == 0
        assert report.failures == 0
        assert report.failure_probability == 0.0
        assert report.outcome_counts["channel_slot"] == report.arrivals

    def test_outcome_histogram_totals_arrivals(self):
        for scheme in SchemeId:
            report = run_simulation(short_cfg(seed=17), scheme)
            assert sum(report.outcome_counts.values()) == report.arrivals

    def test_proxy_balances_and_releases_every_grant(self):
        sim = Simulation(short_cfg(seed=9), SchemeId.PROXY_CACHE)
        report = sim.run()
        # All grants were released by drain time.
        for entry in sim.lps_table.entries:
            assert entry.request_count == 0
            assert entry.client_ids == set()
        counted = sum(report.lps_requests.values())
        assert counted == report.outcome_counts["lps"]
        # Grants are only ever handed to proxies that exist in the table.
        known = {entry.lps_id for entry in sim.lps_table.entries}
        assert set(report.lps_requests) <= known

    def test_per_proxy_counts_match_post_warmup_grants(self, monkeypatch):
        # Two streams per proxy at 10 arrivals/min: jobs queue, and a few are refused.
        cfg = short_cfg(num_lps=3, lps_capacity=2, arrival_rate_per_min=10.0,
                        horizon_minutes=120.0, warmup_minutes=30.0, seed=5)
        sim = Simulation(cfg, SchemeId.PROXY_CACHE)
        grants = {i: 0 for i in range(1, cfg.num_lps + 1)}
        queued = 0
        record = balancer.record_request

        def counting(table, lps_id, client_id):
            nonlocal queued
            c = sim.clients[int(client_id[1:])]
            if c.arrival_ms > cfg.warmup_ms:
                grants[lps_id] += 1
                queued += sim.now > c.arrival_ms
            return record(table, lps_id, client_id)

        monkeypatch.setattr(balancer, "record_request", counting)
        report = sim.run()
        assert report.lps_requests == grants == {1: 440, 2: 279, 3: 167}
        assert queued > 0 and report.failures > 0

    def test_mean_delay_is_positive_for_late_heavy_runs(self):
        report = run_simulation(short_cfg(seed=2), SchemeId.NO_CACHE)
        assert report.mean_startup_delay_ms > 0
        assert 0 < report.mean_startup_delay_ms < 12 * MIN

    def test_trace_lines_written(self, tmp_path):
        out = tmp_path / "trace.txt"
        with out.open("w", encoding="utf-8") as fh:
            run_simulation(short_cfg(horizon_minutes=40.0), SchemeId.NO_CACHE, trace=fh)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert any("arrival" in ln for ln in lines)
        assert any("departure" in ln for ln in lines)


class TestHolderExclusivity:
    def test_uploads_never_overlap(self):
        # Walk an all-cache run event by event; whenever a fetch is in
        # flight its holder must be flagged, and flags must clear by drain.
        sim = Simulation(short_cfg(seed=14, arrival_rate_per_min=10.0), SchemeId.ALL_CACHE)
        sim._schedule_next_arrival(from_ms=0)
        while sim.step():
            fetching = [
                c for c in sim.clients.values()
                if c.state is ClientState.FETCHING_FIRST
                and c.fetch.source_kind in (SourceKind.NEIGHBOR, SourceKind.RELAY)
            ]
            holders_in_use = [c.fetch.holder_id for c in fetching]
            assert len(holders_in_use) == len(set(holders_in_use))
            for hid in holders_in_use:
                if hid in sim.clients:
                    assert sim.clients[hid].uploading
        assert all(not c.uploading for c in sim.clients.values())


def _grid_ids(grid):
    ids = [cid for cell in grid._cells.values() for cid in cell]
    assert len(ids) == len(set(ids)), "a client is in one free-holder grid twice"
    return set(ids)


@pytest.mark.parametrize("scheme", [SchemeId.ALL_CACHE, SchemeId.RANDOM_CACHE, SchemeId.DSC_CACHE])
def test_free_holder_grids_track_eligible_holders(scheme):
    # Two-minute videos on one channel over a link just wide enough for
    # seven of them: fetches last up to a seventh of the video, so holders
    # near the end of playback would leave mid-upload if the search did not
    # skip them.
    cfg = SimConfig(num_videos=7, channels=1, video_length_minutes=2, bandwidth_mbps=10.5,
                    lf_radius_m=75.0, arrival_rate_per_min=10.0, horizon_minutes=30.0,
                    warmup_minutes=5.0, seed=2)
    sim = Simulation(cfg, scheme)
    sim._schedule_next_arrival(from_ms=0)
    while sim._heap:
        _t, _seq, handler, cid = sim._heap[0]
        if handler.__func__ is Simulation._on_departure:
            assert not sim.clients[cid].uploading, (sim.now, cid)
        sim.step()
        for vid, grid in sim.free_holders.items():
            want = {
                c.id for c in sim.clients.values()
                if c.video_id == vid and c.holder and not c.uploading
            }
            assert _grid_ids(grid) == want, (sim.now, vid)
    assert set(sim.free_holders) <= set(range(1, cfg.num_videos + 1))
    assert sim.report.outcome_counts["neighbor"] > 0


def _positive(max_value=None):
    return st.floats(min_value=0.0, max_value=max_value, exclude_min=True, allow_infinity=False)


@st.composite
def _valid_configs(draw):
    """Configs across everything validate_config accepts.

    Geometry, latency, pool size and rates span their whole valid ranges;
    fields that must agree with another are drawn relative to it. Only the
    fields that set how much work a run does are bounded.
    """
    channels = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8)))  # all divide 60000 ms
    num_videos = draw(st.integers(1, 5))
    bandwidth = draw(_positive())
    client_range = draw(_positive(2.0**509))
    # Up to rate x horizon clients can crowd one grid cell. Searches scan
    # only the free holders of the wanted video, so the crowd costs a run
    # little, but the horizon still bounds how many clients it creates.
    horizon = draw(_positive(15.0))
    return SimConfig(
        bandwidth_mbps=bandwidth,
        channels=channels,
        video_length_minutes=draw(st.integers(1, 120)),
        consumption_rate_mbps=bandwidth / (channels * num_videos) * draw(_positive(1.0)),
        arrival_rate_per_min=draw(_positive(30.0)),
        num_videos=num_videos,
        num_lps=draw(st.integers(1, 4)),
        lps_capacity=draw(st.integers(1, 10**12)),
        lf_radius_m=client_range * draw(_positive(2.0**52)),
        client_range_m=client_range,
        msg_latency_ms=draw(st.integers(0, 2**53)),
        random_cache_prob=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
        horizon_minutes=horizon,
        warmup_minutes=horizon * draw(st.floats(0.0, 1.0)),
    )


@given(_valid_configs())
@example(SimConfig(arrival_rate_per_min=1e-305, horizon_minutes=20.0, warmup_minutes=5.0))
@example(SimConfig(client_range_m=5e-324, horizon_minutes=20.0, warmup_minutes=5.0))
@example(SimConfig(client_range_m=1e200, horizon_minutes=20.0, warmup_minutes=5.0))
@example(SimConfig(msg_latency_ms=10**400, horizon_minutes=20.0, warmup_minutes=5.0))
@example(SimConfig(horizon_minutes=1e305))
@example(SimConfig(video_length_minutes=10**400, horizon_minutes=20.0, warmup_minutes=5.0))
@example(SimConfig(channels=10**400, horizon_minutes=20.0, warmup_minutes=5.0))
@example(SimConfig(num_videos=10**400, horizon_minutes=20.0, warmup_minutes=5.0))
# 290 clients in one grid cell, none of them a holder before the first slot.
@example(SimConfig(client_range_m=6.6e16, lf_radius_m=6.5e-307, arrival_rate_per_min=24.8,
                   horizon_minutes=11.8, warmup_minutes=0.0))
@settings(max_examples=100, deadline=None)
def test_every_valid_config_runs_to_completion(cfg):
    assume(validate_config(cfg) == [])
    for scheme in SchemeId:
        report = run_simulation(cfg, scheme)
        assert sum(report.outcome_counts.values()) == report.arrivals
