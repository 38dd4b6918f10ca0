"""Event loop, client lifecycle, buffers, queues, and run-level metrics."""

import dataclasses
import heapq
import io
import math
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sbvod import balancer, caching
from sbvod.analytic import erlang_b
from sbvod.caching import SchemeId, SourceKind
from sbvod.domain import MS_PER_MINUTE, SimConfig, validate_config
from sbvod.engine import (
    ClientRecord,
    ClientState,
    MetricsReport,
    Simulation,
    SimulationError,
    StreamPool,
    classify_arrival,
    run_simulation,
)

MIN = MS_PER_MINUTE
# The segment of the 60-minute video on 5 channels.
D = 12 * MIN


def short_cfg(**overrides):
    base = dict(horizon_minutes=90.0, warmup_minutes=10.0, seed=11)
    base.update(overrides)
    return SimConfig(**base)


class TestClassifyArrival:
    def test_at_epoch_is_on_time(self):
        cls = classify_arrival(D, 0)
        assert cls.on_time and cls.missed_ms == 0

    def test_five_minutes_in_is_late_on_channel_one(self):
        # Channel 1 opened segment 1 at 0; channel 2 opens it at 12 min.
        cls = classify_arrival(D, 5 * MIN)
        assert not cls.on_time
        assert cls.missed_ms == 5 * MIN
        assert cls.wait_ms == 7 * MIN

    def test_slot_boundary_is_on_time_next_channel(self):
        cls = classify_arrival(D, 12 * MIN)
        assert cls.on_time and cls.wait_ms == 0


class TestRunPlan:
    @pytest.mark.parametrize("fields, plan", [
        ({}, (720_000, 60 * MIN)),
        ({"video_length_minutes": 30}, (360_000, 30 * MIN)),
        # K = L * 60000 channels cut the video into 1 ms segments.
        ({"channels": 60 * MIN, "consumption_rate_mbps": 1e-5}, (1, 60 * MIN)),
    ], ids=["60-over-5", "30-over-5", "1ms-segments"])
    def test_run_splits_the_video_into_one_segment_per_channel(self, fields, plan):
        cfg = SimConfig(**fields)
        assert validate_config(cfg) == []
        sim = Simulation(cfg, SchemeId.NO_CACHE)
        assert (sim.segment_ms, sim.cycle_ms) == plan


class TestStreamPool:
    def test_idle_pool_has_no_wait(self):
        pool = StreamPool(2)
        assert pool.projected_wait(0) == 0

    def test_wait_is_next_completion_when_full(self):
        pool = StreamPool(2)
        assert pool.reserve(1, 0, 400) == pool.reserve(2, 0, 900) == 0
        assert pool.projected_wait(100) == 300

    def test_completion_frees_slot(self):
        pool = StreamPool(1)
        pool.reserve(1, 0, 400)
        assert pool.projected_wait(400) == 0
        assert pool.reserve(2, 400, 500) == 400

    def test_fifo_projection_stacks_pending_holds(self):
        pool = StreamPool(1)
        pool.reserve(1, 0, 1000)
        assert pool.reserve(7, 0, 1500) == 1000  # will run 1000..1500
        assert pool.projected_wait(0) == 1500
        assert pool.pop_pending() == 7

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            StreamPool(0)

    def test_huge_capacity_allocates_nothing_per_slot(self):
        tracemalloc.start()
        try:
            pool = StreamPool(10**12)
            for t in range(0, 20_000, 10):
                assert pool.projected_wait(t) == 0
                assert pool.reserve(0, t, t + 35) == t
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

    Each arrival asks for the projected wait, then is refused or reserves
    a slot, which must be granted at once or at the promised instant; a
    queued grant is scheduled there. A grant due at the arrival's own ms is
    delivered before or after it at random, as the event heap's sequence
    order may have it.
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
        assert pool.reserve(cid, now, now + wait + hold) == now + wait, (seed, cid)
        if wait == 0:
            ref.admit(now, now + hold)
        else:
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


@pytest.mark.parametrize("scheme", [SchemeId.POR_CACHE, SchemeId.PROXY_CACHE])
def test_pool_must_grant_at_the_promised_wait(scheme, monkeypatch):
    # Promise queued jobs 1 ms less than the pool will make them wait; the
    # engine must catch the broken promise, not run on with a wrong delay.
    true_wait = StreamPool.projected_wait
    monkeypatch.setattr(StreamPool, "projected_wait",
                        lambda pool, now_ms: max(0, true_wait(pool, now_ms) - 1))
    cfg = SimConfig(lps_capacity=2, arrival_rate_per_min=10.0, seed=1)
    with pytest.raises(SimulationError, match="not as promised"):
        run_simulation(cfg, scheme)


# Loss mode at load 8 on 10 slots. Holds average 10**6 ms, so rounding
# arrivals and holds to whole ms shifts the load by a negligible share.
_LOSS_SERVERS, _LOSS_LOAD, _LOSS_HOLD_MS = 10, 8.0, 1e6
_HOLD_LAWS = {
    "exponential": lambda g: _LOSS_HOLD_MS * -math.log(1.0 - g.random()),
    "deterministic": lambda g: _LOSS_HOLD_MS,
    "lognormal": lambda g: g.lognormvariate(math.log(_LOSS_HOLD_MS) - 0.5, 1.0),
}


@pytest.mark.parametrize("law", sorted(_HOLD_LAWS))
def test_loss_mode_pool_blocks_at_erlang_b(law):
    # Refusing whenever a wait would be projected turns the pool into an
    # M/G/c/c loss system, whose blocking is Erlang B for any hold law.
    n, batches = 200_000, 20
    g = random.Random(2024)
    mean_gap = _LOSS_HOLD_MS / _LOSS_LOAD
    gaps = [round(mean_gap * -math.log(1.0 - g.random())) for _ in range(n)]
    holds = [round(_HOLD_LAWS[law](g)) for _ in range(n)]
    pool = StreamPool(_LOSS_SERVERS)
    refused, t = [], 0
    for gap, hold in zip(gaps, holds):
        t += gap
        blocked = pool.projected_wait(t) > 0
        if not blocked:
            pool.reserve(0, t, t + hold)
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

    def test_setup_does_not_grow_with_the_catalog(self):
        # The largest catalog that validates. Building a catalog entry and a
        # holder grid per video held about 65 MB before the first event.
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
        assert set(sim.holders) <= set(range(1, cfg.num_videos + 1))


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

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_attempts_are_failures_and_non_slot_outcomes(self, scheme, monkeypatch):
        # Two streams per pool at 10 arrivals/min: por and proxy refuse some attempts.
        outcomes = []
        add = MetricsReport.add

        def recording(report, out):
            outcomes.append(out)
            add(report, out)

        monkeypatch.setattr(MetricsReport, "add", recording)
        report = run_simulation(short_cfg(arrival_rate_per_min=10.0, lps_capacity=2, horizon_minutes=60.0), scheme)
        assert len(outcomes) == report.arrivals > 0
        assert report.failures > 0 or scheme is SchemeId.NO_CACHE
        recount = sum(out.failed or out.source_kind is not SourceKind.CHANNEL_SLOT for out in outcomes)
        assert recount == report.attempts
        assert sum(out.failed for out in outcomes) == report.failures

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
                        horizon_minutes=120.0, warmup_minutes=30.0, seed=7)
        sim = Simulation(cfg, SchemeId.PROXY_CACHE)
        grants = {i: 0 for i in range(1, cfg.num_lps + 1)}
        queued = 0
        record = balancer.record_request

        def counting(table, lps_id, client_id):
            nonlocal queued
            c = sim.clients[client_id]
            if c.arrival_ms > sim.warmup_ms:
                grants[lps_id] += 1
                queued += sim.now > c.arrival_ms
            return record(table, lps_id, client_id)

        monkeypatch.setattr(balancer, "record_request", counting)
        report = sim.run()
        assert report.lps_requests == grants == {1: 464, 2: 280, 3: 163}
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

    @staticmethod
    def _late_arrival_beside_a_holder(arrival_ms):
        """Holder 1 at the origin plays from 0 to 3,600,000; client 2 arrives at ``arrival_ms``.

        Steps the arrival and returns the run, its newcomer and a trace buffer.
        """
        trace = io.StringIO()
        cfg = SimConfig(client_range_m=400.0, horizon_minutes=1.0, warmup_minutes=0.0, seed=1)
        sim = Simulation(cfg, SchemeId.ALL_CACHE, trace=trace)
        holder = ClientRecord(id=1, arrival_ms=0, position=(0.0, 0.0), video_id=1,
                              playback_start_ms=0)
        sim.clients[1] = holder
        sim.arrived = 1
        sim._begin_playback(holder)
        assert holder.playback_start_ms + sim.cycle_ms == 3_600_000
        sim._schedule(arrival_ms, sim._on_arrival)
        assert sim.step()
        return sim, sim.clients[2], trace

    def test_upload_must_end_before_its_holder_finishes_playing(self):
        # A holder serves only if its playback, and so its presence, ends
        # strictly after the transfer. 700,500 ms into a 12-minute slot, the
        # fetch takes ceil(700,500 * 1.5 / 54) = 19,459 ms after 40 ms of
        # hops: it ends at 3,580,500 + 40 + 19,459 = 3,599,999, 1 ms before
        # the holder leaves, so the holder serves it.
        sim, newcomer, trace = self._late_arrival_beside_a_holder(3_580_500)
        assert newcomer.fetch.source_kind is SourceKind.NEIGHBOR
        assert newcomer.fetch.holder_id == 1
        assert newcomer.fetch_end_ms == 3_599_999
        while sim.step():
            pass
        assert sim.arrived == sim.departed == 2 and not sim.clients
        lines = trace.getvalue().splitlines()
        assert lines.index("3599999 fetch_complete client=2") < lines.index("3600000 departure client=1")

        # 1 ms later the fetch (ceil(700,501 * 1.5 / 54) = 19,459 ms) would
        # end at 3,600,000, as the holder leaves: it is skipped, and the
        # newcomer falls back to the slot opening then.
        sim, newcomer, _trace = self._late_arrival_beside_a_holder(3_580_501)
        assert newcomer.state is ClientState.AWAITING_SLOT
        assert newcomer.playback_start_ms == 3_600_000
        assert sim.report.failures == sim.report.attempts == 1
        assert sim.report.outcome_counts["channel_slot"] == 1
        while sim.step():
            pass
        assert sim.arrived == sim.departed == 2 and not sim.clients


def _grid_ids(grid, clients):
    """The ids in ``grid``; each entry holds its client's exact position, in that position's cell."""
    ids = []
    for key, cell in grid._cells.items():
        for x, y, cid in cell:
            assert (x, y) == clients[cid].position, cid
            assert grid._key((x, y)) == key, cid
            ids.append(cid)
    assert len(ids) == len(set(ids)), "a client is in one grid twice"
    return set(ids)


_SHORT_VIDEOS_CFG = SimConfig(num_videos=7, channels=1, video_length_minutes=2, bandwidth_mbps=10.5,
                              lf_radius_m=75.0, arrival_rate_per_min=10.0, horizon_minutes=30.0,
                              warmup_minutes=5.0, seed=2)


@pytest.mark.parametrize("scheme", [SchemeId.ALL_CACHE, SchemeId.RANDOM_CACHE, SchemeId.DSC_CACHE])
def test_free_holder_grids_track_eligible_holders(scheme):
    # Each video's grid holds exactly its present holders, busy or not,
    # after every event, and under dsc the index every present client.
    # Two-minute videos on one channel over a link just wide enough for
    # seven of them: fetches last up to a seventh of the video, so holders
    # near the end of playback would leave mid-upload if the search did not
    # skip them.
    cfg = _SHORT_VIDEOS_CFG
    sim = Simulation(cfg, scheme)
    sim._schedule_next_arrival(from_ms=0)
    departures = 0
    while sim._heap or sim._departures:
        _t, _seq, handler, c = min(q[0] for q in (sim._heap, sim._departures) if q)
        if handler.__func__ is Simulation._on_departure:
            assert not c.uploading, (sim.now, c.id)
            departures += 1
        sim.step()
        # A client leaves as its playback ends, not later.
        for c in sim.clients.values():
            if c.playback_start_ms is not None:
                assert c.playback_start_ms + sim.cycle_ms >= sim.now, (sim.now, c.id)
        for vid, grid in sim.holders.items():
            want = {c.id for c in sim.clients.values() if c.video_id == vid and c.holder}
            assert _grid_ids(grid, sim.clients) == want, (sim.now, vid)
        if scheme is SchemeId.DSC_CACHE:
            assert _grid_ids(sim.index, sim.clients) == set(sim.clients), sim.now
    assert set(sim.holders) <= set(range(1, cfg.num_videos + 1))
    assert sim.report.outcome_counts["neighbor"] > 0
    assert departures == sim.departed > 0


@pytest.mark.parametrize("scheme", [s for s in SchemeId if s is not SchemeId.DSC_CACHE])
def test_only_dsc_keeps_the_all_client_index(scheme):
    # Only dsc's relay search reads the index of every present client, so
    # no other scheme builds one, and a busy run completes without it.
    sim = Simulation(short_cfg(arrival_rate_per_min=10.0, horizon_minutes=30.0), scheme)
    assert sim.index is None
    report = sim.run()
    assert report.arrivals > 100 and sim.arrived == sim.departed


def _started(cfg, scheme):
    """A run with its first arrival scheduled and no event handled yet."""
    sim = Simulation(cfg, scheme)
    sim._schedule_next_arrival(from_ms=0)
    return sim


def _step_until(sim, reached, limit=200_000):
    """Step ``sim`` until ``reached(sim)``; fails if the run ends or ``limit`` events pass first."""
    for _ in range(limit):
        if reached(sim):
            return sim
        assert sim.step(), "the run drained first"
    raise AssertionError(f"not reached within {limit} events")


# Ten arrivals a minute on two-stream pools: holders go busy and pool jobs queue.
_BUSY_CFG = SimConfig(arrival_rate_per_min=10.0, lps_capacity=2, horizon_minutes=120.0,
                      warmup_minutes=0.0, seed=3)


def _grids(sim):
    """Each video's holder grid by video id, and dsc's all-client index under None."""
    grids = dict(sim.holders)
    if sim.index is not None:
        grids[None] = sim.index
    return grids


def _run_state(sim):
    """Everything of a run that a strategy could write to, as plain values, but the edge memos."""
    return (
        {cid: (c.uploading, c.holder) for cid, c in sim.clients.items()},
        {vid: {key: list(cell) for key, cell in grid._cells.items()}
         for vid, grid in _grids(sim).items()},
        [(list(pool._ends), list(pool._pending)) for pool in sim.pools.values()],
        [(e.request_count, set(e.client_ids)) for e in sim.lps_table.entries],
        (sim.now, sim._seq, len(sim._heap), len(sim._departures)),
    )


def _busy(sim):
    """Clients present, and whatever the scheme keeps busy: an upload, or a queued pool job."""
    if len(sim.clients) < 10:
        return False
    if sim.scheme is SchemeId.POR_CACHE:
        return bool(sim.pools[None]._pending)
    if sim.scheme is SchemeId.PROXY_CACHE:
        return (any(pool._pending for i, pool in sim.pools.items() if i is not None)
                and any(e.request_count for e in sim.lps_table.entries))
    if sim.scheme is SchemeId.NO_CACHE:
        return True
    return any(c.uploading for c in sim.clients.values())


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_each_present_client_has_one_pending_event_carrying_its_record(scheme):
    # Handlers take the record their event carries instead of looking it up,
    # so after every event each present client, and no other, must have
    # exactly one event pending, and it must carry the live record. A
    # playing client's event, its departure, waits in ``_departures``; the
    # others' wait in ``_heap`` with at most one arrival.
    sim = _started(dataclasses.replace(_BUSY_CFG, horizon_minutes=30.0), scheme)
    while sim.step():
        near = [c for _t, _seq, _handler, c in sim._heap if c is not None]
        far = [c for _t, _seq, _handler, c in sim._departures]
        assert len(sim._heap) - len(near) <= 1, (sim.now, "two arrivals pending")
        ids = [c.id for c in near + far]
        assert len(ids) == len(set(ids)), (sim.now, "a client has two pending events")
        assert set(ids) == set(sim.clients), sim.now
        for c in near + far:
            assert sim.clients[c.id] is c, (sim.now, c.id)
        assert all(c.state is ClientState.PLAYING for c in far), sim.now
        assert not any(c.state is ClientState.PLAYING for c in near), sim.now
    assert sim.arrived > 100


# Tie-dense runs: two-stream pools at 20 arrivals a minute, and two-minute
# videos on one channel, where slot starts, grants and departures share instants.
_TIE_CFGS = [
    dataclasses.replace(_BUSY_CFG, arrival_rate_per_min=20.0, horizon_minutes=90.0),
    dataclasses.replace(_BUSY_CFG, arrival_rate_per_min=20.0, horizon_minutes=90.0, seed=4),
    _SHORT_VIDEOS_CFG,
    dataclasses.replace(_SHORT_VIDEOS_CFG, arrival_rate_per_min=20.0, seed=3),
]


@pytest.mark.parametrize("cfg", _TIE_CFGS, ids=["busy-3", "busy-4", "short-10", "short-20"])
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_two_queue_event_order_matches_one_heap(cfg, scheme):
    # Departures wait in their own heap, and step() merges the two heads by
    # (time, seq). Sharing the list gives the one-heap engine; the report,
    # every trace line and so every random draw must come out the same.
    def run(one_heap):
        trace = io.StringIO()
        sim = Simulation(cfg, scheme, trace=trace)
        if one_heap:
            sim._departures = sim._heap
        return repr(sim.run()), trace.getvalue()

    split, merged = run(one_heap=False), run(one_heap=True)
    assert split[0] == merged[0]
    assert split[1] == merged[1]
    assert split[1].count(" departure ") > 100


def test_step_breaks_time_ties_between_the_two_heaps_by_seq():
    # A departure and a near-term event at one instant run in the order they
    # were scheduled, whichever heap each waits in.
    sim = Simulation(short_cfg(), SchemeId.NO_CACHE)
    order = []
    sim._on_departure = lambda c: order.append(("departure", c.id))
    c = ClientRecord(id=1, arrival_ms=0, position=(0.0, 0.0), video_id=1, playback_start_ms=0)
    sim._schedule(sim.cycle_ms, lambda c: order.append(("near", 1)))
    sim._begin_playback(c)
    sim._schedule(sim.cycle_ms, lambda c: order.append(("near", 2)))
    while sim.step():
        pass
    assert order == [("near", 1), ("departure", 1), ("near", 2)]


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_strategies_only_read_the_run(scheme):
    # The engine hands a strategy the live run; deciding a late arrival
    # must leave every flag, grid, pool, proxy count and the clock as it was.
    sim = _step_until(_started(_BUSY_CFG, scheme),
                      lambda s: _busy(s) and not classify_arrival(s.segment_ms, s.now).on_time)
    newcomer = ClientRecord(id=sim.arrived + 1, arrival_ms=sim.now, position=(0.0, 0.0), video_id=1)
    sim.clients[newcomer.id] = newcomer
    if sim.index is not None:
        sim.index.add(newcomer.id, newcomer.position)
    before = _run_state(sim)
    memos = {vid: dict(grid._edges) for vid, grid in _grids(sim).items()}
    out = caching.acquire_first_segment(scheme, newcomer, sim, classify_arrival(sim.segment_ms, sim.now))
    assert _run_state(sim) == before
    # A search may only add to a grid's memo of cell edges, and only the least
    # float keyed at least k under each k.
    for vid, grid in _grids(sim).items():
        assert memos[vid].items() <= grid._edges.items()
        for k, edge in grid._edges.items():
            below = math.nextafter(edge, -math.inf)
            assert math.floor(edge / grid.cell_m) >= k > math.floor(below / grid.cell_m)
    if scheme in (SchemeId.ALL_CACHE, SchemeId.RANDOM_CACHE, SchemeId.DSC_CACHE):
        assert sim.holders[1]._edges
    assert out == caching.acquire_first_segment(scheme, newcomer, sim,
                                                classify_arrival(sim.segment_ms, sim.now))


class TestInvariantFaults:
    """Each physical invariant the engine checks, broken on a live run, stops it."""

    @staticmethod
    def _raises(sim, message):
        with pytest.raises(SimulationError, match=message):
            while sim.step():
                pass

    def test_second_upload_from_a_busy_holder(self, monkeypatch):
        monkeypatch.setattr(caching, "_free", lambda holder: True)
        self._raises(_started(_BUSY_CFG, SchemeId.ALL_CACHE), "granted a second upload")

    def test_upload_flag_cleared_mid_transfer(self):
        sim = _step_until(_started(_BUSY_CFG, SchemeId.ALL_CACHE),
                          lambda s: any(c.uploading for c in s.clients.values()))
        next(c for c in sim.clients.values() if c.uploading).uploading = False
        self._raises(sim, "upload flag lost mid-transfer")

    def test_holder_departs_while_flagged_uploading(self):
        sim = _step_until(_started(_BUSY_CFG, SchemeId.NO_CACHE), lambda s: s.clients)
        next(iter(sim.clients.values())).uploading = True
        self._raises(sim, "departed mid-upload")

    def test_queued_jobs_swapped(self):
        sim = _step_until(_started(_BUSY_CFG, SchemeId.POR_CACHE),
                          lambda s: len(s.pools[None]._pending) >= 2)
        pending = sim.pools[None]._pending
        pending[0], pending[1] = pending[1], pending[0]
        self._raises(sim, "queue grant out of FIFO order")

    def test_arrival_counted_twice(self):
        sim = _step_until(_started(_BUSY_CFG, SchemeId.NO_CACHE), lambda s: s.clients)
        sim.arrived += 1
        self._raises(sim, "client conservation violated")

    def test_event_scheduled_in_the_past(self):
        sim = _step_until(_started(_BUSY_CFG, SchemeId.NO_CACHE), lambda s: s.now > 0)
        sim._schedule(sim.now - 1, sim._on_arrival)
        self._raises(sim, "event time went backwards")

    def test_client_that_never_leaves(self):
        sim = Simulation(short_cfg(), SchemeId.NO_CACHE)
        sim.arrived = 1
        sim.clients[1] = ClientRecord(id=1, arrival_ms=0, position=(0.0, 0.0), video_id=1)
        with pytest.raises(SimulationError, match="drain left clients in flight"):
            sim.run()

    def test_slot_start_for_a_client_already_playing(self):
        sim = _step_until(_started(_BUSY_CFG, SchemeId.NO_CACHE),
                          lambda s: any(c.state is ClientState.AWAITING_SLOT
                                        for c in s.clients.values()))
        next(c for c in sim.clients.values()
             if c.state is ClientState.AWAITING_SLOT).state = ClientState.PLAYING
        self._raises(sim, "hit a slot in state")


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
