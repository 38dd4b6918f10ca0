"""Discrete-event simulation of one service area under one caching scheme.

Clients arrive as a Poisson stream, drop uniformly into the circular
service area, pick a video by popularity, and either join the segment-1
slot that is starting right now or run the configured acquisition scheme
for the opening they missed. Startup delay is measured from the arrival
instant to the first playable data; a client then plays the whole video
and departs.

Events are processed strictly in (time, sequence) order off a single
heap and every random draw comes from a labelled sub-stream of the run
seed, so a run is a pure function of (config, scheme).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, TextIO

from . import balancer, caching
from .caching import (
    AcquisitionOutcome,
    NeighborIndex,
    SchemeId,
    SourceKind,
    WorldView,
)
from .domain import (
    MS_PER_MINUTE,
    RandomSource,
    SimConfig,
    validate_config,
    zipf_popularity,
)
from .sb_scheduler import build_plan, classify_arrival


class SimulationError(RuntimeError):
    """The run cannot continue; carries a human-readable diagnostic."""


class ClientState(Enum):
    REQUESTING = "requesting"
    AWAITING_SLOT = "awaiting_slot"
    FETCHING_FIRST = "fetching_first"
    PLAYING = "playing"


@dataclass
class ClientRecord:
    """Mutable per-client state while the client is in the system."""

    id: int
    arrival_ms: int
    position: tuple[float, float]
    video_id: int
    state: ClientState = ClientState.REQUESTING
    playback_start_ms: int | None = None
    holder: bool = False
    uploading: bool = False
    fetch: AcquisitionOutcome | None = None
    fetch_end_ms: int = 0


# What a client who walks in exactly as a segment-1 slot opens counts as.
_ON_TIME = AcquisitionOutcome(SourceKind.CHANNEL_SLOT, 0)


@dataclass
class MetricsReport:
    """Post-warmup counts of one simulation run, and the statistics they give.

    The run adds each arrival after warmup once, from its outcome; every
    other figure is computed from these fields.
    """

    scheme: str
    seed: int
    lps_requests: dict[int, int]
    delay_sum_ms: int = 0
    attempts: int = 0
    failures: int = 0
    outcome_counts: dict[str, int] = field(default_factory=lambda: {k.value: 0 for k in SourceKind})

    def add(self, out: AcquisitionOutcome, attempt: bool) -> None:
        """Count one arrival; ``attempt`` is whether it tried a source other than the slot."""
        self.delay_sum_ms += out.startup_delay_ms
        self.outcome_counts[out.source_kind.value] += 1
        if out.lps_id is not None:
            self.lps_requests[out.lps_id] += 1
        if attempt:
            self.attempts += 1
            if out.failed:
                self.failures += 1

    @property
    def arrivals(self) -> int:
        return sum(self.outcome_counts.values())

    @property
    def empty(self) -> bool:
        return self.arrivals == 0

    @property
    def mean_startup_delay_ms(self) -> float | None:
        n = self.arrivals
        return self.delay_sum_ms / n if n else None

    @property
    def failure_probability(self) -> float | None:
        if self.empty:
            return None
        return self.failures / self.attempts if self.attempts else 0.0


class StreamPool:
    """Fixed number of concurrent first-segment streams plus a FIFO queue.

    ``_ends`` is a min-heap of the instants at which each busy or promised
    slot falls free; an entry at or before now is a free slot. Every hold
    is known at enqueue time, so a queued job is promised the earliest slot
    at once: a new arrival's wait is the heap's head, and the grant instants
    it promises are the ones the event loop later delivers.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._ends: list[int] = []
        self._pending: deque[int] = deque()

    def projected_wait(self, now_ms: int) -> int:
        """Wait until a slot would be granted to a job arriving right now."""
        if len(self._ends) < self.capacity:
            return 0
        return max(0, self._ends[0] - now_ms)

    def admit(self, now_ms: int, end_ms: int) -> None:
        """Start a stream now on a free slot, reusing a slot that fell free first."""
        if self._ends and self._ends[0] <= now_ms:
            heapq.heapreplace(self._ends, end_ms)
        elif len(self._ends) < self.capacity:
            heapq.heappush(self._ends, end_ms)
        else:
            raise SimulationError("stream pool admitted past capacity")

    def enqueue(self, client_id: int, hold_ms: int) -> None:
        if len(self._ends) < self.capacity:
            raise SimulationError("enqueue into a stream pool with a free slot")
        heapq.heapreplace(self._ends, self._ends[0] + hold_ms)
        self._pending.append(client_id)

    def pop_pending(self) -> int:
        return self._pending.popleft()


class Simulation:
    """One run: fixed config, fixed scheme, labelled random sub-streams."""

    def __init__(self, cfg: SimConfig, scheme: SchemeId, trace: TextIO | None = None):
        problems = validate_config(cfg)
        if problems:
            raise SimulationError("invalid config: " + "; ".join(problems))
        self.cfg = cfg
        self.scheme = scheme
        self.trace = trace

        # Every video has the config's length and channel count: one timetable.
        self.plan = build_plan(cfg.video_length_minutes, cfg.channels)
        popularity = zipf_popularity(cfg.num_videos)
        total = sum(popularity)
        self._video_edges = list(itertools.accumulate(p / total for p in popularity))
        self._video_edges[-1] = 1.0

        source = RandomSource(cfg.seed)
        self._rng_arrivals = source.substream("arrivals")
        self._rng_place = source.substream("placement")
        self._rng_video = source.substream("video-choice")
        self._rng_cache = source.substream("cache-retention")

        self.now = 0
        self._seq = 0
        # (time_ms, seq, handler, client_id): seq is unique, so handlers are never compared.
        self._heap: list[tuple[int, int, Callable[[int], None], int]] = []
        self.clients: dict[int, ClientRecord] = {}
        self.index = NeighborIndex(cfg.client_range_m)
        # Per video: exactly the present clients with holder and not uploading,
        # in a grid made the first time the video is looked up.
        self.free_holders = defaultdict(partial(NeighborIndex, cfg.client_range_m))

        lps_ids = range(1, cfg.num_lps + 1)
        self.lps_table = balancer.LpsTable(
            [balancer.LpsEntry(i, f"LPS{i}", f"10.0.0.{i}:8554") for i in lps_ids]
        )
        self.lps_pools = {i: StreamPool(cfg.lps_capacity) for i in lps_ids}
        self.por_pool = StreamPool(cfg.lps_capacity)
        self.report = MetricsReport(scheme.value, cfg.seed, {i: 0 for i in lps_ids})
        self._world = WorldView(
            now_ms=0,
            cfg=cfg,
            clients=self.clients,
            index=self.index,
            free_holders=self.free_holders,
            plan=self.plan,
            lps_table=self.lps_table,
            lps_pools=self.lps_pools,
            por_pool=self.por_pool,
        )

        self.horizon_ms = cfg.horizon_ms
        self.warmup_ms = cfg.warmup_ms
        self.arrived = 0
        self.departed = 0

    # -- setup helpers ----------------------------------------------------

    def _draw_video(self) -> int:
        # The first video whose cumulative share reaches the draw; ids are 1-based.
        return bisect.bisect_left(self._video_edges, self._rng_video.random()) + 1

    def _draw_position(self) -> tuple[float, float]:
        r = self.cfg.lf_radius_m * math.sqrt(self._rng_place.random())
        theta = 2.0 * math.pi * self._rng_place.random()
        return (r * math.cos(theta), r * math.sin(theta))

    def _schedule(self, time_ms: int, handler: Callable[[int], None], client_id: int = -1) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_ms, self._seq, handler, client_id))

    def _trace(self, kind: str, client_id: int, detail: str = "") -> None:
        if self.trace is not None:
            self.trace.write(f"{self.now} {kind} client={client_id} {detail}\n".rstrip() + "\n")

    # -- world view -------------------------------------------------------

    def world_view(self) -> WorldView:
        """The run's one view, with its clock set to now."""
        self._world.now_ms = self.now
        return self._world

    # -- main loop --------------------------------------------------------

    def run(self) -> MetricsReport:
        self._schedule_next_arrival(from_ms=0)
        while self.step():
            pass
        if self.arrived != self.departed or self.clients:
            raise SimulationError("drain left clients in flight")
        return self.report

    def step(self) -> bool:
        """Process one event; returns False once the heap is empty."""
        if not self._heap:
            return False
        time_ms, _seq, handler, client_id = heapq.heappop(self._heap)
        if time_ms < self.now:
            raise SimulationError("event time went backwards")
        self.now = time_ms
        handler(client_id)
        return True

    # -- event handlers ---------------------------------------------------

    def _schedule_next_arrival(self, from_ms: int) -> None:
        scale = MS_PER_MINUTE / self.cfg.arrival_rate_per_min
        gap = int(round(self._rng_arrivals.exponential(scale)))
        t = from_ms + max(0, gap)
        if t <= self.horizon_ms:
            self._schedule(t, self._on_arrival)

    def _on_arrival(self, _client_id: int) -> None:
        self._schedule_next_arrival(from_ms=self.now)
        self.arrived += 1
        cid = self.arrived
        c = ClientRecord(id=cid, arrival_ms=self.now, position=self._draw_position(),
                         video_id=self._draw_video())
        self.clients[cid] = c
        self.index.add(cid, c.position)

        cls = classify_arrival(self.plan, self.now)
        self._trace("arrival", cid, f"video={c.video_id} missed={cls.missed_ms}")

        if cls.on_time:
            # Walked in exactly as a segment-1 slot opened: no acquisition.
            self._apply_outcome(c, _ON_TIME)
        else:
            self._apply_outcome(c, caching.acquire_first_segment(self.scheme, c, self.world_view()))

    def _apply_outcome(self, c: ClientRecord, out: AcquisitionOutcome) -> None:
        if c.arrival_ms > self.warmup_ms:
            self.report.add(out, attempt=out is not _ON_TIME and self.scheme is not SchemeId.NO_CACHE)

        if out is _ON_TIME:
            c.playback_start_ms = self.now
            self._begin_playback(c)
            return

        if out.source_kind is SourceKind.CHANNEL_SLOT:
            c.state = ClientState.AWAITING_SLOT
            c.playback_start_ms = self.now + out.slot_wait_ms
            self._schedule(c.playback_start_ms, self._on_slot_start, c.id)
            return

        c.state = ClientState.FETCHING_FIRST
        c.playback_start_ms = self.now + out.startup_delay_ms
        c.fetch_end_ms = c.playback_start_ms + out.fetch_ms
        c.fetch = out

        if out.source_kind in (SourceKind.NEIGHBOR, SourceKind.RELAY):
            holder = self.clients[out.holder_id]
            if holder.uploading:
                raise SimulationError(f"holder {holder.id} granted a second upload")
            holder.uploading = True
            self.free_holders[holder.video_id].remove(holder.id, holder.position)
            self._schedule(c.fetch_end_ms, self._on_fetch_complete, c.id)
            return

        # Pool-backed fetches hold their slot from grant to transfer end.
        if out.queue_wait_ms == 0:
            self._pool(c).admit(self.now, c.fetch_end_ms)
            self._grant_stream(c)
        else:
            grant_ms = self.now + out.queue_wait_ms
            self._pool(c).enqueue(c.id, c.fetch_end_ms - grant_ms)
            self._schedule(grant_ms, self._on_queue_grant, c.id)

    def _pool(self, c: ClientRecord) -> StreamPool:
        return self.por_pool if c.fetch.lps_id is None else self.lps_pools[c.fetch.lps_id]

    def _grant_stream(self, c: ClientRecord) -> None:
        # A queued job's slot was promised when it was enqueued.
        if c.fetch.source_kind is SourceKind.LPS:
            balancer.record_request(self.lps_table, c.fetch.lps_id, f"C{c.id}")
        self._schedule(c.fetch_end_ms, self._on_fetch_complete, c.id)

    def _on_slot_start(self, client_id: int) -> None:
        c = self.clients[client_id]
        if c.state is not ClientState.AWAITING_SLOT:
            raise SimulationError(f"client {c.id} hit a slot in state {c.state}")
        self._trace("slot_start", c.id)
        self._begin_playback(c)

    def _on_queue_grant(self, client_id: int) -> None:
        c = self.clients[client_id]
        if self._pool(c).pop_pending() != c.id:
            raise SimulationError("queue grant out of FIFO order")
        self._trace("queue_grant", c.id)
        self._grant_stream(c)

    def _on_fetch_complete(self, client_id: int) -> None:
        c = self.clients[client_id]
        if c.fetch.source_kind in (SourceKind.NEIGHBOR, SourceKind.RELAY):
            holder = self.clients[c.fetch.holder_id]
            if not holder.uploading:
                raise SimulationError(f"holder {holder.id} upload flag lost mid-transfer")
            holder.uploading = False
            self.free_holders[holder.video_id].add(holder.id, holder.position)
        elif c.fetch.source_kind is SourceKind.LPS:
            balancer.release_request(self.lps_table, c.fetch.lps_id, f"C{c.id}")
        self._trace("fetch_complete", c.id)
        self._begin_playback(c)

    def _begin_playback(self, c: ClientRecord) -> None:
        c.state = ClientState.PLAYING
        if caching.on_playback_started(self.scheme, self.world_view(), self._rng_cache):
            c.holder = True
            self.free_holders[c.video_id].add(c.id, c.position)
        # One cycle of K segments of duration D is the whole video.
        self._schedule(c.playback_start_ms + self.plan.cycle_ms, self._on_playback_end, c.id)

    def _on_playback_end(self, client_id: int) -> None:
        self._trace("playback_end", client_id)
        self._schedule(self.now, self._on_departure, client_id)

    def _on_departure(self, client_id: int) -> None:
        c = self.clients[client_id]
        if c.uploading:
            raise SimulationError(f"holder {c.id} departed mid-upload")
        self.index.remove(c.id, c.position)
        if c.holder:
            self.free_holders[c.video_id].remove(c.id, c.position)
        del self.clients[c.id]
        self.departed += 1
        self._trace("departure", c.id)
        if self.arrived != self.departed + len(self.clients):
            raise SimulationError("client conservation violated")


def run_simulation(cfg: SimConfig, scheme: SchemeId, trace: TextIO | None = None) -> MetricsReport:
    """Run one full simulation and return its post-warmup metrics."""
    return Simulation(cfg, scheme, trace=trace).run()
