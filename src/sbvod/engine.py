"""Discrete-event simulation of one service area under one caching scheme.

Clients arrive as a Poisson stream, drop uniformly into the circular
service area, pick a video by popularity, and either join the segment-1
slot that is starting right now or run the configured acquisition scheme
for the opening they missed. Startup delay is measured from the arrival
instant to the first playable data; a client then plays the whole video
and departs.

Each video is staggered over K channels: channel i (1-based) starts it at
(i - 1) * D, D the segment duration, so segment 1 begins every D ms and a
broadcast-only client waits at most D. The run turns the validated
config's minutes into this integer-ms time base once.

Events are processed strictly in (time, sequence) order, merged from two
heaps that share one sequence counter: departures, a whole cycle ahead,
and every other event. Every random draw comes from a labelled sub-stream
of the run seed, so a run is a pure function of (config, scheme).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from heapq import heappop, heappush, heapreplace
from typing import Callable, NamedTuple, TextIO

from . import balancer, caching
from .caching import AcquisitionOutcome, NeighborIndex, SchemeId, SourceKind
from .caching import _CHANNEL_SLOT, _FROM_HOLDER, _LPS
from .domain import (
    MS_PER_MINUTE,
    RandomSource,
    SimConfig,
    validate_config,
    zipf_popularity,
)


class SimulationError(RuntimeError):
    """The run cannot continue; carries a human-readable diagnostic."""


class ClientState(Enum):
    REQUESTING = "requesting"
    AWAITING_SLOT = "awaiting_slot"
    FETCHING_FIRST = "fetching_first"
    PLAYING = "playing"


# Read as globals by the handlers, as caching's members are (see there).
_AWAITING_SLOT, _FETCHING_FIRST, _PLAYING = (
    ClientState.AWAITING_SLOT, ClientState.FETCHING_FIRST, ClientState.PLAYING)


@dataclass(slots=True)
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


class ArrivalClass(NamedTuple):
    """Whether an arrival meets a segment-1 slot; ``wait_ms`` to the next one is 0 if so."""

    on_time: bool
    missed_ms: int
    wait_ms: int


def classify_arrival(segment_ms: int, t_ms: int) -> ArrivalClass:
    """Split an arrival into on-time (a slot starts now) or late by ``missed_ms``."""
    missed = t_ms % segment_ms
    # ``tuple.__new__`` skips the named tuple's Python-level ``__new__``: one call less per arrival.
    return tuple.__new__(ArrivalClass, (missed == 0, missed, (segment_ms - missed) if missed else 0))


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
    failures: int = 0
    outcome_counts: dict[str, int] = field(default_factory=lambda: {k.value: 0 for k in SourceKind})

    def add(self, out: AcquisitionOutcome) -> None:
        """Count one arrival."""
        self.delay_sum_ms += out.startup_delay_ms
        # ``_value_``, not the ``value`` descriptor: 0.1 µs a count, not 0.4 (CPython 3.11).
        self.outcome_counts[out.source_kind._value_] += 1
        if out.lps_id is not None:
            self.lps_requests[out.lps_id] += 1
        self.failures += out.failed

    @property
    def arrivals(self) -> int:
        return sum(self.outcome_counts.values())

    @property
    def attempts(self) -> int:
        """Arrivals that tried a source other than the slot: each non-slot outcome, and each failure (it fell back)."""
        return self.failures + self.arrivals - self.outcome_counts[SourceKind.CHANNEL_SLOT.value]

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

    ``_ends`` is a min-heap of the instants at which each busy or reserved
    slot falls free; an entry at or before now is a free slot. Every hold
    is known when it is reserved, so a queued job takes the earliest slot
    at once: a new arrival's wait is the heap's head, and ``reserve`` grants
    the slot at exactly that wait.
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

    def reserve(self, client_id: int, now_ms: int, end_ms: int) -> int:
        """Hold the earliest slot, reusing one that fell free, until ``end_ms``; returns the grant."""
        ends = self._ends
        if len(ends) < self.capacity and (not ends or ends[0] > now_ms):
            heappush(ends, end_ms)
            return now_ms
        grant_ms = max(now_ms, heapreplace(ends, end_ms))
        if grant_ms > now_ms:
            self._pending.append(client_id)
        return grant_ms

    def pop_pending(self) -> int:
        return self._pending.popleft()


class Simulation:
    """One run: fixed config, fixed scheme, labelled random sub-streams.

    It is also the world ``caching.acquire_first_segment`` reads.
    """

    def __init__(self, cfg: SimConfig, scheme: SchemeId, trace: TextIO | None = None):
        problems = validate_config(cfg)
        if problems:
            raise SimulationError("invalid config: " + "; ".join(problems))
        self.cfg = cfg
        self.scheme = scheme
        self.trace = trace

        # The run's time base in ms. Every video has the config's length and
        # channel count, so one segment D and one cycle K * D, the whole video.
        self.segment_ms = cfg.video_length_minutes * MS_PER_MINUTE // cfg.channels
        self.cycle_ms = cfg.channels * self.segment_ms
        self.horizon_ms = int(round(cfg.horizon_minutes * MS_PER_MINUTE))
        self.warmup_ms = int(round(cfg.warmup_minutes * MS_PER_MINUTE))
        popularity = zipf_popularity(cfg.num_videos)
        total = math.fsum(popularity)
        self._video_edges = list(itertools.accumulate(p / total for p in popularity))
        self._video_edges[-1] = 1.0

        source = RandomSource(cfg.seed)
        self._gap_scale = MS_PER_MINUTE / cfg.arrival_rate_per_min
        self._rng_arrivals = source.substream("arrivals")
        self._rng_place = source.substream("placement")
        self._rng_video = source.substream("video-choice")
        self._rng_cache = source.substream("cache-retention")

        self.now = 0
        self._seq = 0
        # (time_ms, seq, handler, client): seq is unique, so handlers and clients are
        # never compared. The arrival event carries None. Departures, one per playing
        # client and a cycle ahead, wait apart, so near-term events sift past none of them.
        self._heap: list[tuple[int, int, Callable, ClientRecord | None]] = []
        self._departures: list[tuple[int, int, Callable, ClientRecord]] = []
        self.clients: dict[int, ClientRecord] = {}
        # Every present client, for dsc's relay search alone; no other scheme has one.
        self.index = NeighborIndex(cfg.client_range_m) if scheme is SchemeId.DSC_CACHE else None
        # Per video: exactly its present holders, busy or not, in a grid
        # made the first time the video is looked up.
        self.holders = defaultdict(partial(NeighborIndex, cfg.client_range_m))

        lps_ids = range(1, cfg.num_lps + 1)
        self.lps_table = balancer.LpsTable(
            [balancer.LpsEntry(i, f"LPS{i}", f"10.0.0.{i}:8554") for i in lps_ids]
        )
        # One pool per proxy, and the forwarder's under None, as a PoR outcome's lps_id is.
        self.pools = {i: StreamPool(cfg.lps_capacity) for i in (None, *lps_ids)}
        self.report = MetricsReport(scheme.value, cfg.seed, {i: 0 for i in lps_ids})

        self.arrived = 0
        self.departed = 0

    # -- setup helpers ----------------------------------------------------

    def _schedule(self, time_ms: int, handler: Callable, client: ClientRecord | None = None) -> None:
        self._seq += 1
        heappush(self._heap, (time_ms, self._seq, handler, client))

    def _trace(self, kind: str, client_id: int, detail: str = "") -> None:
        """One trace line; callers test ``self.trace is not None`` first."""
        self.trace.write(f"{self.now} {kind} client={client_id} {detail}\n".rstrip() + "\n")

    # -- main loop --------------------------------------------------------

    def run(self) -> MetricsReport:
        self._schedule_next_arrival(from_ms=0)
        while self.step():
            pass
        if self.arrived != self.departed or self.clients:
            raise SimulationError("drain left clients in flight")
        return self.report

    def step(self) -> bool:
        """Process the earliest event of either heap; returns False once both are empty."""
        heap, departures = self._heap, self._departures
        if departures and (not heap or departures[0] < heap[0]):
            heap = departures
        if not heap:
            return False
        time_ms, _seq, handler, client = heappop(heap)
        if time_ms < self.now:
            raise SimulationError("event time went backwards")
        self.now = time_ms
        handler(client)
        return True

    # -- event handlers ---------------------------------------------------

    def _schedule_next_arrival(self, from_ms: int) -> None:
        # An exponential gap by inversion: random() is the one draw whose
        # sequence Python keeps the same on every version.
        t = from_ms + round(self._gap_scale * -math.log(1.0 - self._rng_arrivals.random()))
        if t <= self.horizon_ms:
            self._schedule(t, self._on_arrival)

    def _on_arrival(self, _none: None) -> None:
        # _schedule_next_arrival's draw and _schedule's push, in place, as are the fetch-end
        # pushes below: each runs on nearly every arrival, where a call costs more than its body.
        now = self.now
        t = now + round(self._gap_scale * -math.log(1.0 - self._rng_arrivals.random()))
        if t <= self.horizon_ms:
            self._seq += 1
            heappush(self._heap, (t, self._seq, self._on_arrival, None))
        self.arrived += 1
        cid = self.arrived
        # A point uniform over the disc by area; then the first video whose cumulative
        # share reaches the draw (ids are 1-based). Positional: id, arrival_ms, position, video_id.
        r = self.cfg.lf_radius_m * math.sqrt(self._rng_place.random())
        theta = 2.0 * math.pi * self._rng_place.random()
        c = ClientRecord(cid, now, (r * math.cos(theta), r * math.sin(theta)),
                         bisect.bisect_left(self._video_edges, self._rng_video.random()) + 1)
        self.clients[cid] = c
        if self.index is not None:
            self.index.add(cid, c.position)

        arrival = classify_arrival(self.segment_ms, now)
        if self.trace is not None:
            self._trace("arrival", cid, f"video={c.video_id} missed={arrival.missed_ms}")

        if arrival.on_time:
            # Walked in exactly as a segment-1 slot opened: no acquisition.
            self._apply_outcome(c, _ON_TIME)
        else:
            self._apply_outcome(c, caching.acquire_first_segment(self.scheme, c, self, arrival))

    def _apply_outcome(self, c: ClientRecord, out: AcquisitionOutcome) -> None:
        if c.arrival_ms > self.warmup_ms:
            self.report.add(out)

        if out is _ON_TIME:
            c.playback_start_ms = self.now
            self._begin_playback(c)
            return

        if out.source_kind is _CHANNEL_SLOT:
            c.state = _AWAITING_SLOT
            c.playback_start_ms = self.now + out.slot_wait_ms
            self._schedule(c.playback_start_ms, self._on_slot_start, c)
            return

        c.state = _FETCHING_FIRST
        c.playback_start_ms = self.now + out.startup_delay_ms
        c.fetch_end_ms = c.playback_start_ms + out.fetch_ms
        c.fetch = out

        if out.source_kind in _FROM_HOLDER:
            holder = self.clients[out.holder_id]
            if holder.uploading:
                raise SimulationError(f"holder {holder.id} granted a second upload")
            holder.uploading = True
            self._seq += 1
            heappush(self._heap, (c.fetch_end_ms, self._seq, self._on_fetch_complete, c))
            return

        # Pool-backed fetches hold their slot from grant to transfer end, and
        # the pool must grant it at the wait the strategy was promised.
        grant_ms = self.pools[out.lps_id].reserve(c.id, self.now, c.fetch_end_ms)
        if grant_ms != self.now + out.queue_wait_ms:
            raise SimulationError(f"client {c.id} granted a pool slot at {grant_ms}, not as promised")
        if grant_ms == self.now:
            self._grant_stream(c)
        else:
            self._schedule(grant_ms, self._on_queue_grant, c)

    def _grant_stream(self, c: ClientRecord) -> None:
        # A queued job's slot was reserved when it arrived.
        if c.fetch.source_kind is _LPS:
            balancer.record_request(self.lps_table, c.fetch.lps_id, c.id)
        self._seq += 1
        heappush(self._heap, (c.fetch_end_ms, self._seq, self._on_fetch_complete, c))

    def _on_slot_start(self, c: ClientRecord) -> None:
        if c.state is not _AWAITING_SLOT:
            raise SimulationError(f"client {c.id} hit a slot in state {c.state}")
        if self.trace is not None:
            self._trace("slot_start", c.id)
        self._begin_playback(c)

    def _on_queue_grant(self, c: ClientRecord) -> None:
        if self.pools[c.fetch.lps_id].pop_pending() != c.id:
            raise SimulationError("queue grant out of FIFO order")
        if self.trace is not None:
            self._trace("queue_grant", c.id)
        self._grant_stream(c)

    def _on_fetch_complete(self, c: ClientRecord) -> None:
        if c.fetch.source_kind in _FROM_HOLDER:
            holder = self.clients[c.fetch.holder_id]
            if not holder.uploading:
                raise SimulationError(f"holder {holder.id} upload flag lost mid-transfer")
            holder.uploading = False
        elif c.fetch.source_kind is _LPS:
            balancer.release_request(self.lps_table, c.fetch.lps_id, c.id)
        if self.trace is not None:
            self._trace("fetch_complete", c.id)
        self._begin_playback(c)

    def _begin_playback(self, c: ClientRecord) -> None:
        c.state = _PLAYING
        if caching.on_playback_started(self.scheme, self.cfg, self._rng_cache):
            c.holder = True
            self.holders[c.video_id].add(c.id, c.position)
        # The client leaves as its playback, one cycle, ends.
        self._seq += 1
        heappush(self._departures, (c.playback_start_ms + self.cycle_ms, self._seq, self._on_departure, c))

    def _on_departure(self, c: ClientRecord) -> None:
        if c.uploading:
            raise SimulationError(f"holder {c.id} departed mid-upload")
        if self.index is not None:
            self.index.remove(c.id, c.position)
        if c.holder:
            self.holders[c.video_id].remove(c.id, c.position)
        del self.clients[c.id]
        self.departed += 1
        if self.trace is not None:
            self._trace("departure", c.id)
        if self.arrived != self.departed + len(self.clients):
            raise SimulationError("client conservation violated")


def run_simulation(cfg: SimConfig, scheme: SchemeId, trace: TextIO | None = None) -> MetricsReport:
    """Run one full simulation and return its post-warmup metrics."""
    return Simulation(cfg, scheme, trace=trace).run()
