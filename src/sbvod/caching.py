"""First-segment acquisition strategies for late-arriving clients.

A client that misses the current segment-1 slot can always fall back to
waiting for the next slot (at most one segment duration away). Each
scheme here tries to do better by sourcing the missed opening of the
video from somewhere nearby: a neighbor's buffer, a two-hop relay, the
forwarder's RAM pool, or a proxy server picked by the load balancer.

Strategies are pure. The ``world`` they are handed is the running
``engine.Simulation`` itself, and they only read it: ``now``, ``cfg``,
``cycle_ms``, ``clients``, ``index`` (under dsc only), ``holders``,
``lps_table`` and ``pools`` (each proxy's pool by id, the forwarder's
under None). The one write is a cache: a search may add a cell edge to
its grid's memo, a value fixed by the grid's cell width alone. They
return an :class:`AcquisitionOutcome`, and the engine applies it
(marking uploads, queueing, recording balancer requests).

Neighbour searches scan grid cells of ``(x, y, id)`` entries: the 3x3 block
around a point holds every client in range of it, and the 5x5 block around
a client every holder in range of an in-range forwarder. A relay walks
that block once, keeps the free holders within two cells of the client
that stay long enough, and tests each forwarder against that short list;
an empty list ends the search. A search looks its block's keys up in the
grid's dict in place, nearest first, and passes over an absent key. Once
it has a candidate, the direct and forwarder search also skip, before
the lookup, a cell whose exact edges put it farther than the best so far.
"""

from __future__ import annotations

import math
import struct
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from . import balancer as _balancer
from .domain import _CELL_SLACK, SimConfig

if TYPE_CHECKING:
    from .engine import ArrivalClass, Simulation


class SchemeId(Enum):
    NO_CACHE = "no-cache"
    ALL_CACHE = "all-cache"
    RANDOM_CACHE = "random-cache"
    DSC_CACHE = "dsc-cache"
    POR_CACHE = "por-cache"
    PROXY_CACHE = "proxy-cache"


#: Accepted spellings on the command line and in experiment specs.
SCHEME_ALIASES: dict[str, SchemeId] = {}
for _s in SchemeId:
    SCHEME_ALIASES[_s.value] = _s
    SCHEME_ALIASES[_s.value.replace("-cache", "")] = _s
    SCHEME_ALIASES[_s.value.replace("-", "")] = _s
SCHEME_ALIASES["no"] = SchemeId.NO_CACHE
SCHEME_ALIASES["none"] = SchemeId.NO_CACHE


def normalize_scheme(name: str) -> SchemeId:
    try:
        return SCHEME_ALIASES[name.strip().lower()]
    except KeyError:
        valid = ", ".join(sorted(s.value for s in SchemeId))
        raise ValueError(f"unknown scheme {name!r}; valid schemes: {valid}") from None


class SourceKind(Enum):
    CHANNEL_SLOT = "channel_slot"
    NEIGHBOR = "neighbor"
    RELAY = "relay"
    POR = "por"
    LPS = "lps"


# Fraction of viewers that retain the first segment under the sparse
# distributed-cache scheme. Keeping only a thin, dominating-set-like
# subset of holders is what separates it from caching at everyone: the
# two-hop relay claws back most of the lost coverage but not all of it.
DSC_CACHE_PROB = 0.35


class _OutcomeFields(NamedTuple):
    source_kind: SourceKind
    startup_delay_ms: int
    failed: bool = False
    holder_id: int | None = None
    via_id: int | None = None
    lps_id: int | None = None
    slot_wait_ms: int = 0
    queue_wait_ms: int = 0
    fetch_ms: int = 0


class AcquisitionOutcome(_OutcomeFields):
    """What one late client ends up doing for its first segment.

    ``startup_delay_ms`` counts from the arrival instant to the first
    playable data. A failed attempt always falls back to the broadcast
    slot, so ``failed`` implies ``source_kind == CHANNEL_SLOT`` and the
    delay includes both the slot wait and the probe hops that were spent
    discovering there was nothing better. Only channel-slot outcomes set
    ``slot_wait_ms``.

    Immutable, since the engine shares one on-time outcome between clients.
    ``__new__`` checks the arguments, then builds the tuple itself. The
    strategies below pass every field by position, in field order, since
    keywords cost more per call.
    """

    __slots__ = ()

    def __new__(cls, source_kind, startup_delay_ms, failed=False, holder_id=None, via_id=None,
                lps_id=None, slot_wait_ms=0, queue_wait_ms=0, fetch_ms=0):
        if startup_delay_ms < 0:
            raise ValueError("startup_delay_ms must be non-negative")
        if source_kind is SourceKind.CHANNEL_SLOT:
            if holder_id is not None or via_id is not None or lps_id is not None:
                raise ValueError("channel-slot outcomes carry no source ids")
        elif failed:
            raise ValueError("a failed acquisition must fall back to the channel slot")
        return tuple.__new__(cls, (source_kind, startup_delay_ms, failed, holder_id, via_id,
                                   lps_id, slot_wait_ms, queue_wait_ms, fetch_ms))


def _ordinal(v: float) -> int:
    """``v``'s place in float order: its bit pattern, negatives mirrored below 0 (both zeros 0)."""
    i = struct.unpack("<q", struct.pack("<d", v))[0]
    return i if i >= 0 else -i - 2**63


def _from_ordinal(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i if i >= 0 else -i - 2**63))[0]


class _Edges(dict):
    """Memo from a cell key ``k`` to the least float whose key is at least ``k``.

    ``floor(x / cell_m)`` is monotone in ``x``, so the floats keyed ``k`` or
    more are exactly those from this edge up. A missing key is found by
    search over floats in their order: a bracket around ``k * cell_m`` that
    doubles until one end keys below ``k`` and the other not, then bisection.
    Each takes at most about 64 steps, however many floats lie in between:
    about 2**62 key to 0 just below 0 at 2**509 m. The edge lies a float or
    so from ``k * cell_m``, or for key 0 within ``cell_m * 2**-1074`` of 0,
    and each end at most twice as many floats away, or one, so every
    quotient is finite.
    """

    __slots__ = ("cell_m",)

    def __init__(self, cell_m: float):
        super().__init__()
        self.cell_m = cell_m

    def __missing__(self, k: int) -> float:
        c = self.cell_m

        def key(i: int) -> int:
            return math.floor(_from_ordinal(i) / c)

        at = _ordinal(k * c)
        step = 1
        while not key(at - step) < k <= key(at + step):
            step += step
        lo, hi = at - step, at + step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if key(mid) < k:
                lo = mid
            else:
                hi = mid
        edge = self[k] = _from_ordinal(hi)
        return edge


def _ring_order(reach: int) -> list[tuple[int, int]]:
    """Key offsets of the block ``reach`` cells around a cell, the centre first, corners last."""
    block = [(dx, dy) for dx in range(-reach, reach + 1) for dy in range(-reach, reach + 1)]
    return sorted(block, key=lambda d: d[0] * d[0] + d[1] * d[1])


_BLOCKS = {1: _ring_order(1), 2: _ring_order(2)}


class NeighborIndex:
    """Uniform-grid spatial index over a set of present clients.

    Cells are a hair wider than the radio range, so every client within
    range of a query point sits in one of the nine cells around it (the
    derivation sits with ``domain._MAX_GRID_CELLS``). A cell is a list of
    ``(x, y, id)`` entries, one per client, at its position as added. The
    searches below probe ``_cells`` by key in place, and read a cell's
    edges from ``_edges``; exact range filtering is theirs. The engine
    keeps one per video over its present holders, busy or not, and, under
    dsc only, one over every present client for the relay search.
    """

    def __init__(self, range_m: float):
        self.cell_m = range_m * (1.0 + _CELL_SLACK)
        self._cells: dict[tuple[int, int], list[tuple[float, float, int]]] = {}
        self._edges = _Edges(self.cell_m)

    def _key(self, pos: tuple[float, float]) -> tuple[int, int]:
        return (math.floor(pos[0] / self.cell_m), math.floor(pos[1] / self.cell_m))

    def add(self, cid: int, pos: tuple[float, float]) -> None:
        self._cells.setdefault(self._key(pos), []).append((pos[0], pos[1], cid))

    def remove(self, cid: int, pos: tuple[float, float]) -> None:
        key = self._key(pos)
        try:
            cell = self._cells[key]
            cell.remove((pos[0], pos[1], cid))
        except (KeyError, ValueError):
            raise KeyError(f"client {cid} not present in cell {key}") from None
        if not cell:
            del self._cells[key]


def fetch_duration_ms(cfg: SimConfig, missed_ms: int) -> int:
    """Time to pull the missed opening of segment 1 over the access link.

    The source streams ``missed_ms`` worth of content (at the consumption
    rate) flat out at the link bandwidth, so the transfer runs much faster
    than real time and the serving slot frees up quickly.
    """
    if missed_ms <= 0:
        return 0
    ratio = cfg.consumption_rate_mbps / cfg.bandwidth_mbps
    return int(math.ceil(missed_ms * ratio))


def _nearest(world: Simulation, grid: NeighborIndex, pos: tuple[float, float], skip_id: int,
             until_ms: int, serves):
    """(id, value) of the least (dist2, id) client of ``grid`` that serves, or None.

    It probes ``grid._cells`` in place for each key of the 3x3 block around
    ``pos``, which holds every client in range, nearest cell first, and
    passes over an absent key. A client other than ``skip_id`` serves if it
    is in radio range of ``pos``, stays past ``until_ms``, when the transfer
    ends, and ``serves(record)`` gives a value that is not None. One pass
    keeps the least (dist2, id) so far and reads the record and calls
    ``serves`` only for a candidate that would replace it; ``serves`` only
    reads the world, so this is the first serving client in (dist2, id)
    order, whatever order the cells come in.

    Once there is a candidate, a key is skipped before its lookup when the
    gaps from ``pos`` to the cell's edges bound every entry's dist2 above the
    best so far. ``pos`` keys to ``(cx, cy)``, so with ``e = grid._edges``
    it lies in ``[e[cx], e[cx + 1])``, and an entry of column ``cx - 1``
    lies below ``e[cx]``, one of ``cx + 1`` at or above ``e[cx + 1]``; rows
    alike. Rounded subtraction, product and sum are monotone, so no entry's
    computed dist2 is below the bound computed from the gaps. An entry at
    exactly the bound may still win on its id, so the skip is strict.
    """
    # A client leaves as its playback ends, so it serves only if that is strictly
    # after until_ms. Every search asks for until_ms >= now, so a client leaving
    # now is out whether or not its departure has run yet, and no transfer ends
    # as its source leaves: same-ms event order cannot matter.
    leave_by = until_ms - world.cycle_ms  # playback started at or before this ends too soon
    clients = world.clients
    x, y = pos
    cx, cy = grid._key(pos)
    get = grid._cells.get
    r = world.cfg.client_range_m
    best_d2, best_id, best_value = r * r, None, None
    gx = None
    for kx, ky in _BLOCKS[1]:
        if best_id is not None:
            if gx is None:
                # Squared gaps indexed by the key offset: gx[-1] to the left edge, gx[1] the right.
                edge = grid._edges
                lx = x - edge[cx]
                rx = edge[cx + 1] - x
                ly = y - edge[cy]
                ry = edge[cy + 1] - y
                gx = (0.0, rx * rx, lx * lx)
                gy = (0.0, ry * ry, ly * ly)
            if gx[kx] + gy[ky] > best_d2:
                continue
        if (cell := get((cx + kx, cy + ky))) is None:
            continue
        for px, py, cid in cell:
            # Products, not ``** 2``: libm's pow may round differently by platform.
            dx = x - px
            dy = y - py
            d2 = dx * dx + dy * dy
            if d2 > best_d2:
                continue
            if ((d2 < best_d2 or best_id is None or cid < best_id)
                    and cid != skip_id and (rec := clients[cid]).playback_start_ms > leave_by
                    and (value := serves(rec)) is not None):
                best_d2, best_id, best_value = d2, cid, value
    return None if best_id is None else (best_id, best_value)


def _free(holder) -> bool | None:
    """A holder serves unless it is uploading; a video's grid holds its busy holders too."""
    return None if holder.uploading else True


def _find_relay(world: Simulation, client, until_ms: int):
    """(via, holder) for the nearest via with a free holder in its range, or None.

    Both must stay present until ``until_ms``, when the relayed transfer ends.
    """
    # Every holder in range of an in-range via lies within two cells of the
    # client (derivation at ``domain._MAX_GRID_CELLS``). So the holders there
    # that are free and stay past until_ms are listed once, for every via,
    # and none means no relay. A client joins its video's holder grid only
    # as its playback starts, so the arriving client is never on the list.
    grid = world.holders[client.video_id]
    x, y = client.position
    cx, cy = grid._key(client.position)
    get = grid._cells.get
    reach2 = 4.0 * grid.cell_m * grid.cell_m
    leave_by = until_ms - world.cycle_ms
    clients = world.clients
    free = []
    for kx, ky in _BLOCKS[2]:
        if (cell := get((cx + kx, cy + ky))) is None:
            continue
        for entry in cell:
            dx = x - entry[0]
            dy = y - entry[1]
            if (dx * dx + dy * dy <= reach2 and not (rec := clients[entry[2]]).uploading
                    and rec.playback_start_ms > leave_by):
                free.append(entry)
    if not free:
        return None
    r = world.cfg.client_range_m
    r2 = r * r

    def via_holder(via):
        # ``_nearest``'s order over the list: the least (dist2, id) in range, other than the via.
        vx, vy = via.position
        best_d2, best_id = r2, None
        for px, py, hid in free:
            dx = vx - px
            dy = vy - py
            d2 = dx * dx + dy * dy
            if (d2 <= best_d2 and (d2 < best_d2 or best_id is None or hid < best_id)
                    and hid != via.id):
                best_d2, best_id = d2, hid
        return best_id

    return _nearest(world, world.index, client.position, client.id, until_ms, via_holder)


def _slot_outcome(scheme: SchemeId, wait_ms: int, latency: int, failed: bool) -> AcquisitionOutcome:
    # Probe hops burned before giving up and falling back to the next slot.
    # Direct-search schemes spend one round; the relay scheme also probes a
    # forwarding neighbor. No-cache never probes, so it never fails.
    hops = (2 if scheme is SchemeId.DSC_CACHE else 1) if failed else 0
    return AcquisitionOutcome(SourceKind.CHANNEL_SLOT, wait_ms + hops * latency, failed,
                              None, None, None, wait_ms)


def acquire_first_segment(scheme: SchemeId, client, world: Simulation,
                          arrival: ArrivalClass) -> AcquisitionOutcome:
    """Decide how a late client obtains the opening of segment 1.

    ``world`` is the running ``engine.Simulation``; the strategy only reads
    its ``now``, ``cfg``, ``cycle_ms``, ``clients``, ``index``, ``holders``,
    ``lps_table`` and ``pools``, and may add cell edges to a grid's memo
    (see the module docstring). Under dsc only, ``index`` holds every
    present client; it is None under the other schemes.
    ``holders[video_id]`` holds that video's present holders, busy or not
    (the engine's mapping makes an empty grid on a video's first lookup),
    and a holder's ``uploading`` flag alone says it is busy. ``arrival`` is
    ``engine.classify_arrival`` of the run's segment at ``world.now``. The
    client missed the current segment-1 slot by some margin; every scheme
    may fall back to the next slot (``wait_ms`` away), and the queue-backed
    schemes refuse a queue that would outlast that slot, which is what makes
    their acquisition failures impossible while spare capacity exists.
    """
    if arrival.on_time:
        raise ValueError("acquire_first_segment is only for late clients")
    wait_ms = arrival.wait_ms
    latency = world.cfg.msg_latency_ms
    if scheme is SchemeId.NO_CACHE:
        return _slot_outcome(scheme, wait_ms, latency, failed=False)
    fetch_ms = fetch_duration_ms(world.cfg, arrival.missed_ms)

    if scheme in (SchemeId.ALL_CACHE, SchemeId.RANDOM_CACHE, SchemeId.DSC_CACHE):
        # A transfer ends its startup delay (two hops, three via a relay)
        # plus the fetch after now.
        found = _nearest(world, world.holders[client.video_id], client.position, client.id,
                         world.now + 2 * latency + fetch_ms, _free)
        if found is not None:
            return AcquisitionOutcome(SourceKind.NEIGHBOR, 2 * latency, False, found[0],
                                      None, None, 0, 0, fetch_ms)
        if scheme is SchemeId.DSC_CACHE:
            relay = _find_relay(world, client, world.now + 3 * latency + fetch_ms)
            if relay is not None:
                via, holder = relay
                return AcquisitionOutcome(SourceKind.RELAY, 3 * latency, False, holder, via,
                                          None, 0, 0, fetch_ms)
        return _slot_outcome(scheme, wait_ms, latency, failed=True)

    if scheme is SchemeId.POR_CACHE:
        kind, lps_id, hops = SourceKind.POR, None, 2
    else:
        kind, lps_id, hops = SourceKind.LPS, _balancer.assign_lps(world.lps_table), 3

    queue_wait = world.pools[lps_id].projected_wait(world.now)
    if queue_wait > wait_ms:
        return _slot_outcome(scheme, wait_ms, latency, failed=True)
    return AcquisitionOutcome(kind, hops * latency + queue_wait, False, None, None, lps_id,
                              0, queue_wait, fetch_ms)


def on_playback_started(scheme: SchemeId, cfg: SimConfig, rng) -> bool:
    """Whether the client starting playback keeps segment 1 available for others.

    Called exactly once per client at the instant playback begins. The
    probabilistic schemes consume one draw from ``rng``; the others leave
    the stream untouched.
    """
    if scheme is SchemeId.ALL_CACHE:
        return True
    if scheme is SchemeId.RANDOM_CACHE:
        return rng.random() < cfg.random_cache_prob
    if scheme is SchemeId.DSC_CACHE:
        return rng.random() < DSC_CACHE_PROB
    return False
