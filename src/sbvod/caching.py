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
under None), and write nothing. They return an
:class:`AcquisitionOutcome`, and the engine applies it (marking uploads,
queueing, recording balancer requests).

Neighbour searches scan grid cells of ``(x, y, id)`` entries: the 3x3 block
around a point holds every client in range of it, and the 5x5 block around
a client every holder in range of an in-range forwarder. A relay walks
that block once, keeps the free holders within two cells of the client
that stay long enough, and tests each forwarder against that short list;
an empty list ends the search. A search looks its block's keys up in the
grid's dict in place, nearest first, and passes over an absent key. Once
it has a candidate, the direct and forwarder search also skip, before
the lookup, a cell whose edges, bounded from ``k * cell_m``, put it
farther than the best so far.
"""

from __future__ import annotations

import math
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


# The members per-event code compares against, read as globals. On CPython 3.10 and 3.11
# ``SourceKind.LPS`` goes through ``EnumType.__getattr__``, about 95 ns a read against 4 for a
# global; tests/test_member_reads.py keeps such reads out of per-event code.
_NO_CACHE, _ALL_CACHE, _RANDOM_CACHE, _DSC_CACHE, _POR_CACHE = (
    SchemeId.NO_CACHE, SchemeId.ALL_CACHE, SchemeId.RANDOM_CACHE, SchemeId.DSC_CACHE, SchemeId.POR_CACHE)
_SEARCHERS = (_ALL_CACHE, _RANDOM_CACHE, _DSC_CACHE)
_CHANNEL_SLOT, _NEIGHBOR, _RELAY, _POR, _LPS = (
    SourceKind.CHANNEL_SLOT, SourceKind.NEIGHBOR, SourceKind.RELAY, SourceKind.POR, SourceKind.LPS)
_FROM_HOLDER = (_NEIGHBOR, _RELAY)


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
        if source_kind is _CHANNEL_SLOT:
            if holder_id is not None or via_id is not None or lps_id is not None:
                raise ValueError("channel-slot outcomes carry no source ids")
        elif failed:
            raise ValueError("a failed acquisition must fall back to the channel slot")
        return tuple.__new__(cls, (source_kind, startup_delay_ms, failed, holder_id, via_id,
                                   lps_id, slot_wait_ms, queue_wait_ms, fetch_ms))


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
    searches below probe ``_cells`` by key in place; exact range filtering
    is theirs. The engine keeps one per video over its present holders,
    busy or not, and, under dsc only, one over every present client for
    the relay search.
    """

    def __init__(self, range_m: float):
        self.cell_m = range_m * (1.0 + _CELL_SLACK)
        self._cells: dict[tuple[int, int], list[tuple[float, float, int]]] = {}

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
    return math.ceil(missed_ms * ratio)


# The edge e[k] of key k, the least float whose key floor(x / c) is at least k, lies near
# k * c; ``_nearest``'s skip bounds it from there. By the standard model of rounding (Higham,
# "Accuracy and Stability of Numerical Algorithms", 2002, ch. 2), with |k| <= 2**52
# (``domain._MAX_GRID_CELLS``) and c at least 2**-500:
# - k != 0: |e[k] - k*c| <= |k*c| * 2**-51. Every float from k*c up keys at least k, and the
#   first lies within |k*c| * 2**-52 of it; a quotient more than |k| * 2**-53 below k, at
#   least half the spacing of the floats below k, rounds below k.
# - k = 0: |e[0]| <= c * 2**-1074. A negative x keys 0 only when x / c rounds to -0.0.
# - Computing fl(k * c) adds |k*c| * 2**-53.
# A point x keyed cx lies in [e[cx], e[cx + 1]), so k = cx and k = cx + 1 have |k*c| at most
# |x| * (1 + 2**-50) + c, and e[k] lies within 1.26 * (|x| + c) * 2**-51 + c * 2**-1074 of
# fl(k * c): less than (|x| + 2 * c) * _EDGE_MARGIN as computed, a normal float rounded once.
# Rounding is monotone and edges are floats, so fl(fl(cx * c) + margin) >= e[cx] and
# fl(fl((cx + 1) * c) - margin) <= e[cx + 1].
_EDGE_MARGIN = 2.0**-50


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
    best so far. ``pos`` keys to ``(cx, cy)``, so with ``e[k]`` the least
    float keyed at least ``k`` it lies in ``[e[cx], e[cx + 1])``, and an
    entry of column ``cx - 1`` lies below ``e[cx]``, one of ``cx + 1`` at or
    above ``e[cx + 1]``; rows alike. Each gap runs to a bound on its edge,
    ``k * cell_m`` moved toward ``pos`` by the margin derived above, and
    counts as 0 where that bound passes ``pos``. Rounded subtraction, product
    and sum are monotone, so no entry's computed dist2 is below the bound
    computed from the gaps. An entry at exactly the bound may still win on
    its id, so the skip is strict.
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
                # Edge bounds: left and below at least e[cx] and e[cy], right and above at
                # most e[cx + 1] and e[cy + 1].
                c = grid.cell_m
                t = (abs(x) + 2.0 * c) * _EDGE_MARGIN
                left, right = cx * c + t, (cx + 1) * c - t
                t = (abs(y) + 2.0 * c) * _EDGE_MARGIN
                below, above = cy * c + t, (cy + 1) * c - t
                # Squared gaps indexed by the key offset, 0 where a bound passes pos: gx[-1] to
                # the left edge, gx[1] the right.
                lx, rx = x - left, right - x
                ly, ry = y - below, above - y
                gx = (0.0, rx * rx if rx > 0.0 else 0.0, lx * lx if lx > 0.0 else 0.0)
                gy = (0.0, ry * ry if ry > 0.0 else 0.0, ly * ly if ly > 0.0 else 0.0)
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
    hops = (2 if scheme is _DSC_CACHE else 1) if failed else 0
    return AcquisitionOutcome(_CHANNEL_SLOT, wait_ms + hops * latency, failed,
                              None, None, None, wait_ms)


def acquire_first_segment(scheme: SchemeId, client, world: Simulation,
                          arrival: ArrivalClass) -> AcquisitionOutcome:
    """Decide how a late client obtains the opening of segment 1.

    ``world`` is the running ``engine.Simulation``; the strategy only reads
    its ``now``, ``cfg``, ``cycle_ms``, ``clients``, ``index``, ``holders``,
    ``lps_table`` and ``pools``, and writes nothing (see the module
    docstring). Under dsc only, ``index`` holds every present client; it
    is None under the other schemes.
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
    if scheme is _NO_CACHE:
        return _slot_outcome(scheme, wait_ms, latency, False)
    fetch_ms = fetch_duration_ms(world.cfg, arrival.missed_ms)

    if scheme in _SEARCHERS:
        # A transfer ends its startup delay (two hops, three via a relay)
        # plus the fetch after now.
        found = _nearest(world, world.holders[client.video_id], client.position, client.id,
                         world.now + 2 * latency + fetch_ms, _free)
        if found is not None:
            return AcquisitionOutcome(_NEIGHBOR, 2 * latency, False, found[0],
                                      None, None, 0, 0, fetch_ms)
        if scheme is _DSC_CACHE:
            relay = _find_relay(world, client, world.now + 3 * latency + fetch_ms)
            if relay is not None:
                via, holder = relay
                return AcquisitionOutcome(_RELAY, 3 * latency, False, holder, via,
                                          None, 0, 0, fetch_ms)
        return _slot_outcome(scheme, wait_ms, latency, True)

    if scheme is _POR_CACHE:
        kind, lps_id, hops = _POR, None, 2
    else:
        kind, lps_id, hops = _LPS, _balancer.assign_lps(world.lps_table), 3

    queue_wait = world.pools[lps_id].projected_wait(world.now)
    if queue_wait > wait_ms:
        return _slot_outcome(scheme, wait_ms, latency, True)
    return AcquisitionOutcome(kind, hops * latency + queue_wait, False, None, None, lps_id,
                              0, queue_wait, fetch_ms)


def on_playback_started(scheme: SchemeId, cfg: SimConfig, rng) -> bool:
    """Whether the client starting playback keeps segment 1 available for others.

    Called exactly once per client at the instant playback begins. The
    probabilistic schemes consume one draw from ``rng``; the others leave
    the stream untouched.
    """
    if scheme is _ALL_CACHE:
        return True
    if scheme is _RANDOM_CACHE:
        return rng.random() < cfg.random_cache_prob
    if scheme is _DSC_CACHE:
        return rng.random() < DSC_CACHE_PROB
    return False
