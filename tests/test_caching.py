"""Acquisition strategies over hand-built worlds.

Each world is a real ``Simulation``, the object the engine hands a
strategy, holding a few clients at chosen coordinates with their
holder/uploading flags set directly, on one 60-minute 5-channel
timetable. Delay arithmetic uses the 20 ms default hop latency, so a
neighbor fetch costs 40 ms and a proxy fetch 60 ms.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbvod import caching
from sbvod.balancer import record_request
from sbvod.caching import (
    DSC_CACHE_PROB,
    AcquisitionOutcome,
    NeighborIndex,
    SchemeId,
    SourceKind,
    acquire_first_segment,
    fetch_duration_ms,
    normalize_scheme,
    on_playback_started,
)
from sbvod.domain import MS_PER_MINUTE, RandomSource, SimConfig
from sbvod.engine import (
    _ON_TIME,
    ClientRecord,
    Simulation,
    StreamPool,
    classify_arrival,
    run_simulation,
)

MIN = MS_PER_MINUTE
LATENCY = 20
# ceil(5 min * 1.5 / 54): the fetch of a client 5 minutes late.
_FETCH_5_MIN = 8_334


def make_world(clients, now_ms=5 * MIN, lps_counts=None, lps_capacity=20,
               pools=None, range_m=25.0, scheme=SchemeId.NO_CACHE):
    """A fresh ``scheme`` run at ``now_ms`` holding ``clients``: what the engine hands a strategy.

    ``lps_counts`` maps proxy ids 1..n to the requests already on each.
    ``pools`` replaces the run's pools it names (the forwarder's under None).
    Only a dsc run has the all-client index, so only its world fills one.
    The service area is six ranges in radius, 150 m at the default range:
    no strategy reads it, and every range keeps it a valid config.
    """
    cfg = SimConfig(msg_latency_ms=LATENCY, client_range_m=range_m, lf_radius_m=6.0 * range_m,
                    consumption_rate_mbps=1.5, bandwidth_mbps=54.0, random_cache_prob=0.5,
                    lps_capacity=lps_capacity, num_lps=len(lps_counts) if lps_counts else 2)
    world = Simulation(cfg, scheme)
    world.now = now_ms
    for c in clients:
        world.clients[c.id] = c
        if world.index is not None:
            world.index.add(c.id, c.position)
        # As in the engine, a video's grid holds its busy holders too.
        if c.holder:
            world.holders[c.video_id].add(c.id, c.position)
    for lps_id, count in (lps_counts or {}).items():
        for k in range(count):
            record_request(world.lps_table, lps_id, f"seed{lps_id}-{k}")
    world.pools.update(pools or {})
    return world


def dsc_world(clients, **kwargs):
    """``make_world`` of a dsc run; the direct-search schemes may share it, as they never read its index."""
    return make_world(clients, scheme=SchemeId.DSC_CACHE, **kwargs)


def acquire(scheme, newcomer, world):
    """``acquire_first_segment`` for an arrival at the world's clock."""
    return acquire_first_segment(scheme, newcomer, world, classify_arrival(world.segment_ms, world.now))


def block_keys(index, pos, reach):
    """Every key of the block ``reach`` cells around ``pos``, held or not.

    Listed by its own loops, not the searches' ``caching._BLOCKS``, so a
    reference built on it keeps every key when a search's walk drops one.
    """
    cx, cy = index._key(pos)
    return [(cx + dx, cy + dy) for dx in range(-reach, reach + 1) for dy in range(-reach, reach + 1)]


def cells_near(index, pos, reach=1):
    """The cells of the block ``reach`` cells around ``pos`` that hold an entry.

    A cell is dropped when its last entry leaves, so a key present is a cell in use.
    """
    return [cell for key in block_keys(index, pos, reach)
            if (cell := index._cells.get(key)) is not None]


def ids_near(index, pos, reach=1):
    """All ids in the block ``reach`` cells around ``pos``."""
    return [cid for cell in cells_near(index, pos, reach) for _x, _y, cid in cell]


def dist2(a, b):
    """Squared distance as ``caching._nearest`` computes it: products, not ``** 2``."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def client(cid, x=0.0, y=0.0, holder=False, uploading=False, video_id=1, playback_start_ms=0):
    # Playing since 0, a client stays until the 60-minute video ends.
    c = ClientRecord(id=cid, arrival_ms=0, position=(x, y), video_id=video_id,
                     playback_start_ms=playback_start_ms)
    c.holder = holder
    c.uploading = uploading
    return c


class TestNormalize:
    @pytest.mark.parametrize(
        "name,want",
        [
            ("no-cache", SchemeId.NO_CACHE),
            ("no", SchemeId.NO_CACHE),
            ("none", SchemeId.NO_CACHE),
            ("All", SchemeId.ALL_CACHE),
            ("allcache", SchemeId.ALL_CACHE),
            ("random-cache", SchemeId.RANDOM_CACHE),
            ("dsc", SchemeId.DSC_CACHE),
            ("PoR", SchemeId.POR_CACHE),
            (" proxy ", SchemeId.PROXY_CACHE),
        ],
    )
    def test_aliases(self, name, want):
        assert normalize_scheme(name) is want

    def test_unknown_lists_valid_names(self):
        with pytest.raises(ValueError) as exc:
            normalize_scheme("bogus")
        for s in SchemeId:
            assert s.value in str(exc.value)


class TestOutcomeInvariants:
    def test_failed_must_fall_back_to_slot(self):
        with pytest.raises(ValueError):
            AcquisitionOutcome(source_kind=SourceKind.NEIGHBOR, startup_delay_ms=40, failed=True)

    def test_slot_outcomes_carry_no_ids(self):
        with pytest.raises(ValueError):
            AcquisitionOutcome(source_kind=SourceKind.CHANNEL_SLOT, startup_delay_ms=0, holder_id=3)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            AcquisitionOutcome(source_kind=SourceKind.POR, startup_delay_ms=-1)


class TestOutcomeValues:
    """Outcomes are immutable tuples whose fields, defaults and repr stay fixed."""

    @pytest.mark.parametrize("kwargs,message", [
        (dict(source_kind=SourceKind.POR, startup_delay_ms=-1), "must be non-negative"),
        (dict(source_kind=SourceKind.RELAY, startup_delay_ms=60, failed=True, holder_id=3),
         "must fall back to the channel slot"),
        (dict(source_kind=SourceKind.CHANNEL_SLOT, startup_delay_ms=0, lps_id=1), "carry no source ids"),
        (dict(source_kind=SourceKind.CHANNEL_SLOT, startup_delay_ms=0, via_id=2), "carry no source ids"),
    ])
    def test_each_rule_names_itself(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            AcquisitionOutcome(**kwargs)

    def test_fields_cannot_be_assigned(self):
        out = AcquisitionOutcome(SourceKind.NEIGHBOR, 40, holder_id=2, fetch_ms=8)
        for value in (out, _ON_TIME):
            with pytest.raises(AttributeError):
                value.startup_delay_ms = 0
            with pytest.raises(AttributeError):
                value.note = "no instance dict"
        assert out == (SourceKind.NEIGHBOR, 40, False, 2, None, None, 0, 0, 8)
        assert _ON_TIME.startup_delay_ms == 0 and not _ON_TIME.failed

    def test_repr_of_each_kind_is_pinned(self):
        newcomer = client(1)
        neighbor = acquire(SchemeId.ALL_CACHE, newcomer,
                           make_world([newcomer, client(2, 10.0, 0.0, holder=True)]))
        relay = acquire(SchemeId.DSC_CACHE, newcomer,
                        dsc_world([newcomer, client(2, 20.0, 0.0), client(3, 40.0, 0.0, holder=True)]))
        slot = acquire(SchemeId.DSC_CACHE, newcomer, dsc_world([newcomer, client(2, 20.0, 0.0)]))
        lps = acquire(SchemeId.PROXY_CACHE, newcomer, make_world([newcomer], lps_counts={1: 3, 2: 1}))
        assert [repr(out) for out in (neighbor, relay, slot, lps)] == [
            "AcquisitionOutcome(source_kind=<SourceKind.NEIGHBOR: 'neighbor'>, startup_delay_ms=40, "
            "failed=False, holder_id=2, via_id=None, lps_id=None, slot_wait_ms=0, queue_wait_ms=0, "
            "fetch_ms=8334)",
            "AcquisitionOutcome(source_kind=<SourceKind.RELAY: 'relay'>, startup_delay_ms=60, "
            "failed=False, holder_id=3, via_id=2, lps_id=None, slot_wait_ms=0, queue_wait_ms=0, "
            "fetch_ms=8334)",
            "AcquisitionOutcome(source_kind=<SourceKind.CHANNEL_SLOT: 'channel_slot'>, "
            "startup_delay_ms=420040, failed=True, holder_id=None, via_id=None, lps_id=None, "
            "slot_wait_ms=420000, queue_wait_ms=0, fetch_ms=0)",
            "AcquisitionOutcome(source_kind=<SourceKind.LPS: 'lps'>, startup_delay_ms=60, "
            "failed=False, holder_id=None, via_id=None, lps_id=2, slot_wait_ms=0, queue_wait_ms=0, "
            "fetch_ms=8334)",
        ]


class TestFetchDuration:
    def test_scales_with_link_ratio(self):
        cfg = SimConfig(consumption_rate_mbps=1.5, bandwidth_mbps=54.0)
        # 6 minutes of content at 1.5 Mbps crosses a 54 Mbps link 36x
        # faster than real time.
        assert fetch_duration_ms(cfg, 6 * MIN) == 10_000

    def test_zero_and_rounding(self):
        cfg = SimConfig(consumption_rate_mbps=1.5, bandwidth_mbps=54.0)
        assert fetch_duration_ms(cfg, 0) == 0
        assert fetch_duration_ms(cfg, 1) == 1  # ceil of 1/36


class TestNoCache:
    def test_five_minutes_late_waits_seven(self):
        newcomer = client(99, 0.0, 0.0)
        world = make_world([newcomer], now_ms=5 * MIN)
        out = acquire(SchemeId.NO_CACHE, newcomer, world)
        assert out.source_kind is SourceKind.CHANNEL_SLOT
        assert out.startup_delay_ms == 7 * MIN
        assert not out.failed

    def test_on_time_client_rejected(self):
        newcomer = client(99)
        world = make_world([newcomer], now_ms=12 * MIN)
        with pytest.raises(ValueError, match="late clients"):
            acquire(SchemeId.NO_CACHE, newcomer, world)


class TestNeighborSchemes:
    def test_free_holder_two_hops(self):
        newcomer = client(1, 0.0, 0.0)
        world = make_world([newcomer, client(2, 10.0, 0.0, holder=True)])
        out = acquire(SchemeId.ALL_CACHE, newcomer, world)
        assert out.source_kind is SourceKind.NEIGHBOR
        assert out.startup_delay_ms == 2 * LATENCY == 40
        assert out.holder_id == 2
        assert not out.failed

    def test_prefers_nearest_holder(self):
        newcomer = client(1)
        world = make_world(
            [newcomer, client(2, 12.0, 0.0, holder=True), client(3, 5.0, 0.0, holder=True)]
        )
        out = acquire(SchemeId.ALL_CACHE, newcomer, world)
        assert out.holder_id == 3

    def test_equidistant_tie_breaks_to_smaller_id(self):
        newcomer = client(1)
        world = make_world(
            [newcomer, client(5, 0.0, 8.0, holder=True), client(3, 8.0, 0.0, holder=True)]
        )
        out = acquire(SchemeId.ALL_CACHE, newcomer, world)
        assert out.holder_id == 3

    def test_zero_clients_fails_with_probe_cost(self):
        newcomer = client(1)
        world = make_world([], now_ms=5 * MIN)
        out = acquire(SchemeId.ALL_CACHE, newcomer, world)
        assert out.failed
        assert out.source_kind is SourceKind.CHANNEL_SLOT
        assert out.startup_delay_ms == 7 * MIN + 1 * LATENCY

    def test_uploading_holder_is_skipped(self):
        newcomer = client(1)
        world = make_world(
            [newcomer, client(2, 5.0, 0.0, holder=True, uploading=True),
             client(3, 15.0, 0.0, holder=True)]
        )
        out = acquire(SchemeId.ALL_CACHE, newcomer, world)
        assert out.holder_id == 3

    def test_only_uploading_holders_means_failure(self):
        newcomer = client(1)
        world = make_world([newcomer, client(2, 5.0, 0.0, holder=True, uploading=True)])
        out = acquire(SchemeId.ALL_CACHE, newcomer, world)
        assert out.failed

    def test_out_of_range_holder_ignored(self):
        newcomer = client(1)
        world = make_world([newcomer, client(2, 26.0, 0.0, holder=True)])
        out = acquire(SchemeId.ALL_CACHE, newcomer, world)
        assert out.failed

    def test_holder_of_other_video_ignored(self):
        newcomer = client(1)
        world = make_world([newcomer, client(2, 5.0, 0.0, holder=True, video_id=2)])
        out = acquire(SchemeId.ALL_CACHE, newcomer, world)
        assert out.failed

    def test_holder_leaving_before_transfer_ends_is_skipped(self):
        # 65 min is 5 min late, like 5 min: the fetch takes 8,334 ms and the
        # transfer ends 40 ms + 8,334 ms from now. Holder 2 started at 5 min
        # and leaves at 65 min, so the farther holder 3 serves.
        now = 65 * MIN
        newcomer = client(1, playback_start_ms=None)
        leaving = client(2, 5.0, 0.0, holder=True, playback_start_ms=5 * MIN)
        staying = client(3, 15.0, 0.0, holder=True, playback_start_ms=10 * MIN)
        out = acquire(SchemeId.ALL_CACHE, newcomer,
                                    make_world([newcomer, leaving, staying], now_ms=now))
        assert out.holder_id == 3
        out = acquire(SchemeId.ALL_CACHE, newcomer,
                                    make_world([newcomer, leaving], now_ms=now))
        assert out.failed
        # A holder whose playback ends as the transfer ends leaves with it,
        # so it is skipped too; one that ends 1 ms later serves.
        leaving.playback_start_ms = now + 2 * LATENCY + _FETCH_5_MIN - 60 * MIN
        out = acquire(SchemeId.ALL_CACHE, newcomer,
                                    make_world([newcomer, leaving, staying], now_ms=now))
        assert out.holder_id == 3
        leaving.playback_start_ms += 1
        out = acquire(SchemeId.ALL_CACHE, newcomer,
                                    make_world([newcomer, leaving, staying], now_ms=now))
        assert out.holder_id == 2

    def test_random_cache_uses_same_search(self):
        newcomer = client(1)
        world = make_world([newcomer, client(2, 10.0, 0.0, holder=True)])
        out = acquire(SchemeId.RANDOM_CACHE, newcomer, world)
        assert out.source_kind is SourceKind.NEIGHBOR
        assert out.startup_delay_ms == 40


class TestDscRelay:
    def test_two_hop_reach(self):
        # Holder at 40 m is out of direct range; the relay at 20 m sees it.
        newcomer = client(1, 0.0, 0.0)
        via = client(2, 20.0, 0.0)
        holder = client(3, 40.0, 0.0, holder=True)
        world = dsc_world([newcomer, via, holder])
        out = acquire(SchemeId.DSC_CACHE, newcomer, world)
        assert out.source_kind is SourceKind.RELAY
        assert out.startup_delay_ms == 3 * LATENCY == 60
        assert out.via_id == 2
        assert out.holder_id == 3

    def test_via_leaving_before_transfer_ends_is_skipped(self):
        # The relayed transfer ends 60 ms + 8,334 ms after 65 min. Via 2 is
        # nearest but leaves at 65 min, so the relay goes through via 3.
        now = 65 * MIN
        newcomer = client(1, playback_start_ms=None)
        leaving = client(2, 20.0, 0.0, playback_start_ms=5 * MIN)
        staying = client(3, 20.0, 5.0, playback_start_ms=10 * MIN)
        holder = client(4, 40.0, 0.0, holder=True, playback_start_ms=10 * MIN)
        out = acquire(SchemeId.DSC_CACHE, newcomer,
                                    dsc_world([newcomer, leaving, staying, holder], now_ms=now))
        assert (out.via_id, out.holder_id) == (3, 4)
        out = acquire(SchemeId.DSC_CACHE, newcomer,
                                    dsc_world([newcomer, leaving, holder], now_ms=now))
        assert out.failed
        # A via whose playback ends as the relayed transfer ends is skipped;
        # one that ends 1 ms later serves.
        leaving.playback_start_ms = now + 3 * LATENCY + _FETCH_5_MIN - 60 * MIN
        out = acquire(SchemeId.DSC_CACHE, newcomer,
                                    dsc_world([newcomer, leaving, staying, holder], now_ms=now))
        assert (out.via_id, out.holder_id) == (3, 4)
        leaving.playback_start_ms += 1
        out = acquire(SchemeId.DSC_CACHE, newcomer,
                                    dsc_world([newcomer, leaving, staying, holder], now_ms=now))
        assert (out.via_id, out.holder_id) == (2, 4)
        # A relay holder that leaves first is skipped the same way.
        holder.playback_start_ms = 5 * MIN
        out = acquire(SchemeId.DSC_CACHE, newcomer,
                                    dsc_world([newcomer, leaving, staying, holder], now_ms=now))
        assert out.failed

    def test_direct_holder_preferred_over_relay(self):
        newcomer = client(1)
        world = dsc_world(
            [newcomer, client(2, 10.0, 0.0, holder=True), client(3, 20.0, 0.0),
             client(4, 40.0, 0.0, holder=True)]
        )
        out = acquire(SchemeId.DSC_CACHE, newcomer, world)
        assert out.source_kind is SourceKind.NEIGHBOR
        assert out.holder_id == 2

    def test_failure_burns_two_probe_hops(self):
        newcomer = client(1)
        world = dsc_world([newcomer, client(2, 20.0, 0.0)], now_ms=5 * MIN)
        out = acquire(SchemeId.DSC_CACHE, newcomer, world)
        assert out.failed
        assert out.startup_delay_ms == 7 * MIN + 2 * LATENCY

    def test_relay_at_the_largest_range_stays_finite(self):
        # The relay measures from the newcomer to holder 3 near the far
        # corner of cell (2, 2), 2.99 cells out on each axis, and drops it as
        # beyond two cells; via 2 reaches holder 4. At the largest range a
        # validated config allows, every squared distance stays finite.
        r = 2.0**509
        cell = NeighborIndex(r).cell_m
        newcomer = client(1)
        world = dsc_world([newcomer, client(2, -0.7 * cell, -0.7 * cell),
                           client(3, 2.99 * cell, 2.99 * cell, holder=True),
                           client(4, -1.4 * cell, -1.4 * cell, holder=True)], range_m=r)
        out = acquire(SchemeId.DSC_CACHE, newcomer, world)
        assert (out.source_kind, out.via_id, out.holder_id) == (SourceKind.RELAY, 2, 4)

    def test_success_superset_of_direct_search(self):
        # On any fixed world, a scheme with the relay option cannot fail
        # where the direct-only search succeeded.
        rng = random.Random(2024)
        for _ in range(200):
            people = [
                client(i, rng.uniform(-60, 60), rng.uniform(-60, 60), holder=rng.random() < 0.3)
                for i in range(2, rng.randint(3, 12))
            ]
            newcomer = client(1, rng.uniform(-30, 30), rng.uniform(-30, 30))
            world = dsc_world([newcomer] + people)
            direct = acquire(SchemeId.ALL_CACHE, newcomer, world)
            relayed = acquire(SchemeId.DSC_CACHE, newcomer, world)
            if not direct.failed:
                assert not relayed.failed


def _ref_candidates(world, pos, skip_id, until_ms):
    """Every present client in range that stays past ``until_ms``, sorted by (dist2, id)."""
    r = world.cfg.client_range_m
    r2 = r * r
    out = []
    for cid in ids_near(world.index, pos):
        if cid == skip_id:
            continue
        rec = world.clients.get(cid)
        # In a live run the arriving client has no playback yet and holds nothing.
        if rec is None or rec.playback_start_ms is None:
            continue
        d2 = dist2(pos, rec.position)
        if d2 <= r2 and rec.playback_start_ms + world.cycle_ms > until_ms:
            out.append((d2, cid, rec))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def _ref_nearest_free_holder(world, pos, video_id, skip_id, until_ms):
    for _d2, cid, rec in _ref_candidates(world, pos, skip_id, until_ms):
        if rec.holder and rec.video_id == video_id and not rec.uploading:
            return cid
    return None


def _ref_find_relay(world, newcomer, video_id, until_ms):
    for _d2, zid, zrec in _ref_candidates(world, newcomer.position, newcomer.id, until_ms):
        holder = _ref_nearest_free_holder(world, zrec.position, video_id, zid, until_ms)
        if holder is not None and holder != newcomer.id:
            return zid, holder
    return None


def _ref_outcome(scheme, newcomer, world):
    """(kind, holder, via, failed, delay) the reference search leads to at the world's clock."""
    arrival = classify_arrival(world.segment_ms, world.now)
    latency = world.cfg.msg_latency_ms
    done = world.now + fetch_duration_ms(world.cfg, arrival.missed_ms)  # plus the hops
    video = newcomer.video_id
    holder = _ref_nearest_free_holder(world, newcomer.position, video, newcomer.id,
                                      done + 2 * latency)
    if holder is not None:
        return SourceKind.NEIGHBOR, holder, None, False, 2 * latency
    if scheme is SchemeId.DSC_CACHE:
        relay = _ref_find_relay(world, newcomer, video, done + 3 * latency)
        if relay is not None:
            return SourceKind.RELAY, relay[1], relay[0], False, 3 * latency
    hops = 2 if scheme is SchemeId.DSC_CACHE else 1
    return SourceKind.CHANNEL_SLOT, None, None, True, arrival.wait_ms + hops * latency


def _random_point(rng):
    # Most points sit on a 12.5 m lattice: cell edges, equal-distance ties
    # and exact-range pairs; the rest anywhere, negatives included.
    if rng.random() < 0.7:
        return 12.5 * rng.randint(-4, 4), 12.5 * rng.randint(-4, 4)
    return rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)


_STARTS = (5 * MIN, 5 * MIN + 2 * LATENCY + _FETCH_5_MIN, 5 * MIN + 3 * LATENCY + _FETCH_5_MIN,
           *(10 * MIN,) * 5)


def _visit_order_worlds():
    """(newcomer, people) where the grid visits a relay via before the one that must win.

    The newcomer sits in cell (0, 0) and each via has its own holder out of
    the newcomer's range. Cells are visited nearest first: cell (0, 0), then
    the edge cells from x = -1, then the corners.
    """
    newcomer = client(1, 12.5, 12.5)

    def at(cid, x, holder=False, y=12.5):
        return client(cid, x, y, holder=holder, playback_start_ms=10 * MIN)

    # Via 3, in cell (0, 0), is 17 m away; via 2, in cell (1, 0), is 13.5 m away.
    yield newcomer, [at(3, 0.5, y=0.5), at(5, -16.5, True, y=0.5), at(2, 26.0), at(4, 46.0, True)]
    # The two vias tie at 15 m in cells (-1, 0) and (1, 0): via 2 wins either way round.
    for left, right in ((2, 3), (3, 2)):
        yield newcomer, [at(left, -2.5), at(4, -22.5, True), at(right, 27.5), at(5, 47.5, True)]


def test_search_matches_sort_every_candidate_reference():
    rng = random.Random(4)
    kinds = {k: 0 for k in SourceKind}
    worlds = list(_visit_order_worlds())
    for _ in range(600):
        held, busy = rng.random(), rng.random()
        # At 65 min, playback that started at 5 min has ended; one that
        # started 40 ms + a fetch later ends as a direct transfer would, and
        # 60 ms + a fetch later as a relayed one would.
        people = [
            client(cid, *_random_point(rng), holder=rng.random() < held,
                   uploading=rng.random() < busy, video_id=rng.randint(1, 3),
                   playback_start_ms=rng.choice(_STARTS))
            for cid in rng.sample(range(2, 200), rng.randint(0, 50))
        ]
        worlds.append((client(1, *_random_point(rng)), people))
    for newcomer, people in worlds:
        world = dsc_world([newcomer] + people, now_ms=65 * MIN)
        for scheme in (SchemeId.ALL_CACHE, SchemeId.RANDOM_CACHE, SchemeId.DSC_CACHE):
            out = acquire(scheme, newcomer, world)
            got = (out.source_kind, out.holder_id, out.via_id, out.failed, out.startup_delay_ms)
            assert got == _ref_outcome(scheme, newcomer, world)
            kinds[out.source_kind] += 1
    # Every branch of the search is exercised, not just the easy one.
    assert min(kinds[k] for k in (SourceKind.NEIGHBOR, SourceKind.RELAY, SourceKind.CHANNEL_SLOT)) > 40


def test_whole_run_choices_match_sort_every_candidate_reference(monkeypatch):
    # Seven videos leave most in-range clients holding another video, so a
    # dsc run relays often. The engine never reads via_id and the trace never
    # prints it, so only this check sees a wrong forwarder in a live run.
    cfg = SimConfig(num_videos=7, arrival_rate_per_min=10.0, client_range_m=25.0,
                    horizon_minutes=90.0, seed=7)
    kinds = Counter()
    real = caching.acquire_first_segment

    def checked(scheme, c, world, arrival):
        # A client joins its video's holder grid only as its playback starts,
        # so the relay search never meets the arriving client as a holder.
        assert c.id not in ids_near(world.holders[c.video_id], c.position, 2)
        out = real(scheme, c, world, arrival)
        got = (out.source_kind, out.holder_id, out.via_id, out.failed, out.startup_delay_ms)
        assert got == _ref_outcome(scheme, c, world)
        kinds[out.source_kind] += 1
        return out

    monkeypatch.setattr(caching, "acquire_first_segment", checked)
    run_simulation(cfg, SchemeId.DSC_CACHE)
    assert min(kinds[k] for k in (SourceKind.NEIGHBOR, SourceKind.RELAY, SourceKind.CHANNEL_SLOT)) > 100


# The default grid's cell width: 25 * (1 + 2**-20) m, a float exactly.
_CELL = NeighborIndex(25.0).cell_m
_SPOT = st.integers(-24, 24).map(lambda k: 2.5 * k) | st.floats(-60.0, 60.0)


@st.composite
def _thinned_grid(draw):
    """(query, skip, people): clients around a query, each ``(id, x, y, gone, busy, start)``.

    Most coordinates sit on a 2.5 m lattice, for equal-distance ties and
    pairs at exactly the range. Every client holds, and the gone ones leave
    after all have joined, so a cell can empty and drop out of the grid.
    """
    ids = draw(st.lists(st.integers(1, 40), unique=True, max_size=14))
    people = [(cid, draw(_SPOT), draw(_SPOT), draw(st.booleans()), draw(st.booleans()),
               draw(st.sampled_from([5 * MIN, 10 * MIN]))) for cid in ids]
    return (draw(_SPOT), draw(_SPOT)), draw(st.sampled_from([0, *ids])), people


@given(_thinned_grid())
# Id 3, in the query's own cell, is found first, d = _CELL - 15 m to the left.
# Id 2 sits exactly on the left edge of column 1, _CELL (see
# test_edge_is_the_least_float_keyed_at_least_k), d to the right: that
# column's edge bound equals the best dist2, and id 2 wins the tie on its id.
@example(((15.0, 10.0), 0, [(3, 15.0 - (_CELL - 15.0), 10.0, False, False, 10 * MIN),
                            (2, _CELL, 10.0, False, False, 10 * MIN)]))
# Id 2, the only one in range, shares a neighbour cell with id 1, out of
# range: there is no candidate, so no skip, until that cell is probed.
@example(((30.0, 10.0), 0, [(1, 2.0, 10.0, False, False, 10 * MIN),
                            (2, 20.0, 10.0, False, False, 10 * MIN)]))
@settings(max_examples=200)
def test_pruned_search_is_the_reference_first_server(case):
    q, skip, people = case
    world = dsc_world([client(cid, x, y, holder=True, uploading=busy, playback_start_ms=start)
                       for cid, x, y, _gone, busy, start in people], now_ms=65 * MIN)
    for cid, x, y, gone, *_ in people:
        if gone:
            world.index.remove(cid, (x, y))
            world.holders[1].remove(cid, (x, y))
            del world.clients[cid]
    # A playback that started at 5 min ends at 65 min, as the transfer would.
    ranked = _ref_candidates(world, q, skip, world.now)
    free = caching._nearest(world, world.holders[1], q, skip, world.now, caching._free)
    assert free == next(((cid, True) for _d2, cid, rec in ranked if not rec.uploading), None)

    def odd(rec):
        return rec.id if rec.id % 2 else None

    found = caching._nearest(world, world.index, q, skip, world.now, odd)
    assert found == next(((cid, cid) for _d2, cid, _rec in ranked if cid % 2), None)


def _outward(v, d):
    """``v`` one float step further along the sign of ``d``; ``v`` itself when ``d`` is 0."""
    return math.nextafter(v, math.copysign(math.inf, d)) if d else v


@st.composite
def _relay_lattice(draw):
    """(range, newcomer, people) around a relay search, each person ``(id, x, y, holder, busy, start)``.

    Offsets from the newcomer are quarter ranges. Via 2 sits exactly one
    range out along an axis and holder 3 exactly two, or one float step
    past. The others sit on the lattice, some a step further out, holders
    or not, busy or not, staying or leaving. Ranges of 2**-500 m and
    2**509 m carry the same shapes to the validated extremes.
    """
    r = draw(st.sampled_from([25.0, 2.0**-500, 2.0**509]))
    q = r / 4
    x0, y0 = draw(st.integers(-8, 8)) * q, draw(st.integers(-8, 8)) * q
    ax, ay = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
    past = draw(st.booleans())
    hx, hy = x0 + 2 * ax * r, y0 + 2 * ay * r
    people = [(2, x0 + ax * r, y0 + ay * r, False, False, 10 * MIN),
              (3, _outward(hx, ax) if past else hx, _outward(hy, ay) if past else hy, True,
               draw(st.booleans()), draw(st.sampled_from(_STARTS)))]
    for cid in range(4, 4 + draw(st.integers(0, 8))):
        dx, dy = draw(st.integers(-10, 10)), draw(st.integers(-10, 10))
        x, y = x0 + dx * q, y0 + dy * q
        if draw(st.booleans()):
            x, y = _outward(x, dx), _outward(y, dy)
        people.append((cid, x, y, draw(st.booleans()), draw(st.booleans()),
                       draw(st.sampled_from(_STARTS))))
    return r, (x0, y0), people


@given(_relay_lattice())
@example((25.0, (0.0, 0.0), [(2, 25.0, 0.0, False, False, 10 * MIN),
                             (3, 50.0, 0.0, True, False, 10 * MIN)]))
@example((2.0**-500, (0.0, 0.0), [(2, 0.0, -(2.0**-500), False, False, 10 * MIN),
                                  (3, 0.0, -(2.0**-499), True, False, 10 * MIN)]))
@example((2.0**509, (2.0**507, 0.0), [(2, 2.0**507 + 2.0**509, 0.0, False, False, 10 * MIN),
                                      (3, 2.0**507 + 2.0**510, 0.0, True, False, 10 * MIN)]))
@settings(max_examples=300)
def test_relay_keeps_every_holder_a_via_reaches(case):
    # The relay drops holders more than two cells from the newcomer before
    # trying any via; the reference scans every present client instead.
    r, at, people = case
    newcomer = client(1, *at, playback_start_ms=None)
    world = dsc_world([newcomer] + [client(cid, x, y, holder=held, uploading=busy,
                                           playback_start_ms=start)
                                    for cid, x, y, held, busy, start in people],
                      now_ms=65 * MIN, range_m=r)
    until = world.now + 3 * LATENCY + _FETCH_5_MIN
    assert caching._find_relay(world, newcomer, until) == _ref_find_relay(world, newcomer, 1, until)


class _Probes(dict):
    """A grid's cells that count the keys probed with ``get``, as the searches read them."""

    def __init__(self, cells):
        super().__init__(cells)
        self.probed = Counter()

    def get(self, key, default=None):
        self.probed[key] += 1
        return super().get(key, default)


class TestRelaySearchCost:
    """The relay probes the client's holder block once, and searches the index only for a usable holder."""

    @staticmethod
    def spy(monkeypatch, world):
        """(holder probes, index probes, [point searched]): key counts, and each ``_nearest`` call."""
        probes = []
        for grid in (world.holders[1], world.index):
            cells = _Probes(grid._cells)
            monkeypatch.setattr(grid, "_cells", cells)
            probes.append(cells.probed)
        searched, nearest = [], caching._nearest

        def searching(world, grid, pos, *rest):
            searched.append(pos)
            return nearest(world, grid, pos, *rest)

        monkeypatch.setattr(caching, "_nearest", searching)
        return probes[0], probes[1], searched

    def test_holder_grid_is_listed_once_for_every_via(self, monkeypatch):
        # Three vias in range; of the holders, only 7, in via 4's range, is free.
        newcomer = client(1)
        world = dsc_world([newcomer, client(2, 20.0, 0.0), client(3, -20.0, 0.0),
                           client(4, 0.0, 20.0),
                           client(5, 40.0, 0.0, holder=True, uploading=True),
                           client(6, -40.0, 0.0, holder=True, uploading=True),
                           client(7, 0.0, 40.0, holder=True)])
        held, indexed, searched = self.spy(monkeypatch, world)
        assert caching._find_relay(world, newcomer, world.now) == (4, 7)
        # Each key of the 5x5 holder block is probed once, corners too: each
        # via scans the list of free holders.
        assert held == Counter(block_keys(world.holders[1], newcomer.position, 2))
        # The one search finds via 4, 20 m away, in the newcomer's own cell,
        # probed first. From then on it probes, once each, only the keys whose
        # cell lies within 20 m: the newcomer sits on the lower-left corner
        # of its cell, so columns and rows -1 and 0 are 0 m away, and 1 a cell.
        c = world.index.cell_m

        def gap(k):
            # From the newcomer's coordinate 0 to the cell span [k * c, (k + 1) * c].
            return max(0.0, k * c, -(k + 1) * c)

        near = [(kx, ky) for kx, ky in block_keys(world.index, newcomer.position, 1)
                if gap(kx) * gap(kx) + gap(ky) * gap(ky) <= 20.0 * 20.0]
        assert sorted(near) == [(-1, -1), (-1, 0), (0, -1), (0, 0)]
        assert indexed == Counter(near)
        assert searched == [newcomer.position]

    def test_no_usable_holder_never_searches(self, monkeypatch):
        # Vias 2-4 are in range. Holder 5 is busy, 6 leaves as the transfer
        # would end, and 7 lies a hair beyond two cells: none is listed.
        now = 65 * MIN
        until = now + 3 * LATENCY + _FETCH_5_MIN
        past = math.nextafter(2.0 * NeighborIndex(25.0).cell_m, math.inf)
        newcomer = client(1, playback_start_ms=None)
        world = dsc_world([newcomer, client(2, 20.0, 0.0, playback_start_ms=10 * MIN),
                           client(3, -20.0, 0.0, playback_start_ms=10 * MIN),
                           client(4, 0.0, 25.0, playback_start_ms=10 * MIN),
                           client(5, 40.0, 0.0, holder=True, uploading=True,
                                  playback_start_ms=10 * MIN),
                           client(6, -40.0, 0.0, holder=True, playback_start_ms=until - 60 * MIN),
                           client(7, 0.0, past, holder=True, playback_start_ms=10 * MIN)],
                          now_ms=now)
        held, indexed, searched = self.spy(monkeypatch, world)
        assert caching._find_relay(world, newcomer, until) is None
        assert held == Counter(block_keys(world.holders[1], newcomer.position, 2))
        assert not indexed
        assert searched == []

    def test_no_holder_in_the_block_never_reads_the_index(self, monkeypatch):
        # Holder 3 sits three cells out, beyond the reach of via 2 or any
        # other client in the newcomer's range.
        newcomer = client(1)
        world = dsc_world([newcomer, client(2, 20.0, 0.0), client(3, 80.0, 0.0, holder=True)])
        monkeypatch.delattr(world, "index")
        assert caching._find_relay(world, newcomer, world.now) is None


class TestPoR:
    def test_idle_pool_two_hops(self):
        newcomer = client(1)
        world = make_world([newcomer], pools={None: StreamPool(20)})
        out = acquire(SchemeId.POR_CACHE, newcomer, world)
        assert out.source_kind is SourceKind.POR
        assert out.startup_delay_ms == 40
        assert out.queue_wait_ms == 0

    def test_busy_pool_adds_queue_wait(self):
        pool = StreamPool(1)
        now = 5 * MIN
        pool.reserve(0, now, now + 5000)
        newcomer = client(1)
        world = make_world([newcomer], now_ms=now, pools={None: pool})
        out = acquire(SchemeId.POR_CACHE, newcomer, world)
        assert out.source_kind is SourceKind.POR
        assert out.queue_wait_ms == 5000
        assert out.startup_delay_ms == 40 + 5000

    def test_queue_beyond_slot_falls_back(self):
        pool = StreamPool(1)
        now = 5 * MIN
        wait = 7 * MIN
        pool.reserve(0, now, now + wait + 1000)
        newcomer = client(1)
        world = make_world([newcomer], now_ms=now, pools={None: pool})
        out = acquire(SchemeId.POR_CACHE, newcomer, world)
        assert out.failed
        assert out.startup_delay_ms == wait + 1 * LATENCY


class TestProxy:
    def test_idle_lps_three_hops(self):
        newcomer = client(1)
        world = make_world([newcomer], lps_counts={1: 0, 2: 0})
        out = acquire(SchemeId.PROXY_CACHE, newcomer, world)
        assert out.source_kind is SourceKind.LPS
        assert out.startup_delay_ms == 3 * LATENCY == 60
        assert out.lps_id == 1  # tie broken to the smaller id

    def test_least_loaded_lps_chosen(self):
        newcomer = client(1)
        world = make_world([newcomer], lps_counts={1: 3, 2: 1})
        out = acquire(SchemeId.PROXY_CACHE, newcomer, world)
        assert out.lps_id == 2

    def test_full_pool_beyond_slot_falls_back(self):
        now = 5 * MIN
        wait = 7 * MIN
        pools = {1: StreamPool(1), 2: StreamPool(1)}
        pools[1].reserve(0, now, now + wait + 2000)
        pools[2].reserve(0, now, now + wait + 2000)
        newcomer = client(1)
        world = make_world([newcomer], now_ms=now, lps_counts={1: 0, 2: 0}, pools=pools)
        out = acquire(SchemeId.PROXY_CACHE, newcomer, world)
        assert out.failed
        assert out.startup_delay_ms == wait + 1 * LATENCY


class TestDeterminism:
    def test_same_world_same_outcome(self):
        rng = random.Random(7)
        people = [
            client(i, rng.uniform(-40, 40), rng.uniform(-40, 40), holder=rng.random() < 0.4)
            for i in range(2, 12)
        ]
        newcomer = client(1, 3.0, -2.0)
        for scheme in (SchemeId.ALL_CACHE, SchemeId.DSC_CACHE, SchemeId.RANDOM_CACHE):
            a = acquire(scheme, newcomer, make_world([newcomer] + people, scheme=scheme))
            b = acquire(scheme, newcomer, make_world([newcomer] + people, scheme=scheme))
            assert a == b


class TestRetention:
    CFG = SimConfig(random_cache_prob=0.5)

    def test_all_cache_always_holds(self):
        rng = RandomSource(1).substream("cache-retention")
        assert on_playback_started(SchemeId.ALL_CACHE, self.CFG, rng)

    def test_never_holders(self):
        rng = RandomSource(1).substream("cache-retention")
        for scheme in (SchemeId.NO_CACHE, SchemeId.POR_CACHE, SchemeId.PROXY_CACHE):
            assert not on_playback_started(scheme, self.CFG, rng)

    def test_random_cache_prob_zero_and_one(self):
        rng = RandomSource(1).substream("cache-retention")
        assert not on_playback_started(SchemeId.RANDOM_CACHE, SimConfig(random_cache_prob=0.0), rng)
        assert on_playback_started(SchemeId.RANDOM_CACHE, SimConfig(random_cache_prob=1.0), rng)

    def test_random_cache_long_run_fraction(self):
        rng = RandomSource(99).substream("cache-retention")
        n = 100_000
        held = sum(
            on_playback_started(SchemeId.RANDOM_CACHE, self.CFG, rng) for _ in range(n)
        )
        assert held / n == pytest.approx(0.5, abs=0.01)

    def test_dsc_long_run_fraction(self):
        rng = RandomSource(99).substream("cache-retention")
        n = 100_000
        held = sum(
            on_playback_started(SchemeId.DSC_CACHE, self.CFG, rng) for _ in range(n)
        )
        assert held / n == pytest.approx(DSC_CACHE_PROB, abs=0.01)


# A coordinate just below where the cell keys reach 2**40 at range 25 m.
_FAR_X = math.nextafter(2.0**40 * NeighborIndex(25.0).cell_m, -math.inf)


@st.composite
def _coordinate(draw, r):
    """One coordinate of a point a run at range ``r`` can hold."""
    kind = draw(st.sampled_from(["edge", "tiny", "far"]))
    if kind == "tiny":
        return draw(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]))
    if kind == "far":
        # Positions reach lf_radius, at most 2**52 ranges.
        return draw(st.floats(-(2.0**52) * r, 2.0**52 * r))
    # Within a few ulps of a cell edge, near 0 or where the key is a power of two.
    n = draw(st.integers(-3, 3) | st.integers(0, 51).map(lambda j: 2**j))
    x = draw(st.sampled_from([1, -1])) * n * NeighborIndex(r).cell_m
    for _ in range(draw(st.integers(0, 2))):
        x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
    return x


@st.composite
def _in_range_chain(draw):
    """(range, q, p, h) with p a hop of at most one range from q, h one from p."""
    r = draw(st.sampled_from([25.0, 1.0, 2.0**-500, 2.0**509]) | st.floats(2.0**-500, 2.0**509))
    hop = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0)
    q = (draw(_coordinate(r)), draw(_coordinate(r)))
    p = (q[0] + r * draw(hop), q[1] + r * draw(hop))
    h = (p[0] + r * draw(hop), p[1] + r * draw(hop))
    return r, q, p, h


class TestNeighborIndex:
    def test_add_query_remove(self):
        idx = NeighborIndex(25.0)
        idx.add(1, (0.0, 0.0))
        idx.add(2, (24.0, 0.0))
        idx.add(3, (80.0, 80.0))
        near = set(ids_near(idx, (0.0, 0.0)))
        assert {1, 2} <= near
        assert 3 not in near
        idx.remove(2, (24.0, 0.0))
        assert 2 not in set(ids_near(idx, (0.0, 0.0)))

    def test_negative_coordinates(self):
        idx = NeighborIndex(25.0)
        idx.add(1, (-10.0, -10.0))
        assert 1 in set(ids_near(idx, (-1.0, -1.0)))

    @pytest.mark.parametrize("r", [2.0**-500, 25.0, 2.0**509], ids=["2**-500", "25", "2**509"])
    def test_edge_is_the_least_float_keyed_at_least_k(self, r):
        # Keys 0, +-1 and +-2**j up to 2**52, the validated extreme, at the
        # least, the default and the largest range. At 2**509 m about 2**62
        # floats just below 0 key to 0: only a bisection finds the least fast.
        idx = NeighborIndex(r)
        c = idx.cell_m
        keys = [0, 1, -1, *(s * 2**j for j in range(1, 53) for s in (1, -1))]
        for k in keys:
            edge = idx._edges[k]
            assert math.floor(edge / c) >= k > math.floor(math.nextafter(edge, -math.inf) / c)
        assert sorted(idx._edges) == sorted(keys)
        # The default cell width is itself an edge, as the pruned-search example assumes.
        assert NeighborIndex(25.0)._edges[1] == _CELL

    def test_remove_missing_raises(self):
        idx = NeighborIndex(25.0)
        with pytest.raises(KeyError, match=r"client 9 not present in cell \(0, 0\)"):
            idx.remove(9, (0.0, 0.0))
        # An entry is its client's position as added: another point of the same cell misses it.
        idx.add(9, (1.0, 0.0))
        with pytest.raises(KeyError, match=r"client 9 not present in cell \(0, 0\)"):
            idx.remove(9, (0.0, 0.0))
        idx.remove(9, (1.0, 0.0))
        assert cells_near(idx, (0.0, 0.0)) == []

    @given(_in_range_chain())
    # A hair across the edge of cell -1, the holder at exactly the range.
    @example((25.0, (-1e-300, 0.0), (25.0, 0.0), (25.0, 0.0)))
    # Just below key 2**40, whose interval rounding narrows.
    @example((25.0, (_FAR_X, 0.0), (_FAR_X + 25.0, 0.0), (_FAR_X + 50.0, 0.0)))
    @settings(max_examples=300)
    def test_block_holds_every_point_in_range(self, case):
        # q -> p -> h are range-bounded hops, as in the relay search: p is
        # in the default block around q, and h in the block two cells out.
        r, q, p, h = case
        idx = NeighborIndex(r)
        idx.add(1, p)
        idx.add(2, h)
        r2 = r * r
        if dist2(p, q) <= r2:
            assert 1 in set(ids_near(idx, q))
            if dist2(h, p) <= r2:
                assert 2 in set(ids_near(idx, q, 2))
                # And within two cells of q, the relay's bound on its holders.
                assert dist2(h, q) <= 4.0 * idx.cell_m * idx.cell_m

    def test_block_is_superset_of_range(self):
        rng = random.Random(11)
        idx = NeighborIndex(25.0)
        pts = {}
        for cid in range(100):
            p = (rng.uniform(-150, 150), rng.uniform(-150, 150))
            pts[cid] = p
            idx.add(cid, p)
        for _ in range(30):
            q = (rng.uniform(-150, 150), rng.uniform(-150, 150))
            got = set(ids_near(idx, q))
            for cid, p in pts.items():
                if dist2(p, q) <= 25.0 * 25.0:
                    assert cid in got
