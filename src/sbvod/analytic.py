"""Analytic capacity model: cache placement, hit ratio, and blocking.

The model answers, without running the simulator, how many dedicated
unicast streams a given downlink can carry once the most popular first
segments are cached at the proxies, and optionally once a slice of the
link is reserved to keep broadcasting a few uncached videos.

Weights throughout are ``video.popularity * quality.request_prob``, the
probability that an arriving request asks for exactly that (video,
quality) item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domain import VideoSpec

# Guard for float floor artifacts when converting bandwidth ratios to
# whole stream slots.
_FLOOR_EPS = 1e-9


@dataclass
class PlacementMap:
    """Which items are cached at the proxies and which stay on broadcast.

    ``cached`` and ``broadcast`` are sets of ``(video_id, q_index)`` keys;
    an item is placed exactly when its key is in the set. ``lps_channels``
    records how many proxy channels replay each broadcast-selected item; it
    is set by :func:`select_broadcast_videos` and defaults to 1.
    """

    cached: set[tuple[int, int]] = field(default_factory=set)
    broadcast: set[tuple[int, int]] = field(default_factory=set)
    lps_channels: int = 1

    def is_cached(self, video_id: int, q_index: int) -> bool:
        return (video_id, q_index) in self.cached

    def is_broadcast(self, video_id: int, q_index: int) -> bool:
        return (video_id, q_index) in self.broadcast

    def is_served(self, video_id: int, q_index: int) -> bool:
        """Whether the item is cached or broadcast, i.e. never needs a dedicated stream."""
        key = (video_id, q_index)
        return key in self.cached or key in self.broadcast


@dataclass(frozen=True)
class CapacityReport:
    """Outputs of one capacity analysis, all rates in bits per second."""

    hit_ratio: float
    lambda_dedicated: float
    avg_stream_rate: float
    supported_streams: int
    blocking_prob: float
    overall_blocking: float
    broadcast_bandwidth: float
    lambda_broadcast: float
    avg_broadcast_rate: float
    dedicated_capacity: int
    mean_service_minutes: float


def weighted_items(videos: list[VideoSpec] | tuple[VideoSpec, ...]):
    """Yield (video, quality, weight) over the whole catalog."""
    for v in videos:
        for q in v.qualities:
            yield v, q, v.popularity * q.request_prob


def _by_weight(items) -> list:
    """Items in descending weight, ties broken by video id then quality index."""
    return sorted(items, key=lambda t: (-t[2], t[0].id, t[1].q_index))


def erlang_b(offered_load: float, servers: int) -> float:
    """Blocking probability of an N-server loss system at the given load.

    Uses the standard stable recurrence
    ``B(0) = 1;  B(n) = a B(n-1) / (n + a B(n-1))``
    which avoids the factorials of the textbook closed form. With zero
    servers everything blocks, so ``B == 1`` for any positive load.
    """
    if not offered_load >= 0:
        raise ValueError("offered_load must be non-negative")
    if not servers >= 0:
        raise ValueError("servers must be non-negative")
    b = 1.0
    for n in range(1, servers + 1):
        b = offered_load * b / (n + offered_load * b)
    return b


def place_cache(
    videos: list[VideoSpec] | tuple[VideoSpec, ...],
    cache_capacity_bits: float,
) -> PlacementMap:
    """Greedy first-segment placement by request weight under a byte budget.

    Items are visited in descending weight (ties broken by video id then
    quality index, ascending) and each one that still fits is cached; an
    item that does not fit is skipped and the scan continues, so a small
    popular item can still land after a large one was passed over.
    """
    if not cache_capacity_bits >= 0:
        raise ValueError("cache_capacity_bits must be non-negative")
    placement = PlacementMap()
    remaining = float(cache_capacity_bits)
    for v, q, _w in _by_weight(weighted_items(videos)):
        if q.size_bits <= remaining:
            placement.cached.add((v.id, q.q_index))
            remaining -= q.size_bits
    return placement


def _served_weight(videos, served) -> float:
    """Request share of the items ``served(video_id, q_index)`` accepts.

    The rounded shares of a whole catalog may sum a hair past 1, so the
    share stops at 1.
    """
    return min(1.0, math.fsum(w for v, q, w in weighted_items(videos) if served(v.id, q.q_index)))


def hit_ratio(videos, placement: PlacementMap) -> float:
    """Probability that an arriving request finds its first segment cached."""
    return _served_weight(videos, placement.is_cached)


# Loss-model figures of a report that opens no dedicated stream.
_NO_TRAFFIC = (0.0, 0.0, 0, 0.0)


def _residual_traffic(videos, served, lambda_per_sec: float, bandwidth_bits: float,
                      mean_service_minutes: float, reserved_bits: float = 0.0):
    """Served weight, and the loss model of the requests nothing else serves.

    ``served(video_id, q_index)`` says whether a request for that item is
    absorbed before it reaches the dedicated link, whose capacity is
    ``bandwidth_bits`` less ``reserved_bits``. Returns ``(served_weight,
    (lambda_rest, avg_rate, streams, load))``, or ``(served_weight, None)``
    when no request reaches the link.
    """
    if not lambda_per_sec >= 0:
        raise ValueError("lambda_per_sec must be non-negative")
    if not bandwidth_bits > 0:
        raise ValueError("bandwidth_bits must be positive")
    if not mean_service_minutes > 0:
        raise ValueError("mean_service_minutes must be positive")

    served_weight = _served_weight(videos, served)
    lam = lambda_per_sec * (1.0 - served_weight)
    rest_weight_rate = math.fsum(
        w * q.stream_rate_bps for v, q, w in weighted_items(videos) if not served(v.id, q.q_index)
    )
    if lam <= 0.0 or rest_weight_rate <= 0.0:
        return served_weight, None
    # lambda/lambda_miss times the weighted miss rate, i.e. the mean rate
    # of the streams that actually reach the dedicated link.
    avg_rate = (lambda_per_sec / lam) * rest_weight_rate
    n_streams = int(math.floor((bandwidth_bits - reserved_bits) / avg_rate + _FLOOR_EPS))
    return served_weight, (lam, avg_rate, n_streams, lam * mean_service_minutes * 60.0)


def _capacity_report(videos, placement: PlacementMap, lambda_per_sec: float,
                     bandwidth_bits: float, mean_service_minutes: float, b_broad: float):
    """The report when ``b_broad`` bits of the link replay broadcast-flagged items."""
    hit, dedicated = _residual_traffic(
        videos, placement.is_cached, lambda_per_sec, bandwidth_bits, mean_service_minutes
    )
    if b_broad > bandwidth_bits:
        raise ValueError("broadcast reservation exceeds the link bandwidth")
    # Every replayed item has a positive rate, so with nothing replayed the
    # served items are the cached ones and the dedicated model is the whole.
    rest = dedicated
    if b_broad != 0.0:
        _served, rest = _residual_traffic(
            videos, placement.is_served, lambda_per_sec, bandwidth_bits, mean_service_minutes,
            reserved_bits=b_broad,
        )
    lam_ded, avg_ded, n_ded, _load = dedicated or _NO_TRAFFIC
    lam_broad, avg_rate, n_streams, load = rest or _NO_TRAFFIC
    p_block = erlang_b(load, n_streams) if rest else 0.0
    return CapacityReport(
        hit_ratio=hit,
        lambda_dedicated=lam_ded,
        avg_stream_rate=avg_ded,
        supported_streams=n_ded,
        blocking_prob=p_block,
        overall_blocking=lam_broad * p_block / lambda_per_sec if rest else 0.0,
        broadcast_bandwidth=b_broad,
        lambda_broadcast=lam_broad,
        avg_broadcast_rate=avg_rate,
        dedicated_capacity=n_streams,
        mean_service_minutes=mean_service_minutes,
    )


def dedicated_stream_analysis(
    videos,
    placement: PlacementMap,
    lambda_per_sec: float,
    bandwidth_bits: float,
    mean_service_minutes: float,
) -> CapacityReport:
    """Capacity of the dedicated downlink once cache hits are peeled off.

    The surviving request rate is ``lambda * (1 - hit_ratio)``; those
    requests ask for a non-cached item, so the average stream they open is
    the weight-normalised rate over non-cached items. The downlink then
    holds ``floor(bandwidth / avg_rate)`` concurrent streams and blocking
    follows the loss formula at load ``lambda_miss * service_time``.

    When everything is cached no dedicated stream is ever opened; the
    report degenerates to zeros by convention. Broadcast flags are ignored.
    """
    return _capacity_report(videos, placement, lambda_per_sec, bandwidth_bits,
                            mean_service_minutes, 0.0)


def broadcast_reserved_bits(videos, placement: PlacementMap) -> float:
    """Bandwidth consumed by replaying the broadcast-selected items."""
    replayed = (
        q.stream_rate_bps * placement.lps_channels
        for v, q, _w in weighted_items(videos)
        if (not placement.is_cached(v.id, q.q_index))
        and placement.is_broadcast(v.id, q.q_index)
    )
    return math.fsum(replayed)


def select_broadcast_videos(
    videos,
    placement: PlacementMap,
    reserved_broadcast_bits: float,
    lps_channels: int,
) -> PlacementMap:
    """Pick non-cached items to keep broadcasting inside a reserved budget.

    Mirrors the cache placement loop: walk non-cached items by descending
    weight and flag each one whose replay cost (rate x lps_channels) still
    fits; items that do not fit are skipped and the scan continues.
    """
    if not reserved_broadcast_bits >= 0:
        raise ValueError("reserved_broadcast_bits must be non-negative")
    if not lps_channels >= 1:
        raise ValueError("lps_channels must be at least 1")
    out = PlacementMap(cached=set(placement.cached), lps_channels=lps_channels)
    uncached = (t for t in weighted_items(videos) if not out.is_cached(t[0].id, t[1].q_index))
    spent = 0.0
    for v, q, _w in _by_weight(uncached):
        cost = q.stream_rate_bps * lps_channels
        if spent + cost <= reserved_broadcast_bits + 1e-6:
            out.broadcast.add((v.id, q.q_index))
            spent += cost
    return out


def broadcast_analysis(
    videos,
    placement: PlacementMap,
    lambda_per_sec: float,
    bandwidth_bits: float,
    mean_service_minutes: float,
) -> CapacityReport:
    """Full report when part of the link keeps broadcasting selected items.

    Requests for cached items are absorbed by the proxies and requests for
    broadcast-flagged items ride the reserved slice, so only the remainder
    opens dedicated streams on what is left of the link.
    """
    return _capacity_report(videos, placement, lambda_per_sec, bandwidth_bits,
                            mean_service_minutes, broadcast_reserved_bits(videos, placement))
