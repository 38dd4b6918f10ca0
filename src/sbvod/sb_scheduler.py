"""Staggered-broadcast timetable: K channels cycling one video's K segments.

Channel i (1-based) starts the video at offset (i - 1) * D from the epoch,
where D is the segment duration, so somewhere in the system segment 1
begins every D milliseconds. That bounds the worst-case wait of a client
that relies on broadcast alone to D, and the mean wait to D / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import MS_PER_MINUTE, VideoSpec


class NonDivisibleError(ValueError):
    """The video length does not split into the requested number of segments."""


class BeforeStartError(ValueError):
    """Queried an instant before the channel has started transmitting."""


@dataclass(frozen=True)
class BroadcastPlan:
    """Fully-resolved timetable for one video on its channel group.

    Offsets and the cycle are derived on demand, so a plan's size does not
    grow with its channel count.
    """

    video_id: int
    channels: int
    segment_duration_ms: int
    epoch_ms: int

    @property
    def cycle_ms(self) -> int:
        return self.channels * self.segment_duration_ms

    @property
    def channel_offsets_ms(self) -> tuple[int, ...]:
        return tuple((i - 1) * self.segment_duration_ms for i in range(1, self.channels + 1))


def segment_duration_ms(video_length_minutes: int, channels: int) -> int:
    """Length of one segment in ms when the video is cut into ``channels`` parts."""
    if video_length_minutes <= 0:
        raise ValueError("video_length_minutes must be positive")
    if channels < 1:
        raise ValueError("channels must be at least 1")
    total_ms = video_length_minutes * MS_PER_MINUTE
    if total_ms % channels != 0:
        raise NonDivisibleError(
            f"{video_length_minutes} min does not split into {channels} equal segments"
        )
    return total_ms // channels


def max_channels(bandwidth_mbps: float, transmission_rate_mbps: float, num_videos: int) -> int:
    """Largest per-video channel count the link can carry.

    Each channel transmits at the consumption rate, and every one of the
    ``num_videos`` videos gets its own channel group, so the budget is
    rate * K * num_videos <= bandwidth.
    """
    if bandwidth_mbps <= 0 or transmission_rate_mbps <= 0 or num_videos < 1:
        raise ValueError("arguments must be positive")
    # Guard against 6.999999 style float artifacts before flooring.
    return int(math.floor(bandwidth_mbps / (transmission_rate_mbps * num_videos) + 1e-9))


def build_plan(video: VideoSpec, channels: int, epoch_ms: int = 0) -> BroadcastPlan:
    return BroadcastPlan(
        video_id=video.id,
        channels=channels,
        segment_duration_ms=segment_duration_ms(video.length_minutes, channels),
        epoch_ms=epoch_ms,
    )


@dataclass(frozen=True)
class ArrivalClass:
    """Whether an arrival coincides with a segment-1 slot, and on which channel.

    ``wait_ms`` is the time to the next segment-1 slot, 0 when on time.
    """

    on_time: bool
    channel: int
    missed_ms: int
    wait_ms: int


def classify_arrival(plan: BroadcastPlan, t_ms: int) -> ArrivalClass:
    """Split an arrival into on-time (a slot starts now) or late by ``missed_ms``.

    The returned channel is the one whose segment-1 slot the client can
    use: the slot starting at this very instant when on time, otherwise
    the channel currently part-way through segment 1.
    """
    if t_ms < plan.epoch_ms:
        raise BeforeStartError(f"arrival at {t_ms} precedes epoch {plan.epoch_ms}")
    d = plan.segment_duration_ms
    since = t_ms - plan.epoch_ms
    missed = since % d
    channel = ((since // d) % plan.channels) + 1
    return ArrivalClass(on_time=(missed == 0), channel=channel, missed_ms=missed,
                        wait_ms=(d - missed) if missed else 0)


def next_first_segment_start(plan: BroadcastPlan, t_ms: int) -> tuple[int, int]:
    """Channel and wait for the next segment-1 slot at or after ``t_ms``.

    Returns ``(channel, wait_ms)`` with ``wait_ms == 0`` exactly when a
    segment-1 slot begins at ``t_ms`` itself. A late arrival waits for the
    channel after the one part-way through segment 1.
    """
    cls = classify_arrival(plan, t_ms)
    if cls.on_time:
        return cls.channel, 0
    return cls.channel % plan.channels + 1, cls.wait_ms


def current_segment(plan: BroadcastPlan, channel: int, t_ms: int) -> int:
    """1-based segment the given channel is transmitting at ``t_ms``."""
    if not 1 <= channel <= plan.channels:
        raise ValueError(f"channel {channel} out of range 1..{plan.channels}")
    start = plan.epoch_ms + (channel - 1) * plan.segment_duration_ms
    if t_ms < start:
        raise BeforeStartError(
            f"channel {channel} starts at {start}, queried at {t_ms}"
        )
    return 1 + ((t_ms - start) % plan.cycle_ms) // plan.segment_duration_ms
