"""Staggered-broadcast timetable: K channels cycling one video's K segments.

Channel i (1-based) starts the video at offset (i - 1) * D from time 0,
where D is the segment duration, so somewhere in the system segment 1
begins every D milliseconds. That bounds the worst-case wait of a client
that relies on broadcast alone to D, and the mean wait to D / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .domain import _MAX_CHANNELS, MS_PER_MINUTE


class NonDivisibleError(ValueError):
    """The video length does not split into the requested number of segments."""


@dataclass(frozen=True)
class BroadcastPlan:
    """Timetable of one video on its channel group.

    The cycle is derived on demand, so a plan's size does not grow with its
    channel count.
    """

    channels: int
    segment_duration_ms: int

    @property
    def cycle_ms(self) -> int:
        return self.channels * self.segment_duration_ms


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
    rate * K * num_videos <= bandwidth. The count stops at the most
    channels ``validate_config`` accepts, since a vanishing rate sends the
    quotient to infinity.
    """
    if bandwidth_mbps <= 0 or transmission_rate_mbps <= 0 or num_videos < 1:
        raise ValueError("arguments must be positive")
    # Guard against 6.999999 style float artifacts before flooring.
    per_video = bandwidth_mbps / (transmission_rate_mbps * num_videos) + 1e-9
    return _MAX_CHANNELS if per_video > _MAX_CHANNELS else math.floor(per_video)


def build_plan(video_length_minutes: int, channels: int) -> BroadcastPlan:
    return BroadcastPlan(
        channels=channels,
        segment_duration_ms=segment_duration_ms(video_length_minutes, channels),
    )


class ArrivalClass(NamedTuple):
    """Whether an arrival coincides with a segment-1 slot.

    ``wait_ms`` is the time to the next segment-1 slot, 0 when on time.
    """

    on_time: bool
    missed_ms: int
    wait_ms: int


def classify_arrival(plan: BroadcastPlan, t_ms: int) -> ArrivalClass:
    """Split an arrival into on-time (a slot starts now) or late by ``missed_ms``."""
    d = plan.segment_duration_ms
    missed = t_ms % d
    return ArrivalClass(missed == 0, missed, (d - missed) if missed else 0)
