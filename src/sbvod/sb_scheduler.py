"""Staggered-broadcast timetable: K channels cycling one video's K segments.

Channel i (1-based) starts the video at offset (i - 1) * D from time 0,
where D is the segment duration, so somewhere in the system segment 1
begins every D milliseconds. That bounds the worst-case wait of a client
that relies on broadcast alone to D, and the mean wait to D / 2. A run
builds its one plan from a config that ``domain.validate_config`` has
accepted, which owns the segment and channel-budget rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class BroadcastPlan:
    """Timetable of one video on its channel group.

    The cycle is derived on demand, so a plan's size does not grow with its
    channel count.
    """

    channels: int
    segment_ms: int

    @property
    def cycle_ms(self) -> int:
        return self.channels * self.segment_ms


class ArrivalClass(NamedTuple):
    """Whether an arrival coincides with a segment-1 slot.

    ``wait_ms`` is the time to the next segment-1 slot, 0 when on time.
    """

    on_time: bool
    missed_ms: int
    wait_ms: int


def classify_arrival(plan: BroadcastPlan, t_ms: int) -> ArrivalClass:
    """Split an arrival into on-time (a slot starts now) or late by ``missed_ms``."""
    d = plan.segment_ms
    missed = t_ms % d
    return ArrivalClass(missed == 0, missed, (d - missed) if missed else 0)
