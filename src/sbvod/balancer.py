"""Least-requests balancing across the local proxy servers.

The table mirrors what the forwarder would keep in memory: one row per
proxy and the exact set of clients it is serving, whose size is its
live request count. Every mutation either fully applies or raises
without touching the table.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field


class BalancerError(ValueError):
    """Any bad table, pick or update; the message says which."""


@dataclass
class LpsEntry:
    lps_id: int
    name: str
    address: str
    client_ids: set[Hashable] = field(default_factory=set)

    @property
    def request_count(self) -> int:
        return len(self.client_ids)


@dataclass
class LpsTable:
    """Ordered collection of proxy entries with unique ids."""

    entries: list[LpsEntry] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.lps_id in seen:
                raise BalancerError(f"duplicate lps_id {e.lps_id}")
            seen.add(e.lps_id)

    def entry(self, lps_id: int) -> LpsEntry:
        for e in self.entries:
            if e.lps_id == lps_id:
                return e
        raise BalancerError(f"no LPS with id {lps_id}")


def assign_lps(table: LpsTable) -> int:
    """Pick the proxy with the fewest live requests; ties go to the lowest id.

    Pure choice: the table is not modified. Call :func:`record_request`
    when the pick is actually granted.
    """
    if not table.entries:
        raise BalancerError("no LPS entries to assign from")
    best = min(table.entries, key=lambda e: (len(e.client_ids), e.lps_id))
    return best.lps_id


def record_request(table: LpsTable, lps_id: int, client_id: Hashable) -> None:
    """Register ``client_id`` on the given proxy, which raises its count."""
    entry = table.entry(lps_id)
    if client_id in entry.client_ids:
        raise BalancerError(f"client {client_id!r} already recorded on LPS {lps_id}")
    entry.client_ids.add(client_id)


def release_request(table: LpsTable, lps_id: int, client_id: Hashable) -> None:
    """Drop ``client_id`` from the proxy once its first segment finished streaming."""
    entry = table.entry(lps_id)
    if client_id not in entry.client_ids:
        raise BalancerError(f"client {client_id!r} not recorded on LPS {lps_id}")
    entry.client_ids.discard(client_id)
