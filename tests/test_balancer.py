"""Least-requests LPS assignment and its bookkeeping table.

The worked states mirror the two-proxy bookkeeping example: LPS1 serving
{C1,C3,C5,C7,C9} (count 5) and LPS2 serving {C2,C4,C6,C8} (count 4).
"""

import random

import pytest

from sbvod.balancer import (
    BalancerError,
    LpsEntry,
    LpsTable,
    assign_lps,
    record_request,
    release_request,
)


def two_proxy_table():
    t = LpsTable(
        [
            LpsEntry(1, "LPS1", "10.0.0.1:8554"),
            LpsEntry(2, "LPS2", "10.0.0.2:8554"),
        ]
    )
    for cid in ("C1", "C3", "C5", "C7", "C9"):
        record_request(t, 1, cid)
    for cid in ("C2", "C4", "C6", "C8"):
        record_request(t, 2, cid)
    return t


class TestAssign:
    def test_prefers_fewest_requests(self):
        assert assign_lps(two_proxy_table()) == 2

    def test_tie_breaks_to_smallest_id(self):
        t = LpsTable([LpsEntry(2, "b", "h:1"), LpsEntry(1, "a", "h:2")])
        record_request(t, 1, "X")
        record_request(t, 2, "Y")
        assert assign_lps(t) == 1

    def test_singleton(self):
        t = LpsTable([LpsEntry(1, "only", "h:1")])
        assert assign_lps(t) == 1

    def test_empty_table(self):
        with pytest.raises(BalancerError, match="no LPS entries to assign from"):
            assign_lps(LpsTable([]))

    def test_assign_does_not_mutate(self):
        t = two_proxy_table()
        before = [(e.lps_id, e.request_count, set(e.client_ids)) for e in t.entries]
        assign_lps(t)
        after = [(e.lps_id, e.request_count, set(e.client_ids)) for e in t.entries]
        assert before == after


class TestRecordRelease:
    def test_record_increments_and_adds(self):
        t = two_proxy_table()
        record_request(t, 2, "C10")
        e = t.entry(2)
        assert e.request_count == 5
        assert e.client_ids == {"C2", "C4", "C6", "C8", "C10"}

    def test_release_decrements_and_removes(self):
        t = two_proxy_table()
        release_request(t, 1, "C3")
        e = t.entry(1)
        assert e.request_count == 4
        assert e.client_ids == {"C1", "C5", "C7", "C9"}

    def test_record_then_release_restores_state(self):
        t = two_proxy_table()
        snap = [(e.request_count, set(e.client_ids)) for e in t.entries]
        record_request(t, 2, "C10")
        release_request(t, 2, "C10")
        assert [(e.request_count, set(e.client_ids)) for e in t.entries] == snap

    def test_unknown_lps(self):
        with pytest.raises(BalancerError, match="no LPS with id 9"):
            record_request(two_proxy_table(), 9, "C1")

    def test_duplicate_client(self):
        with pytest.raises(BalancerError, match="client 'C1' already recorded on LPS 1"):
            record_request(two_proxy_table(), 1, "C1")

    def test_unknown_client_on_release(self):
        with pytest.raises(BalancerError, match="client 'C99' not recorded on LPS 1"):
            release_request(two_proxy_table(), 1, "C99")

    def test_failed_mutation_leaves_table_untouched(self):
        t = two_proxy_table()
        snap = [(e.request_count, set(e.client_ids)) for e in t.entries]
        with pytest.raises(BalancerError, match="already recorded"):
            record_request(t, 1, "C1")
        with pytest.raises(BalancerError, match="not recorded"):
            release_request(t, 2, "C77")
        assert [(e.request_count, set(e.client_ids)) for e in t.entries] == snap


class TestTable:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(Exception, match="duplicate lps_id"):
            LpsTable([LpsEntry(1, "a", "h:1"), LpsEntry(1, "b", "h:2")])


class TestRandomizedModel:
    """Drive the table with valid random traffic against a model dict."""

    def test_interleaved_records_and_releases_keep_counts_consistent(self):
        rng = random.Random(404)
        t = LpsTable([LpsEntry(i, f"LPS{i}", f"h:{i}") for i in (1, 2, 3)])
        model: dict[int, set[str]] = {1: set(), 2: set(), 3: set()}
        next_cid = 0
        for _step in range(1000):
            active = [(lps, cid) for lps, cids in model.items() for cid in cids]
            if active and rng.random() < 0.45:
                lps, cid = rng.choice(active)
                release_request(t, lps, cid)
                model[lps].discard(cid)
            else:
                lps = assign_lps(t)
                cid = f"C{next_cid}"
                next_cid += 1
                record_request(t, lps, cid)
                model[lps].add(cid)
            for e in t.entries:
                assert e.request_count == len(e.client_ids) == len(model[e.lps_id])

    def test_record_only_traffic_spreads_evenly(self):
        t = LpsTable([LpsEntry(i, f"LPS{i}", f"h:{i}") for i in (1, 2, 3, 4)])
        for n in range(200):
            lps = assign_lps(t)
            record_request(t, lps, f"C{n}")
            counts = [e.request_count for e in t.entries]
            assert max(counts) - min(counts) <= 1
