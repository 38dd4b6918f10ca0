"""Checks on the bytecode-count script; CI runs it on one Python with no pinned counts."""

from opcodes_per_arrival import count_run, main

from sbvod.caching import SchemeId
from sbvod.domain import SimConfig
from sbvod.engine import Simulation

_CFG = SimConfig(arrival_rate_per_min=10.0, horizon_minutes=20.0, warmup_minutes=5.0, seed=5)


def test_counts_are_a_pure_function_of_the_run():
    first = count_run(Simulation(_CFG, SchemeId.ALL_CACHE))
    assert first == count_run(Simulation(_CFG, SchemeId.ALL_CACHE))
    assert first["caching:_nearest"] > 0
    # All-cache never relays, and a C function runs no bytecode.
    assert not any(name.startswith("caching:_find_relay") for name in first)
    assert not any(name.startswith("heapq:") for name in first)


def test_main_prints_one_total_per_scheme(capsys):
    assert main(["--rate", "4", "--horizon", "35", "--scheme", "no", "--scheme", "dsc", "--top", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    totals = [ln for ln in lines if "bytecodes per arrival" in ln]
    assert [ln.split(":")[0] for ln in totals] == ["no-cache", "dsc-cache"]
    assert len(lines) == 1 + 2 * (1 + 2)
