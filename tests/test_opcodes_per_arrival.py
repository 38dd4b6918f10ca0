"""Checks on the bytecode-count script and its ledger, ``opcode_ledger.json``."""

import json
import platform

import pytest

import opcodes_per_arrival
from opcodes_per_arrival import count_run, ledger_run, main

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


def test_proxy_cache_matches_the_ledger():
    """The one ledger case tier-1 runs; CI's ``--check`` step runs them all."""
    version = platform.python_version()
    entry = json.loads(opcodes_per_arrival.LEDGER.read_text(encoding="utf-8")).get(version)
    if entry is None:
        pytest.skip(f"opcode_ledger.json has no entry for Python {version}")
    bytecodes, arrivals = ledger_run(1, "proxy-cache")
    assert (bytecodes, arrivals) == (entry["videos=1"]["proxy-cache"], entry["videos=1"]["arrivals"])


def test_record_then_check_round_trips(tmp_path, monkeypatch, capsys):
    ledger = tmp_path / "ledger.json"
    counts = {"videos=1": {"arrivals": 4, "no-cache": 10}}
    monkeypatch.setattr(opcodes_per_arrival, "LEDGER", ledger)
    monkeypatch.setattr(opcodes_per_arrival, "ledger_entry", lambda: json.loads(json.dumps(counts)))
    assert main(["--check"]) == 0
    assert "no entry for Python" in capsys.readouterr().out
    assert main(["--record"]) == 0
    assert json.loads(ledger.read_text()) == {platform.python_version(): counts}
    assert main(["--check"]) == 0
    counts["videos=1"]["no-cache"] = 12
    assert main(["--check"]) == 1
    out = capsys.readouterr().out
    assert ("videos=1 no-cache: 3.0 bytecodes per arrival (12);"
            " ledger: 2.5 bytecodes per arrival (10)") in out
    assert "counts differ" in out
