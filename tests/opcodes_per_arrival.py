"""Bytecodes per arrival, by function, counted over whole simulation runs.

Run as ``PYTHONPATH=src python tests/opcodes_per_arrival.py``; ``--help`` lists the options.
For each scheme it builds one ``Simulation``, then counts every bytecode instruction that
each Python function runs during ``run()``, and prints the total per arrival and each
function's share, costliest first. Python 3.10 and 3.11 count with ``sys.settrace`` and
``f_trace_opcodes`` set on every frame. From 3.12 the count uses ``sys.monitoring``
instruction events: there, opcode tracing skips a function's first call (3.13) or a whole
first run (3.12.1).

The counts are a deterministic cost figure: they depend on the config, the seed and the
CPython version's bytecode, not on the host's speed or load, so two trees compare on one
interpreter in a single run each. C functions (``heapq``, ``random``, dict and list methods)
run no bytecode and count 0. The collector is off while counting, so no gc callback or
finalizer runs at a moment the run does not choose. Only the standard library is used.

``--record`` and ``--check`` run the ledger: every scheme on one video and all-, random- and
dsc-cache on seven, on ``LEDGER_CFG``, a config short enough for CI. ``--record`` writes the
running interpreter's totals into ``opcode_ledger.json``, keyed by its full version, since a
patch release may compile differently; a change to ``LEDGER_CFG`` re-records every version.
``--check`` prints each total per arrival against the ledger and exits 1 if one differs; with
no entry for the running version it prints the totals and a "no entry" line, and exits 0. A
count that moves is re-recorded in the same change.
"""

import argparse
import gc
import json
import platform
import sys
from collections import Counter
from pathlib import Path

from sbvod.caching import normalize_scheme
from sbvod.domain import SimConfig
from sbvod.engine import Simulation

LEDGER = Path(__file__).with_name("opcode_ledger.json")
LEDGER_CFG = {"arrival_rate_per_min": 10.0, "horizon_minutes": 30.0, "warmup_minutes": 5.0, "seed": 5}
LEDGER_CASES = {1: ("no-cache", "por-cache", "proxy-cache", "all-cache", "random-cache", "dsc-cache"),
                7: ("all-cache", "random-cache", "dsc-cache")}


def count_run(sim: Simulation) -> Counter:
    """Bytecodes each function ran during ``sim.run()``, keyed by ``module:qualname``."""
    counts: Counter = Counter()

    def on_instruction(code, _offset):
        counts[code] += 1

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if sys.version_info >= (3, 12):
            mon = sys.monitoring
            mon.use_tool_id(mon.PROFILER_ID, "opcodes_per_arrival")
            mon.register_callback(mon.PROFILER_ID, mon.events.INSTRUCTION, on_instruction)
            mon.set_events(mon.PROFILER_ID, mon.events.INSTRUCTION)
            try:
                sim.run()
            finally:
                mon.set_events(mon.PROFILER_ID, 0)
                mon.free_tool_id(mon.PROFILER_ID)
        else:
            def local(frame, event, _arg):
                if event == "opcode":
                    counts[frame.f_code] += 1
                return local

            def on_call(frame, _event, _arg):
                frame.f_trace_opcodes = True
                return local

            old = sys.gettrace()
            sys.settrace(on_call)
            try:
                sim.run()
            finally:
                sys.settrace(old)
    finally:
        if was_enabled:
            gc.enable()
    counts.pop(count_run.__code__, None)  # sys.monitoring sees this frame start and stop the run
    named: Counter = Counter()
    for code, n in counts.items():
        # co_qualname is 3.11+; 3.10 names a method without its class.
        named[f"{Path(code.co_filename).stem}:{getattr(code, 'co_qualname', code.co_name)}"] += n
    return named


def ledger_run(videos: int, scheme: str) -> tuple[int, int]:
    """(bytecodes, arrivals) of one ledger run."""
    sim = Simulation(SimConfig(num_videos=videos, **LEDGER_CFG), normalize_scheme(scheme))
    return sum(count_run(sim).values()), sim.arrived


def ledger_entry() -> dict:
    """The running interpreter's entry: per case, the arrivals and each scheme's bytecodes."""
    entry = {}
    for videos, schemes in LEDGER_CASES.items():
        case = entry[f"videos={videos}"] = {"arrivals": 0}
        for scheme in schemes:
            case[scheme], case["arrivals"] = ledger_run(videos, scheme)
    return entry


def _per_arrival(counts: dict, name: str) -> str:
    if name == "arrivals":
        return f"{counts[name]} arrivals"
    return f"{counts[name] / counts['arrivals']:,.1f} bytecodes per arrival ({counts[name]})"


def ledger_lines(measured: dict, recorded: dict | None) -> list[str]:
    """Each count of ``measured``, per arrival, with the recorded one beside it where they differ."""
    lines = []
    for case, counts in measured.items():
        old = None if recorded is None else recorded.get(case, {})
        for name in counts:
            line = f"{case} {name}: {_per_arrival(counts, name)}"
            if old is not None and old.get(name) != counts[name]:
                line += f"; ledger: {_per_arrival(old, name) if name in old else 'none'}"
            lines.append(line)
    return lines


def run_ledger(record: bool) -> int:
    version = platform.python_version()
    ledger = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else {}
    measured = ledger_entry()
    recorded = ledger.get(version)
    print(f"python {version}, ledger config {LEDGER_CFG}:", *ledger_lines(measured, recorded), sep="\n")
    if record:
        ledger = dict(sorted({**ledger, version: measured}.items()))
        LEDGER.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
        print(f"recorded the entry for Python {version}")
        return 0
    if recorded is None:
        print(f"no entry for Python {version} in {LEDGER.name}: counts printed, nothing checked")
        return 0
    if measured != recorded:
        print(f"counts differ from the ledger's entry for Python {version}")
        return 1
    print(f"counts match the ledger's entry for Python {version}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true",
                      help="write this interpreter's ledger counts to opcode_ledger.json")
    mode.add_argument("--check", action="store_true",
                      help="compare this interpreter's ledger counts with opcode_ledger.json")
    parser.add_argument("--scheme", action="append",
                        help="scheme to run, repeatable (default: all, random and dsc)")
    parser.add_argument("--videos", type=int, default=1, help="num_videos (default 1)")
    parser.add_argument("--rate", type=float, default=10.0, help="arrivals per minute (default 10)")
    parser.add_argument("--horizon", type=float, default=150.0, help="minutes (default 150)")
    parser.add_argument("--seed", type=int, default=5, help="run seed (default 5)")
    parser.add_argument("--top", type=int, default=8, help="functions listed per scheme (default 8)")
    args = parser.parse_args(argv)
    if args.record or args.check:
        return run_ledger(args.record)
    cfg = SimConfig(num_videos=args.videos, arrival_rate_per_min=args.rate,
                    horizon_minutes=args.horizon, seed=args.seed)
    print(f"python {sys.version.split()[0]}, videos {args.videos}, {args.rate:g}/min,"
          f" {args.horizon:g} min, seed {args.seed}")
    for name in args.scheme or ["all", "random", "dsc"]:
        sim = Simulation(cfg, normalize_scheme(name))
        counts = count_run(sim)
        per = sim.arrived or 1
        print(f"{sim.scheme.value}: {sum(counts.values()) / per:,.0f} bytecodes per arrival"
              f" over {sim.arrived} arrivals")
        for fn, n in counts.most_common(args.top):
            print(f"  {n / per:9,.1f}  {fn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
