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
"""

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path

from sbvod.caching import normalize_scheme
from sbvod.domain import SimConfig
from sbvod.engine import Simulation


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scheme", action="append",
                        help="scheme to run, repeatable (default: all, random and dsc)")
    parser.add_argument("--videos", type=int, default=1, help="num_videos (default 1)")
    parser.add_argument("--rate", type=float, default=10.0, help="arrivals per minute (default 10)")
    parser.add_argument("--horizon", type=float, default=150.0, help="minutes (default 150)")
    parser.add_argument("--seed", type=int, default=5, help="run seed (default 5)")
    parser.add_argument("--top", type=int, default=8, help="functions listed per scheme (default 8)")
    args = parser.parse_args(argv)
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
