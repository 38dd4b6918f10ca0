#!/usr/bin/env python3
"""sbvod benchmark: run one workload for a fixed time, check it, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload neighbor_dense --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json with
only a per-unit timer installed. ``--trace 1`` follows each untraced batch
with the same batch with every layer wrapped, and prints the per-layer
metrics instead. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The program is imported from ``src/`` of the checkout; without
it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import (
    Batch, HostSpeed, SpanStats, Tracer, beyond_count, percentile, rebound, samples_needed,
    tail_rule,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

# Set-ups timed per run, spread evenly over it; the median is reported.
SETUP_REPEATS = 9
# Batches every timed phase runs at least, however long they take.
MIN_BATCHES = 3
# Batch k of seed s draws its inputs from seed s * BATCH_SEED_STRIDE + k.
BATCH_SEED_STRIDE = 10_000
# Mean kernel time that defines the reference host speed, and the share of
# the measured time spent timing the kernel (see measure.HostSpeed).
HOST_KERNEL_REF_MS = 10.0
HOST_SHARE = 0.05
# Per-unit times are scaled by the kernel samples taken within this many
# seconds of the unit's end, so a unit run in a slow spell of the host is
# scaled by that spell, not by the run's average.
UNIT_WINDOW_S = 0.5

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import pathlib, workloads
workloads.build({name!r}, {seed!r}, pathlib.Path({workdir!r}))
print(time.perf_counter() - t0)
"""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_sbvod():
    """Import sbvod from this checkout's sources, never from anywhere else."""
    if not (SRC / "sbvod" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sbvod sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import sbvod

    if not Path(sbvod.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: sbvod imported from {sbvod.__file__}, not {SRC}")


def time_setup(name: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import sbvod and generate the workload."""
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=name, seed=seed, workdir=str(WORKDIR))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.split()[-1])


def batch_seed(seed: int, k: int) -> int:
    """Input seed of batch ``k``: every batch of a run gets inputs of its own."""
    return seed * BATCH_SEED_STRIDE + k


def timed_batch(wl, unit: SpanStats, host: HostSpeed | None = None) -> Batch:
    """Run one batch; ``unit`` is the span its per-unit timer records into.

    When ``host`` is given, the unit timer ticks it after every unit, and
    the kernel time spent inside the batch is taken out of the batch time.
    """
    before = len(unit.samples)
    spent = host.spent if host else 0.0
    t0 = time.perf_counter()
    output = wl.run_batch()
    wall = time.perf_counter() - t0 - ((host.spent - spent) if host else 0.0)
    if len(unit.samples) == before:
        wl.rerun_units(output)
    return Batch(wall, unit.samples[before:], output)


def digest_line(name: str, seed: int, output: bytes) -> str:
    """The output digest, compared with the baseline commit's for this seed."""
    digest = hashlib.sha256(output).hexdigest()
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    known = expected["baseline"]["digests"].get(name, {}).get(str(seed))
    if known is None:
        verdict = f"no baseline digest for seed {seed}"
    elif known == digest:
        verdict = "matches the baseline commit"
    else:
        verdict = f"differs from the baseline commit ({known})"
    return f"digest sha256:{digest} {verdict}"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    import_sbvod()
    import layers
    import workloads

    WORKDIR.mkdir(exist_ok=True)

    def build(k):
        return workloads.build(args.workload, batch_seed(args.seed, k), WORKDIR)

    wl = build(0)
    timer, host = Tracer(), HostSpeed(HOST_KERNEL_REF_MS, HOST_SHARE)
    unit = timer.stats("unit")
    unit_ends: list[float] = []

    def after_unit(_args, _result):
        unit_ends.append(time.perf_counter())
        host.tick()

    untraced = wl.unit_bindings(timer, after_unit)
    min_units = 0 if args.trace else samples_needed(wl.tail_q)
    batches: list[Batch] = []
    traced: list[Batch] = []
    if args.trace:
        tracer, obs = Tracer(), layers.Observations()
        bindings, missing = layers.traced_bindings(tracer, obs)
        for target in missing:
            print(f"perfbench: {target} not found; its layer metrics read 0", file=sys.stderr)
        trace_all = bindings + wl.unit_bindings(tracer)
    # Set-up time swings with the host's state for seconds at a time, so
    # set-ups are spread over the run, like the kernel samples that scale them.
    # The traced mode reports no set-up time.
    setups: list[float] = []
    setup_count = 0 if args.trace else SETUP_REPEATS

    def setup_due() -> bool:
        elapsed = time.perf_counter() - start
        return len(setups) < setup_count * min(1.0, elapsed / args.seconds)

    start = time.perf_counter()
    deadline = start + args.seconds
    while (len(batches) < MIN_BATCHES or time.perf_counter() < deadline
           or len(unit.samples) < min_units):
        while setup_due():
            setups.append(time_setup(args.workload, batch_seed(args.seed, 0)))
        wl_k = build(len(batches))
        with rebound(untraced):
            batches.append(timed_batch(wl_k, unit, host))
        if args.trace:
            # Each traced batch follows the untraced one on the same inputs,
            # so host drift cancels out of the tracing overhead.
            with rebound(trace_all):
                traced.append(timed_batch(wl_k, tracer.stats("unit")))
    while len(setups) < setup_count:
        setups.append(time_setup(args.workload, batch_seed(args.seed, 0)))

    first = batches[0].output
    attempted, failed, notes = 1, 0, []
    for k, b in enumerate(batches):
        checked = build(k).check(b.output)
        attempted += checked.units
        failed += checked.failed
        notes += [f"batch {k}: {n}" for n in checked.notes]
    for k, b in enumerate(traced):
        attempted += checked.units
        if b.output != batches[k].output:
            failed += checked.units
            notes.append(f"traced batch {k}: output differs from the untraced run")
    if not wl.rerun_matches(first, random.Random(args.seed)):
        failed += 1
        notes.append("rerun of a sampled unit of batch 0 gave different bytes")
    try:
        property_line = wl.properties(first)
    except workloads.PropertyMissing as exc:
        print(f"perfbench: {args.workload} lacks its defining property: {exc}", file=sys.stderr)
        return 3

    walls = [b.wall for b in batches]
    units = [t for b in batches for t in b.unit_times]
    wall_s = statistics.fmean(walls)
    work = sum(build(k).work_done(b.output) for k, b in enumerate(batches))
    print(f"workload {args.workload} seed {args.seed}: {len(batches)} untraced batches of "
          f"{checked.units} units, {len(traced)} traced batches")
    print(f"property of batch 0: {property_line}")
    print(digest_line(args.workload, args.seed, first))
    for note in notes:
        print(f"check failed: {note}")
    print(f"failed_ops_frac {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"host_kernel_ms {host.mean_ms()!r} (mean of {len(host.samples_ms)})")
    if args.trace:
        values = layers.layer_metrics(tracer, obs, batches, traced, wl.is_sweep)
        declared = spec["per_layer"]
    else:
        scale = host.scale()
        scaled_units = [u * host.scale_at(t, UNIT_WINDOW_S) for u, t in zip(unit.samples, unit_ends)]
        print(f"wall_s, throughput_per_s and setup_s are scaled by {HOST_KERNEL_REF_MS:g} / "
              f"host_kernel_ms = {scale:.4f}, each unit time by the kernel within "
              f"{UNIT_WINDOW_S:g} s of it")
        print(f"unscaled: wall_s={wall_s!r} throughput_per_s={work / sum(walls)!r} "
              f"run_ms_p50={statistics.median(units) * 1e3!r} "
              f"run_ms_tail={percentile(units, wl.tail_q) * 1e3!r} "
              f"setup_s={statistics.median(setups)!r}")
        print(f"run_ms_tail is p{wl.tail_q:g} with {beyond_count(len(units), wl.tail_q)} of "
              f"{len(units)} samples beyond it; the highest percentile with ten beyond is "
              f"p{tail_rule(len(units)):g}")
        values = {
            "wall_s": wall_s * scale,
            "throughput_per_s": work / sum(walls) / scale,
            "run_ms_p50": statistics.median(scaled_units) * 1e3,
            "run_ms_tail": percentile(scaled_units, wl.tail_q) * 1e3,
            "setup_s": statistics.median(setups) * scale,
        }
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]

    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<36} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
