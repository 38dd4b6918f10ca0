#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and quartile spread.

Run from the repository root; this prints every end-to-end metric of every
workload for seeds 1 to 10:

    python3 perfbench/spread.py --seeds 1-10

The spread is the distance between the first and third quartile as a share
of the median, as ``statistics.quantiles(values, n=4)`` gives them. With
``--record`` the medians and the output digest of every seed are written to
``perfbench/expected.json`` as the baseline of the current commit.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    digest = next(m.group(1) for ln in lines if (m := re.match(r"digest sha256:(\w+)", ln)))
    host = next(float(m.group(1)) for ln in lines if (m := re.match(r"host_kernel_ms (\S+)", ln)))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values | {"host_kernel_ms": host}, digest


def summarize(workload: str, seeds: list[int], trace: int, bench: dict) -> tuple[dict, dict]:
    """Run one workload over the seeds; print each run and each metric's spread."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, digests = [], {}
    for seed in seeds:
        values, digests[str(seed)] = run_once(workload, seed, bench["run_seconds"], trace)
        runs.append(values)
        print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
              flush=True)
    medians = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        medians[name] = statistics.median(values)
        spread = quartile_spread(values) if len(values) > 1 and medians[name] else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{workload} {name:<36} median {medians[name]:<14.6g} spread {spread:.4f}{verdict}",
              flush=True)
    return medians, digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="store medians and digests as the baseline")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        medians, digests = summarize(workload, args.seeds, args.trace, bench)
        if args.record:
            path = HERE / "expected.json"
            expected = json.loads(path.read_text(encoding="utf-8"))
            baseline = expected["baseline"]
            baseline["digests"].setdefault(workload, {}).update(digests)
            baseline["per_layer" if args.trace else "end_to_end"][workload] = medians
            path.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
