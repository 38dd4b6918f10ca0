"""The four benchmark workloads: inputs from a seed, one batch of work, checks, properties.

Simulation workloads run one ``custom`` sweep through ``cli.run_experiment``,
so CSV writing and per-run seed derivation sit inside the timed batch; their
unit is one ``run_simulation`` call. ``capacity_grid`` computes a grid of
analytic capacity reports; its unit is one report.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
from pathlib import Path

from measure import erlang_b_oracle
from sbvod import SimConfig, analytic, catalog_from_config, cli, normalize_scheme

# Sweep layout shared by the simulation workloads: one arrival rate, two
# replications per scheme, default horizon and warmup.
ARRIVAL_RATE_PER_MIN = 10.0
REPLICATIONS = 2

# capacity_grid: about a thousand videos with 1/rank popularity on a link
# that carries 800 dedicated 1.5 Mbps streams, loaded close to that.
CATALOG_VIDEOS = 1000
LINK_MBPS = 1200.0
ARRIVALS_PER_SEC = 0.27
SERVICE_MINUTES = 60.0
LPS_CHANNELS = 2
CACHE_SHARES = (0.0, 0.001, 0.002, 0.004, 0.008, 0.016)
RESERVED_MBPS = (0.0, 3.0, 6.0, 12.0)

# Relative tolerance between erlang_b and the log-space oracle.
ERLANG_RTOL = 1e-9


class PropertyMissing(RuntimeError):
    """The workload's inputs no longer show the behaviour it was chosen for."""


@dataclasses.dataclass
class Checked:
    """Outcome of checking one batch's output."""

    units: int
    failed: int
    notes: list[str]


class SimWorkload:
    """A ``custom`` arrival-rate sweep over a few schemes at one rate."""

    is_sweep = True
    tail_q = 75.0

    def __init__(self, name: str, seed: int, workdir: Path, schemes, **cfg):
        self.name = name
        self.workdir = workdir
        base = SimConfig(arrival_rate_per_min=ARRIVAL_RATE_PER_MIN, seed=seed, **cfg)
        self.spec = cli.ExperimentSpec(
            name="custom",
            schemes=tuple(normalize_scheme(s) for s in schemes),
            sweep_var="arrival_rate_per_min",
            values=(ARRIVAL_RATE_PER_MIN,),
            replications=REPLICATIONS,
            base=base,
            out_path=str(workdir / f"{name}.csv"),
        )

    def unit_bindings(self, tracer, after=None):
        """Time each ``run_simulation`` call made by the sweep; ``after(args, result)`` runs after each."""
        run = cli.run_simulation
        return [(cli, "run_simulation", tracer.span("unit", run, after, keep_samples=True))]

    def run_batch(self) -> bytes:
        return cli.run_experiment(self.spec).read_bytes()

    def rerun_units(self, output: bytes) -> None:
        """Run every row's simulation again through ``cli.run_simulation``, where it is timed.

        For a sweep that ran its simulations in other processes, which the
        per-unit timer cannot see.
        """
        for r in self.rows(output):
            cfg = dataclasses.replace(
                self.spec.base, seed=int(r["seed"]),
                arrival_rate_per_min=float(r["arrival_rate_per_min"]))
            cli.run_simulation(cfg, normalize_scheme(r["scheme"]))

    def rows(self, output: bytes) -> list[dict[str, str]]:
        reader = csv.DictReader(io.StringIO(output.decode("utf-8")))
        return [r for r in reader if r["replication"] != "agg"]

    def check(self, output: bytes) -> Checked:
        """Per-replication rows: outcomes sum to arrivals, failures <= attempts, no-cache never attempts."""
        rows = self.rows(output)
        expected = len(self.spec.schemes) * len(self.spec.values) * self.spec.replications
        notes, failed = [], 0
        if len(rows) != expected:
            notes.append(f"{len(rows)} rows, expected {expected}")
            failed += abs(expected - len(rows))
        for r in rows:
            outcomes = sum(int(r[k]) for k in r if k.startswith("outcome_"))
            bad = []
            if outcomes != int(r["arrivals"]):
                bad.append(f"outcomes {outcomes} != arrivals {r['arrivals']}")
            if int(r["failures"]) > int(r["attempts"]):
                bad.append("failures > attempts")
            if r["scheme"] == "no-cache" and int(r["attempts"]) != 0:
                bad.append("no-cache made attempts")
            if bad:
                failed += 1
                notes.append(f"{r['scheme']} rep {r['replication']}: " + "; ".join(bad))
        return Checked(units=expected, failed=failed, notes=notes)

    def work_done(self, output: bytes) -> int:
        """Simulated post-warmup arrivals in one batch."""
        return sum(int(r["arrivals"]) for r in self.rows(output))

    def rerun_matches(self, output: bytes, rng: random.Random) -> bool:
        """Rerun one sampled scheme alone; its rows must match the batch byte for byte."""
        scheme = rng.choice(self.spec.schemes)
        alone = dataclasses.replace(
            self.spec, schemes=(scheme,), out_path=str(self.workdir / f"{self.name}.rerun.csv")
        )
        rerun = cli.run_experiment(alone).read_bytes().splitlines()[1:]
        mine = [ln for ln in output.splitlines()[1:] if ln.split(b",")[1] == scheme.value.encode()]
        return rerun == mine

    def _totals(self, output: bytes, schemes) -> dict[str, int]:
        keys = ("arrivals", "attempts", "failures", "outcome_neighbor", "outcome_relay")
        picked = [r for r in self.rows(output) if r["scheme"] in schemes]
        return {k: sum(int(r[k]) for r in picked) for k in keys}


class NeighborDense(SimWorkload):
    def __init__(self, seed, workdir):
        super().__init__("neighbor_dense", seed, workdir, ("all", "random", "dsc"),
                         num_videos=1, client_range_m=25.0)

    def properties(self, output: bytes) -> str:
        t = self._totals(output, ("all-cache", "random-cache", "dsc-cache"))
        one_hop = t["outcome_neighbor"] / t["arrivals"]
        line = f"one-hop share {t['outcome_neighbor']}/{t['arrivals']} = {one_hop:.4f}"
        if one_hop < 0.95:
            raise PropertyMissing(line + " (needs >= 0.95)")
        return line


class NeighborCatalog(SimWorkload):
    def __init__(self, seed, workdir):
        super().__init__("neighbor_catalog", seed, workdir, ("all", "random", "dsc"),
                         num_videos=7, client_range_m=25.0)

    def properties(self, output: bytes) -> str:
        dsc = self._totals(output, ("dsc-cache",))
        relay = dsc["outcome_relay"] / dsc["arrivals"]
        t = self._totals(output, ("all-cache", "random-cache", "dsc-cache"))
        fallback = t["failures"] / t["attempts"]
        line = (f"dsc relay share {dsc['outcome_relay']}/{dsc['arrivals']} = {relay:.4f}, "
                f"fallback share {t['failures']}/{t['attempts']} = {fallback:.4f}")
        if relay < 0.15 or fallback < 0.05:
            raise PropertyMissing(line + " (needs relay >= 0.15 and fallback >= 0.05)")
        return line


class PoolSaturated(SimWorkload):
    tail_q = 90.0

    def __init__(self, seed, workdir):
        super().__init__("pool_saturated", seed, workdir, ("por", "proxy", "no"),
                         num_videos=1, lps_capacity=2)

    def properties(self, output: bytes) -> str:
        por = self._totals(output, ("por-cache",))
        proxy = self._totals(output, ("proxy-cache",))
        every = self._totals(output, ("por-cache", "proxy-cache", "no-cache"))
        neighbour = every["outcome_neighbor"] + every["outcome_relay"]
        line = (f"por refused {por['failures']}/{por['attempts']}, "
                f"proxy refused {proxy['failures']}/{proxy['attempts']}, "
                f"neighbour outcomes {neighbour}")
        if por["failures"] < 0.03 * por["attempts"] or proxy["failures"] == 0 or neighbour:
            raise PropertyMissing(line + " (needs por >= 3%, proxy > 0, neighbour = 0)")
        return line


class CapacityGrid:
    """Capacity reports over cache sizes crossed with broadcast reservations."""

    name = "capacity_grid"
    is_sweep = False
    tail_q = 99.0

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        n = CATALOG_VIDEOS + rng.randint(-20, 20)
        self.videos = catalog_from_config(SimConfig(num_videos=n))
        self.catalog_bits = sum(q.size_bits for v in self.videos for q in v.qualities)
        self.arrivals_per_sec = ARRIVALS_PER_SEC * (1.0 + rng.uniform(-0.03, 0.03))
        self.link_bits = LINK_MBPS * 1e6
        self.grid = [(c, r) for c in CACHE_SHARES for r in RESERVED_MBPS]

    def report(self, point):
        """One capacity report for a (cache share, reserved Mbps) point."""
        cache_share, reserved_mbps = point
        placement = analytic.place_cache(self.videos, cache_share * self.catalog_bits)
        if reserved_mbps == 0.0:
            return analytic.dedicated_stream_analysis(
                self.videos, placement, self.arrivals_per_sec, self.link_bits, SERVICE_MINUTES)
        placement = analytic.select_broadcast_videos(
            self.videos, placement, reserved_mbps * 1e6, LPS_CHANNELS)
        return analytic.broadcast_analysis(
            self.videos, placement, self.arrivals_per_sec, self.link_bits, SERVICE_MINUTES)

    def unit_bindings(self, tracer, after=None):
        """Time each report; rebound on the class so ``run_batch`` picks it up."""
        report = CapacityGrid.report
        return [(CapacityGrid, "report", tracer.span("unit", report, after, keep_samples=True))]

    @staticmethod
    def _line(point, rep) -> str:
        return json.dumps([*point, dataclasses.asdict(rep)])

    def run_batch(self) -> bytes:
        reports = [self.report(p) for p in self.grid]
        return "".join(self._line(p, rep) + "\n" for p, rep in zip(self.grid, reports)).encode()

    def _reports(self, output: bytes):
        for line in output.splitlines():
            _cache, reserved, fields = json.loads(line)
            yield reserved, analytic.CapacityReport(**fields)

    @staticmethod
    def _loss_point(reserved: float, rep) -> tuple[float, int]:
        """(offered load, servers) of the loss system behind a report's blocking_prob."""
        lam = rep.lambda_dedicated if reserved == 0.0 else rep.lambda_broadcast
        servers = rep.supported_streams if reserved == 0.0 else rep.dedicated_capacity
        return lam * rep.mean_service_minutes * 60.0, servers

    def check(self, output: bytes) -> Checked:
        """Ratios lie in [0, 1]; blocking matches the log-space Erlang B oracle."""
        notes, failed = [], 0
        reports = list(self._reports(output))
        for (reserved, rep), point in zip(reports, self.grid):
            bad = [f for f in ("hit_ratio", "blocking_prob", "overall_blocking")
                   if not 0.0 <= getattr(rep, f) <= 1.0]
            load, servers = self._loss_point(reserved, rep)
            oracle = erlang_b_oracle(load, servers)
            if not math.isclose(rep.blocking_prob, oracle, rel_tol=ERLANG_RTOL, abs_tol=1e-300):
                bad.append(f"blocking {rep.blocking_prob!r} != oracle {oracle!r}")
            if bad:
                failed += 1
                notes.append(f"point {point}: " + "; ".join(bad))
        if len(reports) != len(self.grid):
            failed += abs(len(self.grid) - len(reports))
            notes.append(f"{len(reports)} reports, expected {len(self.grid)}")
        return Checked(units=len(self.grid), failed=failed, notes=notes)

    def work_done(self, output: bytes) -> int:
        """Capacity reports in one batch."""
        return len(self.grid)

    def rerun_matches(self, output: bytes, rng: random.Random) -> bool:
        i = rng.randrange(len(self.grid))
        return output.splitlines()[i] == self._line(self.grid[i], self.report(self.grid[i])).encode()

    def properties(self, output: bytes) -> str:
        points = [self._loss_point(res, rep) + (rep.blocking_prob,) for res, rep in self._reports(output)]
        servers = [s for _load, s, _b in points]
        blocking = [b for _load, _s, b in points]
        line = (f"servers {min(servers)}..{max(servers)}, "
                f"blocking {min(blocking):.3g}..{max(blocking):.3g}")
        if min(servers) < 100 or max(blocking) < 0.01:
            raise PropertyMissing(line + " (needs servers >= 100 and max blocking >= 0.01)")
        return line


WORKLOADS = {
    "neighbor_dense": NeighborDense,
    "neighbor_catalog": NeighborCatalog,
    "pool_saturated": PoolSaturated,
    "capacity_grid": CapacityGrid,
}


def build(name: str, seed: int, workdir: Path):
    """The named workload with inputs drawn from ``seed``."""
    return WORKLOADS[name](seed, workdir)
