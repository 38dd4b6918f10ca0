"""Traced mode: which sbvod callables are wrapped, and how spans become per-layer metrics.

Every wrapped callable is found by its defining module and qualified name,
then rebound on each sbvod module or class attribute that holds it, so a
name imported with ``from .x import y`` is traced where it is called.
Nothing in ``src/`` is edited; the bindings are restored when the traced
batches end.
"""

from __future__ import annotations

import statistics
import sys

from measure import Batch, Tracer, percentile

# (span name, defining module, qualified name) of every timed callable.
SPANS = (
    ("engine.init", "engine", "Simulation.__init__"),
    ("engine.step", "engine", "Simulation.step"),
    ("engine.pool.projected_wait", "engine", "StreamPool.projected_wait"),
    ("sb_scheduler.classify_arrival", "engine", "classify_arrival"),
    ("sb_scheduler.next_first_segment_start", "sb_scheduler", "next_first_segment_start"),
    ("caching.acquire", "caching", "acquire_first_segment"),
    ("caching.playback_started", "caching", "on_playback_started"),
    ("caching.neighbor_query", "caching", "_candidates_in_range"),
    ("balancer.assign", "balancer", "assign_lps"),
    ("balancer.record", "balancer", "record_request"),
    ("balancer.release", "balancer", "release_request"),
    ("domain.substream", "domain", "RandomSource.substream"),
    ("domain.validate", "domain", "validate_config"),
    ("analytic.erlang_b", "analytic", "erlang_b"),
    ("analytic.place_cache", "analytic", "place_cache"),
    ("analytic.select_broadcast", "analytic", "select_broadcast_videos"),
    ("analytic.dedicated", "analytic", "dedicated_stream_analysis"),
    ("analytic.broadcast", "analytic", "broadcast_analysis"),
    ("cli.run_experiment", "cli", "run_experiment"),
)

# Callables that are counted but not timed. ``ids_near`` is a generator,
# so its work is timed by the enclosing neighbour-query span instead.
COUNTERS = (
    ("caching.ids_near", "caching", "NeighborIndex.ids_near"),
    ("caching.index_add", "caching", "NeighborIndex.add"),
    ("caching.index_remove", "caching", "NeighborIndex.remove"),
)


def _resolve(module: str, qualname: str):
    """(owner, attr, callable) for a qualified name, or None if the code no longer has it."""
    owner = sys.modules.get(f"sbvod.{module}")
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Observations:
    """Counts taken from arguments and results of traced calls."""

    def __init__(self):
        self.clients_present = 0
        self.candidates = 0
        self.servers = 0
        self.outcomes = 0
        self.neighbor = 0
        self.relay = 0
        self.pool_attempts = 0
        self.pool_queued = 0
        self.pool_refused = 0
        self.queue_wait_ms = 0

    def step(self, args, _result):
        self.clients_present += len(args[0].clients)

    def neighbor_query(self, _args, result):
        self.candidates += len(result)

    def erlang_b(self, args, _result):
        self.servers += args[1]

    def acquire(self, args, out):
        kind = out.source_kind.value
        self.outcomes += 1
        self.neighbor += kind == "neighbor"
        self.relay += kind == "relay"
        if args[0].value in ("por-cache", "proxy-cache"):
            self.pool_attempts += 1
            self.pool_refused += out.failed
            if out.queue_wait_ms > 0:
                self.pool_queued += 1
                self.queue_wait_ms += out.queue_wait_ms


def traced_bindings(tracer: Tracer, obs: Observations):
    """Bindings for every span and counter, and the targets the code no longer has."""
    observers = {
        "engine.step": obs.step,
        "caching.neighbor_query": obs.neighbor_query,
        "caching.acquire": obs.acquire,
        "analytic.erlang_b": obs.erlang_b,
    }
    samples = {"caching.acquire"}
    owners = [m for name, m in sys.modules.items() if name == "sbvod" or name.startswith("sbvod.")]
    bindings, missing = [], []
    for kind, table in (("span", SPANS), ("counter", COUNTERS)):
        for name, module, qualname in table:
            found = _resolve(module, qualname)
            if found is None:
                missing.append(f"sbvod.{module}.{qualname}")
                continue
            owner, attr, fn = found
            if kind == "span":
                wrapped = tracer.span(name, fn, observers.get(name), keep_samples=name in samples)
            else:
                wrapped = tracer.counter(name, fn)
            if isinstance(owner, type):
                bindings.append((owner, attr, wrapped))
                continue
            # A module-level function: rebind every sbvod module name that holds it.
            bindings += [(m, a, wrapped) for m in owners for a, v in vars(m).items() if v is fn]
    return bindings, missing


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, obs: Observations, untraced: list[Batch], traced: list[Batch],
                  is_sweep: bool) -> dict[str, float]:
    """Per-layer metrics; counts are per traced batch, times are means per call.

    ``traced[k]`` repeated ``untraced[k]`` on the same inputs. The sweep
    overhead and the event rate use the untraced timings, which carry no
    tracing cost.
    """
    batches = len(traced)
    s = tracer.stats
    us, ms = 1e6, 1e3
    step = s("engine.step")
    acquire = s("caching.acquire")
    acquire_samples = acquire.samples or [0.0]
    query = s("caching.neighbor_query")
    slot_names = ("sb_scheduler.classify_arrival", "sb_scheduler.next_first_segment_start")
    slot_calls = sum(s(n).calls for n in slot_names)
    slot_time = sum(s(n).total for n in slot_names)
    update_calls = s("balancer.record").calls + s("balancer.release").calls
    update_time = s("balancer.record").total + s("balancer.release").total
    events = step.calls / batches
    return {
        "engine.events": events,
        "engine.events_per_s": _share(step.calls, sum(b.wall for b in untraced)),
        "engine.step_self_us": step.self_mean() * us,
        "engine.clients_present_mean": _share(obs.clients_present, step.calls),
        "engine.init_ms": s("engine.init").mean() * ms,
        "engine.pool.projected_wait_calls": s("engine.pool.projected_wait").calls / batches,
        "engine.pool.projected_wait_us": s("engine.pool.projected_wait").mean() * us,
        "engine.pool.queued_share": _share(obs.pool_queued, obs.pool_attempts),
        "engine.pool.queue_wait_ms_mean": _share(obs.queue_wait_ms, obs.pool_queued),
        "engine.pool.refused_share": _share(obs.pool_refused, obs.pool_attempts),
        "caching.acquire_calls": acquire.calls / batches,
        "caching.acquire_us_p50": percentile(acquire_samples, 50) * us,
        "caching.acquire_us_p99": percentile(acquire_samples, 99) * us,
        "caching.acquire_self_us": acquire.self_mean() * us,
        "caching.neighbor_queries": s("caching.ids_near").calls / batches,
        "caching.candidates_per_query": _share(obs.candidates, query.calls),
        "caching.neighbor_query_us": query.mean() * us,
        "caching.hit_share": _share(obs.neighbor, obs.outcomes),
        "caching.relay_share": _share(obs.relay, obs.outcomes),
        "caching.index_updates": (s("caching.index_add").calls + s("caching.index_remove").calls) / batches,
        "caching.playback_started_us": s("caching.playback_started").mean() * us,
        "balancer.assign_calls": s("balancer.assign").calls / batches,
        "balancer.assign_us": s("balancer.assign").mean() * us,
        "balancer.update_us": _share(update_time, update_calls) * us,
        "sb_scheduler.slot_calls": slot_calls / batches,
        "sb_scheduler.slot_us": _share(slot_time, slot_calls) * us,
        "domain.substream_us": s("domain.substream").mean() * us,
        "domain.validate_us": s("domain.validate").mean() * us,
        "analytic.erlang_b_calls": s("analytic.erlang_b").calls / batches,
        "analytic.erlang_b_us": s("analytic.erlang_b").mean() * us,
        "analytic.erlang_b_servers_mean": _share(obs.servers, s("analytic.erlang_b").calls),
        "analytic.place_cache_ms": s("analytic.place_cache").mean() * ms,
        "analytic.select_broadcast_ms": s("analytic.select_broadcast").mean() * ms,
        "analytic.report_ms": 0.0 if is_sweep else s("unit").mean() * ms,
        "cli.sweep_overhead_ms": statistics.median(
            b.wall - sum(b.unit_times) for b in untraced) * ms if is_sweep else 0.0,
        "cli.csv_bytes": float(len(untraced[0].output)) if is_sweep else 0.0,
        "trace.overhead_frac": statistics.median(t.wall / u.wall for t, u in zip(traced, untraced)) - 1.0,
    }
