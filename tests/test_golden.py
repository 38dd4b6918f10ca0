"""Fixed-seed outputs pinned by sha256 digest.

A refactor that is meant to keep behaviour must keep every byte of these
outputs: the six-scheme sweep CSV, the single-run report and CSV, one
event trace per scheme, a long two-scheme trace, the trace and every
outcome of a relay-heavy dsc run, and the analytic report on each of its
branches. When a change is meant to alter an output, record the new
digest here and say why in CHANGES.md.

Every digest was last re-recorded when each random substream became one
stdlib MT19937 generator (``random.Random``) in place of a PCG64 one, and
float sums became ``math.fsum``: Python keeps ``random()``'s sequence for
an int seed, and an exactly rounded sum, the same on every version, so
these digests hold on Python 3.10 to 3.13 alike. ``relay-catalog`` was
recorded later, on the relay search that probed the holders once per
forwarder, and holds for the search that lists them once.

``PYTHONPATH=src python tests/test_golden.py`` prints the current digests
in the format of ``RECORDED``; with ``--check`` it prints each label whose
digest moved and exits 1 if any did. Neither needs pytest.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from sbvod import analytic
from sbvod.caching import SchemeId
from sbvod.cli import main
from sbvod.domain import SimConfig, catalog_from_config
from sbvod.engine import Simulation, run_simulation

# Three videos and three streams per pool, dense enough that the
# neighbour, relay, por and lps columns of the sweep are all non-zero.
_CONFIG = """\
num_videos = 3
lps_capacity = 3
seed = 7
horizon_minutes = 40
warmup_minutes = 5
"""

_TRACE_CFG = SimConfig(
    num_videos=3, lps_capacity=3, arrival_rate_per_min=8.0, horizon_minutes=20.0,
    warmup_minutes=5.0, seed=3,
)

# About 1,850 arrivals over three simulated hours: the traces pin each
# substream the two schemes draw from far past its first values.
_LONG_CFG = SimConfig(
    num_videos=3, arrival_rate_per_min=10.0, horizon_minutes=180.0, warmup_minutes=5.0, seed=3,
)

# Seven videos leave most in-range clients holding another video, so a
# dsc run relays often: 112 of 534 counted arrivals in one simulated hour.
_RELAY_CFG = SimConfig(
    num_videos=7, arrival_rate_per_min=10.0, client_range_m=25.0, horizon_minutes=60.0,
    warmup_minutes=5.0, seed=5,
)


class _OutcomeLog(Simulation):
    """A run that also logs every arrival's outcome: the trace never prints a forwarder."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outcomes = []

    def _apply_outcome(self, c, out):
        self.outcomes.append(f"{self.now} client={c.id} {out!r}\n")
        super()._apply_outcome(c, out)


# (label, extra analyze flags): the dedicated report, a broadcast
# reservation, everything cached, and every uncached item broadcast.
_ANALYZE_CASES = (
    ("analyze", []),
    ("analyze-reserved", ["--reserved-mbps", "1.5"]),
    ("analyze-all-cached", ["--cache-mbit", "20000"]),
    ("analyze-all-broadcast", ["--reserved-mbps", "3", "--lps-channels", "1"]),
)

RECORDED = {
    "experiment-csv": "a5013da5ff5df424fd41634fe71d382d9744c3d8f7a398f13530334dcda0d008",
    "simulate-text": "a10d33cf3b883a5a9b7d5e39c1470cec061c468807a7cb2df2471a3415263f8a",
    "simulate-csv": "95513a6f442574cb438469c004593bb33dc506636eb8787094b62c8366a0483d",
    "trace-no-cache": "9cd3e16eae49ec2245d9db2362ab0bffca09ed46193695d3e76f19fbe410831b",
    "trace-all-cache": "f9e59ed1a18fa32300029356044541d2a6d6ff812c1935d73609a85245f0de14",
    "trace-random-cache": "774364f0d7eb9bcf0ca6c93aafefe83cb005f70611289fb792adba0ec3f21190",
    "trace-dsc-cache": "b17583bc4b491f40a4211cdf980923b979863e2d1a931f6615204efa88b3fe45",
    "trace-por-cache": "bf5f4488201cccc1ef57243fd12ea063e5ce0ce7a80d522a72ed0658f2c4c90f",
    "trace-proxy-cache": "c29c4347481e6e6df61fd131e14c79c34c6a7166b6aaa18947b6956d2ea56d88",
    "analyze": "78ad8aec8975567e649446f899b2ab25358201d560b203a31d45058013676027",
    "analyze-reserved": "0f23aee57f6e8cb9273ede45181df2c44626fdaa5b2c911bed8b5b67bfa997d8",
    "analyze-all-cached": "ced58441c2fc0ea50f86ae09567be37c528adc95758269c447dd46fb205211f1",
    "analyze-all-broadcast": "ee4cd875bd0dd96077728b0fb369d9d6a165fbda389d416b4e62ca17aa7dc9c4",
    "capacity-reports": "ec6f814970a218a25ea0887517065e82630fb039c5f842b87b07bac862f215b6",
    "trace-long-run": "f9bb58eebc5b6c369afdac9dd3c3774313b6cd1b0921f34c950ae7f011dc9441",
    "relay-catalog": "794a5cc2fd321d70697f100191ca66ddf9ad72c5bd636e734487ca65cd2ae97f",
}


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _capacity_reports() -> str:
    """Both reports, repr'd to the last bit, for each analyze case's placement."""
    videos = catalog_from_config(SimConfig(num_videos=3))
    mbit = 1_000_000
    rows = []
    for cache_mbit in (0.0, 8100.0, 20000.0):
        for reserved_mbps in (0.0, 1.5, 3.0):
            placement = analytic.place_cache(videos, cache_mbit * mbit)
            placement = analytic.select_broadcast_videos(videos, placement, reserved_mbps * mbit, 1)
            for analysis in (analytic.dedicated_stream_analysis, analytic.broadcast_analysis):
                rows.append(repr(analysis(videos, placement, 0.1, 54.0 * mbit, 60.0)))
    return "\n".join(rows)


def golden_digests(tmp_path) -> dict[str, str]:
    cfg_path = tmp_path / "golden.cfg"
    cfg_path.write_text(_CONFIG, encoding="utf-8")
    out = {}

    sweep = tmp_path / "sweep.csv"
    _stdout_of(["experiment", "--config", str(cfg_path), "--name", "delay_vs_arrival",
                "--sweep", "4,10", "--reps", "2", "--out", str(sweep)])
    out["experiment-csv"] = _sha(sweep.read_bytes())

    run_csv = tmp_path / "run.csv"
    text = _stdout_of(["simulate", "--config", str(cfg_path), "--scheme", "proxy",
                       "--out", str(run_csv)])
    out["simulate-text"] = _sha(text)
    out["simulate-csv"] = _sha(run_csv.read_bytes())

    for scheme in SchemeId:
        trace = io.StringIO()
        run_simulation(_TRACE_CFG, scheme, trace=trace)
        out[f"trace-{scheme.value}"] = _sha(trace.getvalue())

    for label, flags in _ANALYZE_CASES:
        out[label] = _sha(_stdout_of(["analyze", "--config", str(cfg_path), *flags]))
    out["capacity-reports"] = _sha(_capacity_reports())

    traces = io.StringIO()
    for scheme in (SchemeId.ALL_CACHE, SchemeId.DSC_CACHE):
        run_simulation(_LONG_CFG, scheme, trace=traces)
    out["trace-long-run"] = _sha(traces.getvalue())

    trace = io.StringIO()
    relay_run = _OutcomeLog(_RELAY_CFG, SchemeId.DSC_CACHE, trace=trace)
    report = relay_run.run()
    out["relay-catalog"] = _sha(trace.getvalue() + "".join(relay_run.outcomes) + repr(report))
    return out


def test_outputs_match_recorded_digests(tmp_path):
    assert golden_digests(tmp_path) == RECORDED


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print or check the golden digests.")
    parser.add_argument("--check", action="store_true",
                        help="exit 1, naming each label, if any digest moved from RECORDED")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    if args.check:
        moved = [label for label in {**RECORDED, **digests} if digests.get(label) != RECORDED.get(label)]
        for label in moved:
            print(f"{label}: digest moved", file=sys.stderr)
        sys.exit(1 if moved else 0)
    print("RECORDED = {")
    for label, digest in digests.items():
        print(f'    "{label}": "{digest}",')
    print("}")
