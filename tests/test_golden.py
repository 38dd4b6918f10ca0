"""Fixed-seed outputs pinned by sha256 digest.

Every digest below was recorded from the code before the slot, loss and
event-heap paths were merged. A refactor that is meant to keep behaviour
must keep every byte of these outputs: the six-scheme sweep CSV, the
single-run report and CSV, one event trace per scheme, and the analytic
report on each of its branches. When a change is meant to alter an
output, record the new digest here and say why in CHANGES.md. The
``experiment-csv`` and ``capacity-reports`` digests were re-recorded when
``ci95_ms`` took the Student-t quantile and empty report sums became 0.0;
``analyze-all-cached`` and ``analyze-all-broadcast`` when ``analyze``
began printing runs of consecutive items as ``vAqQ-vBqQ``.
``PYTHONPATH=src python tests/test_golden.py`` prints the current digests
in the format of ``RECORDED``.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from sbvod import analytic
from sbvod.caching import SchemeId
from sbvod.cli import main
from sbvod.domain import SimConfig, catalog_from_config
from sbvod.engine import run_simulation

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

# (label, extra analyze flags): the dedicated report, a broadcast
# reservation, everything cached, and every uncached item broadcast.
_ANALYZE_CASES = (
    ("analyze", []),
    ("analyze-reserved", ["--reserved-mbps", "1.5"]),
    ("analyze-all-cached", ["--cache-mbit", "20000"]),
    ("analyze-all-broadcast", ["--reserved-mbps", "3", "--lps-channels", "1"]),
)

RECORDED = {
    "experiment-csv": "8fe5d6388c755a1735c211db0c0ddb34e2bf2c81181b3c3a0bda13d7a15ee363",
    "simulate-text": "4457b3730199e19b0e42eb0af18dad61c7af9d82a79ccaf7d1d385acbf014063",
    "simulate-csv": "94216345c85b202dc0cc6dbde96271d5dbf55afe5adc3f59912ebde8fcdf87c9",
    "trace-no-cache": "a6a81ecd94f1d025a63cbdda738aefb203aa314284d7985ca11bd6b55f2df6a6",
    "trace-all-cache": "ae676d56e969d10297932c61975c88149e4d9bce05593c9676b6e15adc8c5359",
    "trace-random-cache": "0e5b42a6741c3a6ea62ffc65fd8979499ba551f4d30da5e90037d6563034f04e",
    "trace-dsc-cache": "908471be00da15ba173ef970aa16ab734a22d4322d48e17f48176c0eb92bdf2d",
    "trace-por-cache": "3c0f7b6015da6dcfca0c7648856e6a801d135ffb121d3fad688fa224bc672415",
    "trace-proxy-cache": "e07289ef9880732791eb99d4cd676d547431760e667ceeb5adf43b26faea4200",
    "analyze": "78ad8aec8975567e649446f899b2ab25358201d560b203a31d45058013676027",
    "analyze-reserved": "0f23aee57f6e8cb9273ede45181df2c44626fdaa5b2c911bed8b5b67bfa997d8",
    "analyze-all-cached": "ced58441c2fc0ea50f86ae09567be37c528adc95758269c447dd46fb205211f1",
    "analyze-all-broadcast": "ee4cd875bd0dd96077728b0fb369d9d6a165fbda389d416b4e62ca17aa7dc9c4",
    "capacity-reports": "5294fc4c398ae3eb5c2a487d4f9fa2f089912dda42daf980023e919525645fea",
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
    return out


def test_outputs_match_recorded_digests(tmp_path):
    assert golden_digests(tmp_path) == RECORDED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    print("RECORDED = {")
    for label, digest in digests.items():
        print(f'    "{label}": "{digest}",')
    print("}")
