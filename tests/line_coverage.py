"""Line-coverage gate: every executable line of ``src/sbvod`` runs in tier-1, or has a listed reason.

Run as ``PYTHONPATH=src python tests/line_coverage.py`` on Python 3.12 or later; it takes no
arguments. It runs tier-1 in this process with CI's arguments, under a ``sys.monitoring`` LINE
callback that records each line of ``src/sbvod`` the first time it runs, then prints each
module's executable and unrun line counts. It exits 1 if pytest fails, if a line never runs and
is not in ``ALLOWED``, or if an ``ALLOWED`` line now runs.

A module's executable lines come from ``co_lines()`` of its compiled code objects, nested ones
included, less line 0 (the module's ``RESUME``). ``ALLOWED`` is keyed by a line's stripped text,
so an edit elsewhere in the module does not shift an entry.

Lines that forked sweep workers (``cli.run_many``) run are not counted. Every line they run also
runs in this process, since the tests run the same simulations in-process too; a line that only a
worker ran would show here as unrun, so the gate errs on the strict side.
"""

import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sbvod"

# (module, stripped source text, reason)
ALLOWED = [
    ("caching", "from .engine import ArrivalClass, Simulation",
     "runs only under a type checker; caching's annotations name Simulation and ArrivalClass"),
]


def executable_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main() -> int:
    if sys.version_info < (3, 12):
        sys.exit("line_coverage.py needs sys.monitoring, Python 3.12 or later")
    hits: dict[str, set[int]] = {}
    prefix = str(SRC) + os.sep

    def on_line(code, line):
        if code.co_filename.startswith(prefix):
            hits.setdefault(code.co_filename, set()).add(line)
        return sys.monitoring.DISABLE

    mon = sys.monitoring
    mon.use_tool_id(mon.COVERAGE_ID, "sbvod line coverage")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, on_line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
    os.chdir(ROOT)
    status = pytest.main(["-W", "error", "-q", "--continue-on-collection-errors"])
    mon.set_events(mon.COVERAGE_ID, 0)
    mon.free_tool_id(mon.COVERAGE_ID)

    allowed = {(module, text) for module, text, _ in ALLOWED}
    failed = status != 0
    total = unrun_total = 0
    print(f"{'module':<12} {'executable':>10} {'unrun':>6}")
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(source, str(path), "exec"))
        ran = hits.get(str(path), set())
        unrun = len(lines - ran)
        print(f"{path.stem:<12} {len(lines):>10} {unrun:>6}")
        total += len(lines)
        unrun_total += unrun
        text = source.splitlines()
        for n in sorted(lines):
            listed = (path.stem, text[n - 1].strip()) in allowed
            if (n in ran) == listed:  # unrun and not listed, or listed and run
                why = "runs but is allowlisted (stale entry)" if listed else "never runs and is not allowlisted"
                print(f"  {path.stem}.py:{n} {why}: {text[n - 1].strip()}")
                failed = True
    print(f"{'total':<12} {total:>10} {unrun_total:>6}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
