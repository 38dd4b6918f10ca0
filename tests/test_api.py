"""The names the package exports, and the modules README lays out."""

import importlib
import re
from pathlib import Path

import pytest

import sbvod

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(sbvod.__all__) == len(set(sbvod.__all__))
    for name in sbvod.__all__:
        assert getattr(sbvod, name, None) is not None, name


@pytest.mark.parametrize(
    "name", ["current_segment", "next_first_segment_start", "build_plan", "segment_duration_ms",
             "BroadcastPlan"]
)
def test_removed_timetable_queries_do_not_import(name):
    with pytest.raises(ImportError):
        exec(f"from sbvod import {name}", {})


def test_the_timetable_module_is_gone():
    # The run derives its segment and cycle itself; engine classifies arrivals.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("sbvod.sb_scheduler")


def test_readme_layout_names_every_module():
    # A module added or deleted without a README line fails here.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    named = set(re.findall(r"^  (\w+\.py)\b", block, flags=re.MULTILINE))
    assert named == {p.name for p in (ROOT / "src" / "sbvod").glob("*.py")}
