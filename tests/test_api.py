"""The names the package exports."""

import pytest

import sbvod


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(sbvod.__all__) == len(set(sbvod.__all__))
    for name in sbvod.__all__:
        assert getattr(sbvod, name, None) is not None, name


@pytest.mark.parametrize(
    "name", ["current_segment", "next_first_segment_start", "build_plan", "segment_duration_ms"]
)
def test_removed_timetable_queries_do_not_import(name):
    with pytest.raises(ImportError):
        exec(f"from sbvod import {name}", {})
