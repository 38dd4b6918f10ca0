"""Checks on the line-coverage gate that hold on every Python, not only where it runs (3.12+)."""

import pytest

from line_coverage import ALLOWED, SRC, executable_lines


@pytest.mark.parametrize("module, text, reason", ALLOWED, ids=[":".join(entry[:2]) for entry in ALLOWED])
def test_allowlist_entry_names_one_executable_line(module, text, reason):
    path = SRC / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    matches = [n for n in executable_lines(compile(source, str(path), "exec"))
               if lines[n - 1].strip() == text]
    assert len(matches) == 1, f"{module}.py: {text!r} matches executable lines {matches}"
    assert reason


def test_executable_lines_include_nested_code_and_drop_line_zero():
    code = compile("def outer():\n    def inner():\n        return 1\n    return inner\n",
                   "<snippet>", "exec")
    assert executable_lines(code) == {1, 2, 3, 4}
