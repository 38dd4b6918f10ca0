"""Per-event code reads no Enum class attribute: each member it compares against is a module global.

On CPython 3.10 and 3.11 a read such as ``SourceKind.LPS`` goes through ``EnumType.__getattr__``,
which the adaptive interpreter cannot specialise: about 101 and 86 ns, against about 5 ns for a
global (22 ns on 3.12, 23 on 3.13). A bytecode count cannot see it, since each read is one
instruction. So this scan compiles ``engine`` and ``caching`` from source and walks every code
object in them, methods, property getters and nested functions included, with
``dis.get_instructions``. It fails on a load of an Enum class, by global or by attribute,
outside the cold functions in ``COLD``, so a new per-event function is covered by default.
"""

import dis
import enum
import inspect
import sys
import types
from pathlib import Path

import pytest

from sbvod import caching, engine

# Functions that run once per run or per command, never per event, by qualified name.
# ``MetricsReport.<lambda>`` is the ``outcome_counts`` factory, one call per report.
COLD = {
    "engine": {"Simulation.__init__", "MetricsReport.<lambda>", "MetricsReport.attempts"},
    "caching": {"normalize_scheme"},
}


def code_objects(code: types.CodeType, prefix: str = ""):
    """(qualified name, code object) of every function and class body nested in ``code``."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            yield name, const
            # As in ``__qualname__``: a function's nested definitions are its locals.
            inner = ".<locals>." if const.co_flags & inspect.CO_OPTIMIZED else "."
            yield from code_objects(const, name + inner)


def enum_class_names(module) -> set[str]:
    return {name for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, enum.Enum)}


def enum_loads(module) -> dict[str, list[str]]:
    """Qualified name -> the Enum classes each code object of ``module`` loads, if any."""
    names = enum_class_names(module)
    path = Path(module.__file__)
    loads = {}
    for qualname, code in code_objects(compile(path.read_text(encoding="utf-8"), str(path), "exec")):
        if sys.version_info >= (3, 11):
            assert qualname == code.co_qualname
        found = [ins.argval for ins in dis.get_instructions(code)
                 if ins.opname in ("LOAD_GLOBAL", "LOAD_ATTR", "LOAD_METHOD") and ins.argval in names]
        if found:
            loads[qualname] = found
    return loads


@pytest.mark.parametrize("module", [engine, caching], ids=["engine", "caching"])
def test_per_event_code_loads_no_enum_class(module):
    loads = enum_loads(module)
    short = module.__name__.rpartition(".")[2]
    hot = {name: found for name, found in loads.items() if name not in COLD[short]}
    assert not hot, f"bind these members at module level: {hot}"
    # A cold entry that no longer loads a member is stale.
    assert COLD[short] <= set(loads), COLD[short] - set(loads)


def test_the_scan_sees_every_enum_the_engine_compares():
    assert {"SchemeId", "SourceKind", "ClientState"} <= enum_class_names(engine)
    assert {"SchemeId", "SourceKind"} <= enum_class_names(caching)


def test_the_scan_reaches_properties_and_nested_functions(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "import enum\n"
        "class Kind(enum.Enum):\n    A = 1\n"
        "class Box:\n    @property\n    def kind(self):\n        return Kind.A\n"
        "def outer():\n    def inner(m):\n        return m.Kind.A\n    return inner\n",
        encoding="utf-8")
    module = types.ModuleType("snippet")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    assert enum_loads(module) == {"Box.kind": ["Kind"], "outer.<locals>.inner": ["Kind"]}
