"""The benchmark's layer tracer names library functions by module and
attribute path, and silently skips any it cannot find.  This test reads
its target table and fails fast when a rename leaves an entry dangling."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name: str, path: str):
    obj = importlib.import_module(f"circunits.{module_name}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize(
    "module_name, path",
    [pytest.param(*t[1:3], id=t[0]) for t in load_layertrace().TARGETS],
)
def test_trace_target_resolves(module_name, path):
    assert callable(resolve(module_name, path))


def test_d_power_cache_is_observable():
    _, module_name, attr = load_layertrace().D_POWER_CACHE
    assert (module_name, attr) == ("circular_units", "_d_power")
    assert callable(resolve(module_name, attr).cache_info)
