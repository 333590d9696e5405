"""The names that perfbench/layertrace.py wraps must exist.

The tracer looks each name up only when a traced benchmark run installs it,
so a library change that deletes or renames one fails here, with the name,
instead of only in the traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _timed():
    spec = importlib.util.spec_from_file_location("_layertrace_names", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TIMED


@pytest.mark.parametrize("name", [f"{mod}.{fn}" for mod, fn in _timed()]
                         + ["transport.Measure.__post_init__", "rng.SplitMix64.uniform"])
def test_wrapped_name_resolves(name):
    target = importlib.import_module(f"metriclab.{name.split('.')[0]}")
    for attr in name.split(".")[1:]:
        assert hasattr(target, attr), f"perfbench/layertrace.py wraps metriclab.{name}"
        target = getattr(target, attr)
    assert callable(target)
