"""The benchmark's tracer wraps package callables that it names by home
module and attribute path; one that no longer resolves would silently
zero its per-layer metric, so every name is resolved here as
``perfbench/tracer.py``'s ``install`` resolves it, without wrapping it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [pytest.param(home, path, id=f"{home}.{path}") for _, home, path, _ in tracer.TARGETS]


@pytest.mark.parametrize("home, path", tracer_targets())
def test_traced_callable_resolves(home, path):
    owner = importlib.import_module(home)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
