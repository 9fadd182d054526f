"""The benchmark's traced run hooks skylog callables by name; keep them resolvable.

A rename that orphans a hook does not break the benchmark, it silently
drops that per-layer metric.  This test makes such a rename fail instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

import skylog.cli

PROBE = Path(__file__).resolve().parent.parent / "bench" / "probe.py"


def _probe_constant(name: str):
    """A literal assigned at module level in probe.py, read without running it."""
    for node in ast.parse(PROBE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {PROBE}")


@pytest.mark.parametrize("target", [t for t, _name, _stage in _probe_constant("TARGETS")])
def test_bench_target_resolves_to_callable(target):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_bench_first_calls_exist_in_cli():
    for name in _probe_constant("FIRST_CALLS"):
        assert callable(getattr(skylog.cli, name))
