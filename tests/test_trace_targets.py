"""Every layer the benchmark traces still exists.

``benchmarks/namerbench/launch.py --trace`` wraps each ``module:attr``
target of its ``LAYERS`` table before running the CLI, and raises
``AttributeError`` on a missing one.  The benchmark's own smoke test is
not part of the tier-1 suite, so this test resolves every target the
same way the tracer does: a rename in ``src/`` fails here instead of in
a traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parents[1] / "benchmarks" / "namerbench" / "launch.py"


def layer_targets() -> list[str]:
    """The ``module:attr`` strings of ``LAYERS``, read without running
    ``launch.py``."""
    tree = ast.parse(LAUNCH.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return [entry.elts[1].value for entry in node.value.elts]
    raise AssertionError(f"no LAYERS table in {LAUNCH}")


@pytest.mark.parametrize("target", layer_targets())
def test_trace_target_resolves(target):
    module_name, _, attribute = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, leaf = attribute.split(".")
    for name in classes:
        owner = getattr(owner, name)
    inspect.getattr_static(owner, leaf)  # what the tracer replaces
    assert callable(getattr(owner, leaf))
