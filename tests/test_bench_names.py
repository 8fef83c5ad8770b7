"""The benchmark's tracer wraps covsel functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names():
    """The FUNCTIONS tuple of bench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS tuple in {TRACING}")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"covsel.{module}"), attr, None)), name
