"""The benchmark's tracer wraps psilab entry points by name; they must exist.

`perfbench/tracing.py` replaces each `(module, attribute)` of its
`ENTRY_POINTS` with a timed wrapper, so a renamed or deleted name breaks only
a traced benchmark run.  This reads the table with `ast`, without importing
the benchmark, and checks every name against psilab.
"""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def entry_points():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets):
            return [(row.elts[0].id, ast.literal_eval(row.elts[1]))
                    for row in node.value.elts]
    raise AssertionError("no ENTRY_POINTS table in perfbench/tracing.py")


@pytest.mark.parametrize("module, attr", entry_points())
def test_traced_entry_point_exists(module, attr):
    assert hasattr(importlib.import_module(f"psilab.{module}"), attr)
