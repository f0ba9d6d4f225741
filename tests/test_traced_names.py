"""The names the perfbench tracer wraps must exist in twozero.

perfbench/traced.py looks its functions up by name; a rename in twozero
would only show when a traced run fails.  The tables are read with ast, so
no perfbench code runs here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACED.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPAN_FUNCTIONS", "HOT_FUNCTIONS", "SPAN_METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def _wrapped_names() -> list[tuple[str, str]]:
    tables = _tables()
    names = [
        (module, fn)
        for table in ("SPAN_FUNCTIONS", "HOT_FUNCTIONS")
        for module, fns in tables[table].items()
        for fn in fns
    ]
    names += [(module, f"{cls}.{method}") for module, cls, method in tables["SPAN_METHODS"]]
    return names


def test_all_three_tables_are_read():
    assert set(_tables()) == {"SPAN_FUNCTIONS", "HOT_FUNCTIONS", "SPAN_METHODS"}


@pytest.mark.parametrize("module, name", _wrapped_names(), ids=lambda v: v)
def test_wrapped_name_resolves(module, name):
    target = importlib.import_module(module)
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)
