"""Rules of the package source that no behavioural test would notice breaking.

No module-global caches: state derived from a field is memoized on that
field (FiniteField.memoized), so it lives exactly as long as the field.
A functools cache on a module-level function would outlive every field
and grow without bound.  The sources are read with ast, so nothing is
imported here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twozero"
CACHES = {"lru_cache", "cache"}


def _functools_caches(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [alias.name for alias in node.names if alias.name in CACHES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(f"functools.{node.attr}")
    return found


def test_the_rule_sees_both_spellings():
    source = "from functools import lru_cache\nimport functools\nf = functools.cache(len)\n"
    assert _functools_caches(ast.parse(source)) == ["lru_cache", "functools.cache"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_functools_cache(path):
    assert _functools_caches(ast.parse(path.read_text(encoding="utf-8"))) == []
