"""Rules of the package source that no behavioural test would notice breaking.

No module-global caches: state derived from a field is memoized on that
field (FiniteField.memoized), so it lives exactly as long as the field.
A functools cache on a module-level function would outlive every field
and grow without bound.

One field identity: the numpy kernels of batch.py read the field's int64
exp/log/zech tables through read-only views (batch.field_table), never
through a numpy copy, and take the twist as exponent shifts, never through
the scalar quadforms.twist_pair, which stays the reference the tests
compare them with.

One trace read: batch.py reads the field's trace table only in
batch.read_table, and trace_rows reads it at alpha log + exponent with no
reduction mod n, as _block_classes does.

One budget notion: every check_budget call sits in the function whose loop
it bounds (batch's passes, expsums' E1/E2 counts, gf's tables), so no
other module re-derives the size of a pass to budget it.

One exit path: only cli.main opens a file or touches sys.stdout, and every
print goes to sys.stderr, so a command returns its text and main alone
writes it, after the command has returned; a refused run writes nothing.

No dataclasses: every CLI run is a fresh process, and importing dataclasses
(with inspect behind it) and decorating the records cost about 10 ms of
start-up, so the records are written out with __slots__ (gf.Frozen).

The sources are read with ast, so nothing is imported here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twozero"
CACHES = {"lru_cache", "cache"}
FIELD_TABLES = {"exp", "log", "zech"}
NUMPY_COPIES = {"array", "asarray", "asanyarray", "ascontiguousarray", "fromiter", "copy"}


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


def _table_copies_and_twist_pair(tree: ast.AST) -> list[str]:
    """np.<copy>(x.exp|x.log|x.zech, ...) calls, and any import or use of twist_pair."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in NUMPY_COPIES
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and node.args
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr in FIELD_TABLES
        ):
            found.append(f"np.{node.func.attr}(.{node.args[0].attr})")
        elif isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names if alias.name == "twist_pair"]
        elif isinstance(node, ast.Attribute) and node.attr == "twist_pair":
            found.append("twist_pair")
    return found


def test_the_table_rule_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "from .quadforms import CodeParams, twist_pair\n"
        "a = np.array(field.exp, np.int64)\n"
        "b = np.asarray(f.log)\n"
        "c = quadforms.twist_pair(f, pr, 1, 1)\n"
        "d = np.frombuffer(field.log, np.int64)\n"
    )
    assert _table_copies_and_twist_pair(ast.parse(source)) == [
        "twist_pair",
        "np.array(.exp)",
        "np.asarray(.log)",
        "twist_pair",
    ]


def test_batch_reads_field_tables_in_place():
    tree = ast.parse((PACKAGE / "batch.py").read_text(encoding="utf-8"))
    assert _table_copies_and_twist_pair(tree) == []


def _owners(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Each top-level statement or class body item, named by its function or Class.method."""
    owners = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owners += [
                (f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef) else node.name, item)
                for item in node.body
            ]
        else:
            owners.append((node.name if isinstance(node, ast.FunctionDef) else "<module>", node))
    return owners


def _trace_table_owners(tree: ast.Module) -> list[str]:
    """The owner of each trace_of_power: attribute, name, string, import or definition."""
    return [
        name
        for name, owner in _owners(tree)
        for node in ast.walk(owner)
        if "trace_of_power"
        in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None))
        or (isinstance(node, ast.Constant) and node.value == "trace_of_power")
    ]


REDUCERS = {"mod", "remainder", "fmod", "divmod"}


def _reductions(function: ast.AST) -> list[str]:
    """Each %, %= and mod-like call (np.mod, np.remainder, np.fmod, divmod) in function."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            found.append("%" if isinstance(node, ast.BinOp) else "%=")
        elif isinstance(node, ast.Call):
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            if called in REDUCERS:
                found.append(called)
    return found


def test_the_trace_read_rule_sees_every_spelling():
    source = (
        "from .gf import trace_of_power\n"
        "def read_table(field, d):\n"
        "    return field.subfield_index_tables(d).trace_of_power\n"
        "def trace_rows(read, a, e):\n"
        "    tr = getattr(tabs, 'trace_of_power')\n"
        "    at = a % 3\n"
        "    at %= 3\n"
        "    return np.mod(at, 3) + np.remainder(at, 3) + np.fmod(at, 3) + divmod(at, 3)[0]\n"
        "class Tables:\n"
        "    trace_of_power: bytes\n"
    )
    tree = ast.parse(source)
    assert _trace_table_owners(tree) == ["<module>", "read_table", "trace_rows", "Tables"]
    functions = dict(_owners(tree))
    assert sorted(_reductions(functions["trace_rows"])) == [
        "%", "%=", "divmod", "fmod", "mod", "remainder"
    ]
    assert _reductions(functions["read_table"]) == []


def test_batch_reads_every_trace_one_way():
    tree = ast.parse((PACKAGE / "batch.py").read_text(encoding="utf-8"))
    assert _trace_table_owners(tree) == ["read_table"]
    assert _reductions(dict(_owners(tree))["trace_rows"]) == []


def _budget_checkers(tree: ast.Module) -> list[str]:
    """The top-level function or Class.method around each check_budget call."""
    return [
        name
        for name, owner in _owners(tree)
        for call in ast.walk(owner)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "check_budget"
    ]


def test_the_budget_rule_sees_every_owner():
    source = (
        "check_budget('a', 1, 'u', None, 1)\n"
        "def count():\n"
        "    def inner():\n"
        "        errors.check_budget('b', 1, 'u', None, 1)\n"
        "class Field:\n"
        "    def tables(self):\n"
        "        check_budget('c', 1, 'u', None, 1)\n"
        "    check_budget('d', 1, 'u', None, 1)\n"
    )
    assert _budget_checkers(ast.parse(source)) == ["<module>", "count", "Field.tables", "Field"]


BUDGET_CHECKERS = {
    "batch.py": [
        "t_class_data", "brute_weight_histogram", "direct_census", "phi_rank_histogram"
    ],
    "expsums.py": ["count_e1", "count_e2"],
    "gf.py": ["FiniteField.subfield_index_tables", "build_field"],
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_budgets_are_checked_beside_their_loops(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _budget_checkers(tree) == BUDGET_CHECKERS.get(path.name, [])


def _is_sys(node: ast.AST, attr: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == attr and getattr(node.value, "id", None) == "sys"


def _writers(tree: ast.Module) -> list[tuple[str, str]]:
    """(owner, what) for each open(...) call, sys.stdout use and print(...) without file=sys.stderr."""
    found = []
    for name, owner in _owners(tree):
        for node in ast.walk(owner):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                to_stderr = any(kw.arg == "file" and _is_sys(kw.value, "stderr") for kw in node.keywords)
                if called == "open":
                    found.append((name, "open"))
                elif called == "print" and not to_stderr:
                    found.append((name, "print"))
            elif _is_sys(node, "stdout") or (
                isinstance(node, ast.ImportFrom)
                and node.module == "sys"
                and any(alias.name == "stdout" for alias in node.names)
            ):
                found.append((name, "sys.stdout"))
    return found


def test_the_write_rule_sees_every_spelling():
    source = (
        "from sys import stdout\n"
        "def cmd(args):\n"
        "    print('x')\n"
        "    print('y', file=sys.stdout)\n"
        "    print('z', file=sys.stderr)\n"
        "    with open(args.output, 'w') as handle:\n"
        "        handle.write('x')\n"
        "class Report:\n"
        "    def save(self, path):\n"
        "        path.open('w').write(str(self))\n"
        "        sys.stdout.flush()\n"
    )
    assert sorted(_writers(ast.parse(source))) == [
        ("<module>", "sys.stdout"),
        ("Report.save", "open"),
        ("Report.save", "sys.stdout"),
        ("cmd", "open"),
        ("cmd", "print"),
        ("cmd", "print"),
        ("cmd", "sys.stdout"),
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_cli_main_writes(path):
    allowed = {("main", "open"), ("main", "sys.stdout")} if path.name == "cli.py" else set()
    writers = _writers(ast.parse(path.read_text(encoding="utf-8")))
    assert [w for w in writers if w not in allowed] == []


def _dataclasses_imports(tree: ast.AST) -> list[str]:
    """Each import of dataclasses or of a name from it, anywhere in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found += [f"dataclasses.{alias.name}" for alias in node.names]
    return found


def test_the_dataclasses_rule_sees_every_spelling():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "def late():\n"
        "    import math, dataclasses as dc\n"
    )
    assert _dataclasses_imports(ast.parse(source)) == [
        "dataclasses",
        "dataclasses.dataclass",
        "dataclasses.field",
        "dataclasses",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert _dataclasses_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
