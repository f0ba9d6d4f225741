"""The committed mutation record must stay applicable.

tests/run_mutations.py applies each mutation of tests/mutations.json to a
copy of the repo and checks that its named tests fail.  That is too slow
for the suite, so here, without running any mutant, each old snippet must
still occur exactly once in its file and each named test must still be
collected, so the record cannot rot.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTATIONS = json.loads((ROOT / "tests" / "mutations.json").read_text(encoding="utf-8"))


def test_record_entries_are_complete():
    names = [m["name"] for m in MUTATIONS]
    assert len(set(names)) == len(names) >= 4
    for mutation in MUTATIONS:
        assert set(mutation) == {"name", "file", "old", "new", "why", "tests"}, mutation["name"]
        assert mutation["old"] != mutation["new"] and mutation["tests"], mutation["name"]


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m["name"])
def test_old_snippet_occurs_exactly_once(mutation):
    assert (ROOT / mutation["file"]).read_text(encoding="utf-8").count(mutation["old"]) == 1


def test_named_tests_are_collected():
    named = sorted({t for m in MUTATIONS for t in m["tests"]})
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--collect-only", "-p", "no:cacheprovider", *named],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = {line for line in proc.stdout.splitlines() if "::" in line}
    assert collected == set(named)
