"""Check that every mutation in tests/mutations.json is caught by its named tests.

A mutation replaces one exact snippet of one file.  The runner first runs
every named test on an unmutated copy of src/ and tests/, where they must
all pass.  Then, for each mutation, it applies the replacement to a fresh
copy and runs only that mutation's tests, each of which must fail.

    python tests/run_mutations.py

Exit status 0 when every mutation is caught by all its tests, 1 when a
test misses one.  The copies live in a temporary directory that is
removed at the end.  pytest does not collect this file; each mutant costs
one pytest run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "mutations.json"


def copy_tree(dest: Path) -> Path:
    """A copy of the package sources, the tests and the pytest settings."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def failing(workdir: Path, tests: list[str]) -> set[str]:
    """The node ids among tests that fail or error when run in workdir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(workdir / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode not in (0, 1):  # interrupted, a usage error or a test not found
        raise SystemExit(f"pytest could not run the tests:\n{proc.stdout}{proc.stderr}")
    return {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def apply(workdir: Path, mutation: dict) -> None:
    path = workdir / mutation["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutation["old"]) != 1:
        raise SystemExit(f"{mutation['name']}: the old snippet does not occur exactly once")
    path.write_text(text.replace(mutation["old"], mutation["new"]), encoding="utf-8")


def main() -> int:
    mutations = json.loads(RECORD.read_text(encoding="utf-8"))
    missed = 0
    with tempfile.TemporaryDirectory(prefix="twozero-mutants-") as tmp:
        named = sorted({t for m in mutations for t in m["tests"]})
        broken = failing(copy_tree(Path(tmp) / "unmutated"), named)
        if broken:
            print("named tests fail without any mutation:", *sorted(broken), sep="\n  ")
            return 1
        for mutation in mutations:
            work = copy_tree(Path(tmp) / mutation["name"])
            apply(work, mutation)
            survivors = sorted(set(mutation["tests"]) - failing(work, mutation["tests"]))
            if survivors:
                missed += 1
                print(f"MISSED {mutation['name']}: these tests still pass:", *survivors, sep="\n  ")
            else:
                print(f"caught {mutation['name']}: {len(mutation['tests'])} tests fail")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
