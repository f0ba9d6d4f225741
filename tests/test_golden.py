"""Replay the golden CLI corpus: stdout, stderr and exit code byte for byte.

Each record of tests/golden/ holds one invocation of twozero.cli.main with
the outputs it gave when it was recorded (tests/record_golden.py).  The
runs here are in process, in an empty working directory, as they were
recorded.

Each record that names no --output is replayed a second time with
`-o out`, where `out` already holds `kept`: a run that exits 0 or 1 writes
exactly its recorded stdout to the file and nothing to stdout, and a run
that exits 2 or 3 writes nothing to either.  Records that argparse itself
rejects (a usage line, exit 2) never reach the write and are left out.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from twozero import cli

RECORDS = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))


def _takes_output(path: Path) -> bool:
    record = json.loads(path.read_text(encoding="utf-8"))
    named = {"-o", "--output"} & set(record["argv"])
    return not named and not record["stderr"].startswith("usage: ")


def test_corpus_is_present():
    assert len(RECORDS) >= 60


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.stem)
def test_replay(path, capsys, monkeypatch, tmp_path):
    record = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    try:
        code = cli.main(list(record["argv"]))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"])


@pytest.mark.parametrize(
    "path", [p for p in RECORDS if _takes_output(p)], ids=lambda path: path.stem
)
def test_replay_to_output(path, capsys, monkeypatch, tmp_path):
    record = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").write_text("kept", encoding="utf-8")
    code = cli.main([*record["argv"], "-o", "out"])
    out, err = capsys.readouterr()
    written = (tmp_path / "out").read_text(encoding="utf-8")
    assert (code, out, err) == (record["exit"], "", record["stderr"])
    assert written == (record["stdout"] if code in (0, 1) else "kept")
