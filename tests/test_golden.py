"""Replay the golden CLI corpus: stdout, stderr and exit code byte for byte.

Each record of tests/golden/ holds one invocation of twozero.cli.main with
the outputs it gave when it was recorded (tests/record_golden.py).  The
runs here are in process, in an empty working directory, as they were
recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from twozero import cli

RECORDS = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))


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
