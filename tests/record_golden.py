"""Record the golden CLI corpus: one JSON file per invocation in tests/golden/.

Each record holds the argv, the exit code, stdout and stderr of one run of
twozero.cli.main in this process.  tests/test_golden.py replays every
record and requires the same three outputs byte for byte, so a change that
means to alter CLI output re-records and lists the changed records.

    PYTHONPATH=src python tests/record_golden.py

The runs are made in a fresh temporary working directory, so the relative
--output path of the unwritable-output record never exists.  pytest does
not collect this file.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# The engines each weights run uses: every engine where the closed table exists,
# brute and sums at the OddS points, which have none.
POINTS = {
    (3, 4, 1): "brute,sums,closed",
    (5, 3, 1): "brute,sums",
    (3, 6, 4): "brute,sums,closed",
    (3, 5, 2): "brute,sums",
    (3, 6, 2): "brute,sums",
}


def _point_invocations() -> list[list[str]]:
    out = []
    for (p, m, k), engines in POINTS.items():
        pmk = [str(p), str(m), str(k)]
        out += [["analyze", *pmk, "--format", fmt] for fmt in ("json", "markdown")]
        out += [
            ["weights", *pmk, "--engines", engines, "--format", fmt]
            for fmt in ("json", "csv", "markdown")
        ]
        out += [
            ["sums", *pmk, "--sum", "S", "--format", fmt] for fmt in ("json", "csv", "markdown")
        ]
        out += [
            ["sums", *pmk, "--sum", "T", "--engine", "closed", "--format", "markdown"],
            ["sums", *pmk, "--sum", "S", "--engine", "closed", "--format", "csv"],
            ["census", *pmk, "--format", "json"],
            ["census", *pmk, "--format", "markdown"],
            ["verify", *pmk],
        ]
    return out


INVOCATIONS = _point_invocations() + [
    # the default engine (closed), and closed weights past brute's reach
    ["weights", "3", "4", "1"],
    ["weights", "3", "5", "2"],
    ["weights", "3", "8", "2", "--engines", "closed", "--format", "csv"],
    # (3, 8, 2): CaseB with even k and d = 2, by every engine and every check
    ["weights", "3", "8", "2", "--engines", "brute,sums,closed"],
    ["verify", "3", "8", "2"],
    # analyze at modulus indices 0-2
    *(["analyze", "3", "4", "1", "--modulus-index", str(i)] for i in range(3)),
    *(["analyze", "5", "3", "1", "--modulus-index", str(i)] for i in range(3)),
    # the direct sums at the points where they fit the default budget
    ["sums", "3", "4", "1", "--sum", "T", "--engine", "direct", "--format", "csv"],
    ["sums", "3", "4", "1", "--sum", "S", "--engine", "direct"],
    ["sums", "5", "3", "1", "--sum", "S", "--engine", "direct", "--format", "markdown"],
    ["sums", "3", "5", "2", "--sum", "T", "--engine", "direct"],
    # verify with explicit checks
    ["verify", "3", "4", "1", "--checks", "e1,e2,example"],
    ["verify", "3", "6", "4", "--checks", "identities,max-rank"],
    # brute at an OddS point past 3**8, within the default budget
    ["weights", "3", "9", "3", "--engines", "brute"],
    # exit 2: invalid parameters
    ["analyze", "3", "2", "1"],
    ["analyze", "4", "6", "1"],
    ["weights", "3", "4", "1", "--engines", "fast"],
    ["verify", "3", "4", "1", "--checks", "nothing"],
    ["sums", "3", "4", "1", "--budget", "-1"],
    ["weights", "3", "4", "1", "--modulus-index", "18"],
    ["census", "3", "4", "1", "--workers", "0"],
    ["weights", "3", "4", "1", "-o", "missing/out"],
    # exit 3: refusals
    ["analyze", "3", "100000000", "1"],
    ["analyze", "3", "14", "1"],
    ["weights", "3", "4", "1", "--engines", "brute", "--budget", "100"],
    ["sums", "3", "6", "4", "--sum", "T", "--engine", "direct"],
    ["sums", "3", "6", "4", "--sum", "S", "--engine", "direct"],
    ["census", "3", "4", "1", "--budget", "10"],
    ["verify", "3", "4", "1", "--budget", "0"],
    ["verify", "3", "4", "1", "--checks", "e1", "--budget", "100"],
    ["verify", "3", "5", "2", "--checks", "max-rank"],
    ["sums", "3", "5", "2", "--engine", "closed"],
]


def record_name(argv: list[str]) -> str:
    """The file stem of a record: the argv joined by '_', path separators dropped."""
    return "_".join(argv).replace("/", "")


def run(argv: list[str]) -> dict:
    """argv, exit code, stdout and stderr of cli.main(argv)."""
    from twozero import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    names = [record_name(argv) for argv in INVOCATIONS]
    if len(set(names)) != len(names):
        raise SystemExit("two invocations share a record name")
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="twozero-golden-") as tmp:
        os.chdir(tmp)
        try:
            for name, argv in zip(names, INVOCATIONS):
                text = json.dumps(run(argv), indent=1) + "\n"
                (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        finally:
            os.chdir(here)
    print(f"recorded {len(names)} invocations in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
