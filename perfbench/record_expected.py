"""Record the expected exit code and stdout digest of every benchmark job.

    python3 perfbench/record_expected.py

Run it on the commit whose outputs define "correct". Each job runs at every
modulus index. The expected output of a job is its index-0 output, except
for subcommands whose output depends on the modulus, which get one entry
per index. Outputs at other indices that differ from the expected one are
listed on stderr; they are wrong answers of the program.
"""

from __future__ import annotations

import json
import sys

from jobs import BENCH_DIR, job_argv, run_argv
from workloads import MODULUS_INDICES, WORKLOADS, expected_key

EXPECTED_FILE = BENCH_DIR / "expected.json"


def main() -> int:
    expected: dict[str, dict] = {}
    for name, jobs in WORKLOADS.items():
        for job in jobs:
            for index in MODULUS_INDICES:
                result = run_argv(job_argv(job, index))
                key = expected_key(job, index)
                got = {"returncode": result.returncode, "sha256": result.digest}
                print(f"{name:15s} {result.wall_s:7.3f} s {result.peak_rss_mb:6.1f} MB "
                      f"rc={result.returncode} @{index} {key}", file=sys.stderr)
                if key not in expected:
                    expected[key] = got
                elif expected[key] != got:
                    print(f"  differs from the expected output at index {index}", file=sys.stderr)
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
