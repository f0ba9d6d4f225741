"""Self-test of the benchmark, on a short job subset.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from jobs import ROOT  # noqa: E402
from layers import EXACT  # noqa: E402

SUBSET = (
    ("cli", "weights", "3", "6", "4", "--engines", "brute,sums,closed", "--workers", "1"),
    ("cli", "verify", "5", "3", "1"),
    ("cli", "analyze", "7", "4", "1"),
    ("cli", "sums", "3", "5", "1", "--sum", "S", "--workers", "2"),
    ("lib", "s-census-fast", "3", "4", "1"),
)


@pytest.fixture(scope="module")
def traced_runs():
    expected = run.load_expected()
    run.warm_up()
    return [run.run_rounds(SUBSET, seed, 0, True, expected) for seed in (1, 2)]


def test_exact_counts_repeat(traced_runs):
    first, second = (run.per_layer(runs) for runs in traced_runs)
    assert {name: first[name] for name in EXACT} == {name: second[name] for name in EXACT}
    assert first["batch.matrices"][0] > 0
    assert first["batch.coordinate_checks"][0] > 0
    assert first["gf.field_elements"][0] > 0
    assert first["quadforms.diagonalize_calls"][0] > 0
    assert first["batch.t_class_data_hit_ratio"][0] > 0


def test_traced_stdout_is_untraced_stdout(traced_runs):
    for runs in traced_runs:
        for plain, traced in zip(runs["plain"], runs["traced"]):
            assert len(plain) == len(traced) == run.ROUNDS_PER_CYCLE
            for a, b in zip(plain, traced):
                assert a["stdout"] == b["stdout"]


def test_known_failure_counts_but_keeps_run_correct(traced_runs):
    # The --workers 2 S census is wrong at modulus indices 1 and 2; one cycle
    # runs it at both, traced and untraced.
    for runs in traced_runs:
        assert run.verdict(runs) == (True, 2 * len(SUBSET) * run.ROUNDS_PER_CYCLE, 4)


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_benchmark_json_matches_the_runner(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    end_to_end = run.end_to_end({**traced_runs[0], "setup": [1.0]})
    per_layer = run.per_layer(traced_runs[0])
    for section, metrics in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            name: unit for name, (_, unit) in metrics.items()
        }
