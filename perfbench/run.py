"""twozero benchmark: runs one workload as CLI jobs and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job runs in a fresh ``python -m twozero`` process (library jobs in a
fresh ``libjob.py`` process) against the checkout's ``src``. The seed picks
only each job's starting ``--modulus-index``. Rounds come in cycles of
three: within a cycle each job runs once at each modulus index, so every run
measures the same mix whatever the seed. The job order of each round is
shuffled from a fixed schedule seed. Cycles repeat for about ``--seconds``,
and a job's time is its median over the rounds, because the host's speed
drifts in phases of seconds. Each round also times one set-up (a fresh
interpreter importing twozero and building every code of the workload) at a
shuffled place among the jobs.

Every job's exit code and stdout sha256 is checked against
``expected.json``; ``ok_frac`` is the share of job runs that matched. A job
listed in ``KNOWN_WRONG_ANSWERS`` counts as failed when it differs, but
does not make the run incorrect. With ``--trace 0`` the last line carries
the end-to-end metrics. With ``--trace 1`` every job also runs traced
(``traced.py``) next to an untraced run of the same job, and the last line
carries the per-layer metrics and the tracing overhead. The line before the
last is a record of the run: seed, provenance and per-job medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from jobs import BENCH_DIR, ROOT, SRC, job_argv, run_argv
from layers import layer_metrics, raw_sums
from workloads import (
    MODULUS_INDICES,
    WORKLOADS,
    expected_key,
    job_key,
    known_wrong_answer,
    pmk_triples,
)

ROUNDS_PER_CYCLE = len(MODULUS_INDICES)
SCHEDULE_SEED = 0  # job order, the same for every workload seed
SETUP = -1  # the set-up's place in a round's job order
SETUP_CODE = (
    "import twozero\n"
    "for p, m, k in {triples}:\n"
    "    twozero.build_code(p, m, k)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_expected() -> dict:
    """Expected exit code and stdout sha256 of every job (see record_expected.py)."""
    if not (SRC / "twozero" / "__init__.py").is_file():
        raise BenchError(f"no twozero package under {SRC}")
    return json.loads((BENCH_DIR / "expected.json").read_text())


def python_c(code: str) -> list[str]:
    return [sys.executable, "-c", code]


def warm_up() -> str:
    """Import everything once (fills the bytecode cache); returns numpy's version."""
    code = "import numpy, twozero.cli, twozero.batch; print(numpy.__version__)"
    result = run_argv(python_c(code))
    if result.returncode != 0:
        raise BenchError("importing twozero failed")
    return result.stdout.decode().strip()


def setup_sample(argv: list[str]) -> float:
    """Wall time of one set-up run."""
    result = run_argv(argv)
    if result.returncode != 0:
        raise BenchError("set-up (import and build_code) failed")
    return result.wall_s


def run_job(job, index: int, expected: dict, trace_out: str | None = None) -> dict:
    """One job run, checked against its expected output; traced if ``trace_out`` is set."""
    result = run_argv(job_argv(job, index, trace_out))
    want = expected[expected_key(job, index)]
    ok = result.returncode == want["returncode"] and result.digest == want["sha256"]
    record = {
        "ok": ok,
        "known_failure": not ok and known_wrong_answer(job, index),
        "wall_s": result.wall_s,
        "cpu_s": result.cpu_s,
        "peak_rss_mb": result.peak_rss_mb,
        "stdout": result.stdout,
    }
    if trace_out is not None:
        with open(trace_out, encoding="utf-8") as handle:
            record["layers"] = raw_sums(json.load(handle))
        os.unlink(trace_out)
    return record


def run_rounds(jobs, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    """Run whole cycles of rounds for about ``seconds``.

    Cycles stop when the next one would end more than half a cycle late, so
    a run lasts ``seconds`` give or take half a cycle, and at least one cycle.

    Returns per-job lists of untraced runs ("plain") and, when tracing,
    traced runs ("traced"), in round order, and the set-up times ("setup";
    none when tracing).
    """
    rng = random.Random(seed)
    offsets = [rng.randrange(ROUNDS_PER_CYCLE) for _ in jobs]
    schedule = random.Random(SCHEDULE_SEED)
    plain = [[] for _ in jobs]
    traced = [[] for _ in jobs]
    setup: list[float] = []
    setup_argv = python_c(SETUP_CODE.format(triples=pmk_triples(jobs)))
    start = time.perf_counter()
    cycles = 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as trace_dir:
        while True:
            cycle_start = time.perf_counter()
            for r in range(ROUNDS_PER_CYCLE):
                order = list(range(len(jobs))) + ([] if trace else [SETUP])
                schedule.shuffle(order)
                for j in order:
                    if j == SETUP:
                        setup.append(setup_sample(setup_argv))
                        continue
                    index = MODULUS_INDICES[(offsets[j] + r) % ROUNDS_PER_CYCLE]
                    if not trace:
                        plain[j].append(run_job(jobs[j], index, expected))
                        continue
                    # Traced and untraced runs side by side, in shuffled order.
                    pair = [None, os.path.join(trace_dir, "spans.json")]
                    if schedule.random() < 0.5:
                        pair.reverse()
                    for trace_to in pair:
                        rec = run_job(jobs[j], index, expected, trace_to)
                        (plain if trace_to is None else traced)[j].append(rec)
            cycles += 1
            now = time.perf_counter()
            if now - start + (now - cycle_start) / 2 >= seconds:
                break
    return {"plain": plain, "traced": traced, "setup": setup, "cycles": cycles}


def job_medians(runs: list[list[dict]], key: str) -> list[float]:
    return [statistics.median(r[key] for r in job_runs) for job_runs in runs]


def verdict(runs: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every job run."""
    every = [rec for group in ("plain", "traced") for job_runs in runs[group] for rec in job_runs]
    failed = sum(not rec["ok"] for rec in every)
    correct = all(rec["ok"] or rec["known_failure"] for rec in every)
    return correct, len(every), failed


def end_to_end(runs: dict) -> dict[str, tuple[float, str]]:
    correct, attempted, failed = verdict(runs)
    plain = runs["plain"]
    return {
        "wall_s": (sum(job_medians(plain, "wall_s")), "s"),
        "cpu_s": (sum(job_medians(plain, "cpu_s")), "s"),
        "peak_rss_mb": (max(job_medians(plain, "peak_rss_mb")), "MiB"),
        "setup_s": (statistics.median(runs["setup"]), "s"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(runs: dict) -> dict[str, tuple[float, str]]:
    traced = runs["traced"]
    sums: dict[str, float] = {}
    for job_runs in traced:
        keys = {k for rec in job_runs for k in rec["layers"]}
        for k in keys:
            value = statistics.median(rec["layers"].get(k, 0) for rec in job_runs)
            sums[k] = sums.get(k, 0) + value
    metrics = layer_metrics(sums)
    overhead = sum(job_medians(traced, "wall_s")) - sum(job_medians(runs["plain"], "wall_s"))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "twozero").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or None


def job_record(jobs, runs: dict) -> list[dict]:
    out = []
    for j, job in enumerate(jobs):
        rec = {"job": job_key(job), "runs": len(runs["plain"][j])}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            rec[key] = statistics.median(r[key] for r in runs["plain"][j])
        rec["failed"] = sum(not r["ok"] for r in runs["plain"][j] + runs["traced"][j])
        out.append(rec)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit, so the running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    jobs = WORKLOADS[args.workload]
    try:
        expected = load_expected()
        numpy_version = warm_up()
        runs = run_rounds(jobs, args.seed, args.seconds, bool(args.trace), expected)
    except (BenchError, OSError, KeyError) as exc:  # OSError covers job timeouts
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 2
    correct, attempted, failed = verdict(runs)
    metrics = per_layer(runs) if args.trace else end_to_end(runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cycles": runs["cycles"],
        "setup_samples_s": runs["setup"],
        "jobs": job_record(jobs, runs),
    }
    if args.trace:
        record["tracing_overhead_s"] = metrics["trace.overhead_s"][0]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
