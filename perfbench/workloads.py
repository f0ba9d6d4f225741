"""Job lists of the four benchmark workloads.

A job is a tuple of strings. ``("cli", ...)`` is a ``python -m twozero``
command line; ``("lib", ...)`` is a library job run by ``libjob.py``. The
benchmark appends ``--modulus-index I`` to every job, with I drawn from
{0, 1, 2} by the workload seed.
"""

from __future__ import annotations

MODULUS_INDICES = (0, 1, 2)

_PAIR_CENSUS = (
    ("census", "3", "6", "1"),
    ("sums", "5", "4", "1", "--sum", "S"),
    ("sums", "3", "5", "1", "--sum", "S"),
    ("weights", "3", "6", "4", "--engines", "brute,sums,closed"),
    ("weights", "7", "3", "1", "--engines", "brute,sums"),
)


def _cli(*jobs, extra=()):
    return tuple(("cli",) + job + tuple(extra) for job in jobs)


WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Full-pair-space kernels in batch do nearly all the work; one consumer
    # per process, so the class cache never hits.
    "pair-census": _cli(*_PAIR_CENSUS, extra=("--workers", "1")),
    # The only workload on the process-pool path of batch.
    "pair-census-w2": _cli(*_PAIR_CENSUS, extra=("--workers", "2")),
    # Scalar exact arithmetic: t_direct, phi-nullity rank, E1/E2, diagonalize.
    "exact-ladder": _cli(
        ("verify", "3", "4", "1"),
        ("verify", "3", "5", "1"),
        ("verify", "5", "3", "1"),
        ("verify", "7", "3", "1"),
        ("verify", "3", "6", "4"),
        ("sums", "3", "4", "1", "--sum", "S", "--engine", "direct"),
    )
    + (("lib", "s-census-fast", "3", "4", "1"),),
    # Field tables and code construction; no pair kernels.
    "construct": _cli(
        ("analyze", "3", "10", "1"),
        ("weights", "3", "10", "1", "--engines", "closed"),
        ("analyze", "3", "9", "3"),
        ("analyze", "5", "6", "4"),
        ("weights", "5", "6", "4", "--engines", "closed"),
        ("analyze", "7", "4", "1"),
    ),
}

# Output depends on the modulus index only for these subcommands; every
# other job must print the index-0 output at every index.
INDEX_DEPENDENT = ("analyze",)

# Jobs known to answer wrongly (exit 0, wrong stdout) at a nonzero modulus
# index when the expected outputs were recorded (ROADMAP item 3): ``sums``
# builds its field without recording the index, so the --workers 2 pool
# rebuilds the default field while the parent joins with its own. They stay
# in the workload and count as failed, but an output that differs there does
# not make a run incorrect.
KNOWN_WRONG_ANSWERS = (
    ("cli", "sums", "5", "4", "1", "--sum", "S", "--workers", "2"),
    ("cli", "sums", "3", "5", "1", "--sum", "S", "--workers", "2"),
)


def known_wrong_answer(job: tuple[str, ...], index: int) -> bool:
    return index != 0 and job in KNOWN_WRONG_ANSWERS


def job_key(job: tuple[str, ...]) -> str:
    """Stable name of a job, used as the key of its expected output."""
    return " ".join(job)


def expected_key(job: tuple[str, ...], index: int) -> str:
    """Key of the expected output of a job run at a modulus index."""
    if job[0] == "cli" and job[1] in INDEX_DEPENDENT:
        return f"{job_key(job)} @{index}"
    return job_key(job)


def pmk_triples(jobs) -> list[tuple[int, int, int]]:
    """Distinct (p, m, k) of a job list, in first-seen order."""
    out = []
    for job in jobs:
        pmk = tuple(int(x) for x in job[2:5])
        if pmk not in out:
            out.append(pmk)
    return out
