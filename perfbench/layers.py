"""Per-layer metrics from the spans that ``traced.py`` writes.

Every ``*_s`` is self time: a span's duration minus the part its child spans
cover. ``*_calls`` and the plain counts are exact.
"""

from __future__ import annotations

# metric -> traced function name(s) whose self time it sums
SELF_TIMES = {
    "batch.batched_rank_disc_s": ("batch.batched_rank_disc",),
    "batch.t_class_data_self_s": ("batch.t_class_data",),
    "batch.subfield_tables_s": ("batch.subfield_tables",),
    "batch.joint_histogram_s": ("batch.joint_histogram",),
    "batch.brute_weight_histogram_s": ("batch.brute_weight_histogram",),
    "gf.build_field_s": ("gf.build_field",),
    "gf.minimal_polynomial_s": ("gf.minimal_polynomial",),
    "codes.build_code_self_s": ("codes.build_code",),
    "codes.brute_engine_self_s": ("codes.weight_distribution_brute",),
    "codes.sums_engine_self_s": ("codes.weight_distribution_sums",),
    "codes.closed_engine_s": ("codes.weight_distribution_closed",),
    "expsums.t_direct_s": ("expsums.t_direct",),
    "expsums.identities_self_s": ("expsums.verify_power_identities",),
    "expsums.count_e1_s": ("expsums.count_e1",),
    "expsums.count_e2_s": ("expsums.count_e2",),
    "expsums.census_fast_self_s": ("expsums.t_census_fast", "expsums.s_census_fast"),
    "quadforms.rank_s": ("quadforms.rank",),
    "quadforms.diagonalize_s": ("quadforms.diagonalize",),
    "quadforms.gram_matrix_s": ("quadforms.gram_matrix",),
    "cli.import_s": ("cli.import",),
    "cli.main_self_s": ("cli.main",),
}
# metric -> traced function whose calls it counts
CALLS = {
    "batch.batched_rank_disc_calls": "batch.batched_rank_disc",
    "batch.t_class_data_calls": "batch.t_class_data",
    "gf.build_field_calls": "gf.build_field",
    "expsums.t_direct_calls": "expsums.t_direct",
    "quadforms.rank_calls": "quadforms.rank",
    "quadforms.diagonalize_calls": "quadforms.diagonalize",
}
# counts taken by the wrappers
COUNTS = ("batch.matrices", "batch.coordinate_checks", "gf.field_elements")
# metric -> (numerator, denominator) among the raw sums
RATIOS = {
    "batch.matrices_per_orbit": ("batch.matrices", "batch.orbits"),
    "batch.t_class_data_hit_ratio": ("batch.t_class_data_hits", "batch.t_class_data:calls"),
}
EXACT = tuple(CALLS) + COUNTS + tuple(RATIOS)


def raw_sums(trace: dict) -> dict[str, float]:
    """Self time and calls per traced function, plus the counts, of one job."""
    out: dict[str, float] = {}

    def add(key: str, amount: float) -> None:
        out[key] = out.get(key, 0) + amount

    for span in trace["spans"]:
        add(f"{span['name']}:self", span["self_s"])
        add(f"{span['name']}:calls", 1)
        for name, (calls, _total, self_s) in span["hot"].items():
            add(f"{name}:self", self_s)
            add(f"{name}:calls", calls)
    for name, amount in trace["counts"].items():
        add(name, amount)
    return out


def layer_metrics(sums: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit), from raw sums added over a job list."""
    metrics: dict[str, tuple[float, str]] = {}
    for name, sources in SELF_TIMES.items():
        metrics[name] = (sum(sums.get(f"{s}:self", 0.0) for s in sources), "s")
    for name, source in CALLS.items():
        metrics[name] = (sums.get(f"{source}:calls", 0), "count")
    for name in COUNTS:
        metrics[name] = (sums.get(name, 0), "count")
    for name, (num, den) in RATIOS.items():
        d = sums.get(den, 0)
        metrics[name] = (sums.get(num, 0) / d if d else 0.0, "ratio")
    return metrics
