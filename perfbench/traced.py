"""Traced job runner: times the layers of twozero from outside the package.

    python perfbench/traced.py OUT.json cli ARGS...   # like python -m twozero ARGS
    python perfbench/traced.py OUT.json lib ARGS...   # like perfbench/libjob.py ARGS

It imports twozero, replaces the public functions of each module with timing
wrappers in every ``twozero.*`` module that binds them, runs the job and
writes the spans to OUT.json when the job ends. Stdout and the exit code are
the job's own. ``src/`` is not touched: all wrapping happens here.

Span functions record one span per call: name, start, end, parent and the
time their child spans cover. Hot scalar functions are aggregated into their
parent span (calls, total and self time) instead. Field arithmetic is not
wrapped at all. Pool workers are forked with the wrappers but do not trace,
so in a ``--workers 2`` job the parent's wait shows as its own self time.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.util
import json
import math
import os
import sys
import time

# Functions that get one span per call, by module.
SPAN_FUNCTIONS = {
    "twozero.cli": ("main",),
    "twozero.gf": ("build_field",),
    "twozero.codes": (
        "build_code",
        "weight_distribution_brute",
        "weight_distribution_sums",
        "weight_distribution_closed",
    ),
    "twozero.quadforms": ("rank_census",),
    "twozero.expsums": (
        "t_census_direct",
        "s_census_direct",
        "t_census_fast",
        "s_census_fast",
        "joint_class_census",
        "count_e1",
        "count_e2",
        "verify_power_identities",
    ),
    "twozero.batch": (
        "t_class_data",
        "subfield_tables",
        "batched_rank_disc",
        "joint_histogram",
        "brute_weight_histogram",
    ),
}
# Hot scalar functions, aggregated per parent span.
HOT_FUNCTIONS = {
    "twozero.expsums": ("t_direct",),
    "twozero.quadforms": ("rank", "diagonalize", "gram_matrix"),
}
# Methods that get one span per call: (module, class, method).
SPAN_METHODS = (("twozero.gf", "FiniteField", "minimal_polynomial"),)


class Tracer:
    """In-memory spans of one process; nothing is written until ``dump``."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[list] = []  # open frames: [start, child_s, span or None]
        self.counts: dict[str, float] = {}
        self.class_arrays: list = []  # every array t_class_data returned
        self.enabled = True
        os.register_at_fork(after_in_child=self.disable)

    def disable(self) -> None:
        self.enabled = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enclosing_span(self) -> dict | None:
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._enclosing_span()
        span = {"id": len(self.spans), "name": name,
                "parent": None if parent is None else parent["id"], "hot": {}}
        self.spans.append(span)
        frame = [time.perf_counter(), 0.0, span]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[0]
            span["start"] = frame[0] - self.t0
            span["end"] = end - self.t0
            span["self_s"] = duration - frame[1]
            if self.stack:
                self.stack[-1][1] += duration

    def hot(self, name: str, fn, *args, **kwargs):
        frame = [time.perf_counter(), 0.0, None]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[0]
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += duration
            parent = self._enclosing_span()
            if parent is not None:
                agg = parent["hot"].setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


TRACER = Tracer()


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


def _wrapper(kind: str, label: str, fn):
    run = TRACER.span if kind == "span" else TRACER.hot
    counter = COUNTERS.get(label)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not TRACER.enabled:
            return fn(*args, **kwargs)
        result = run(label, fn, *args, **kwargs)
        if counter is not None:
            counter(result, *args, **kwargs)
        return result

    return wrapped


# -- exact counts, taken at the same boundaries as the spans -----------------


def _count_build_field(field, p, m, **kwargs):
    TRACER.count("gf.field_elements", p**m)


def _count_batch(result, mats, tabs):
    TRACER.count("batch.matrices", mats.shape[0])


def _count_class_data(cls, field, params, **kwargs):
    if any(cls is seen for seen in TRACER.class_arrays):
        TRACER.count("batch.t_class_data_hits")
        return
    TRACER.class_arrays.append(cls)
    p, m, k = params.p, params.m, params.k
    TRACER.count("batch.orbits", 2 * p**m + math.gcd(p**k + 1, p**m - 1) + 1)


def _count_brute(hist, code, **kwargs):
    TRACER.count("batch.coordinate_checks", code.field.order**2 * code.n)


COUNTERS = {
    "gf.build_field": _count_build_field,
    "batch.batched_rank_disc": _count_batch,
    "batch.t_class_data": _count_class_data,
    "batch.brute_weight_histogram": _count_brute,
}


# -- installing the wrappers ---------------------------------------------------


def _rebind(originals: dict) -> None:
    """Point every twozero.* module attribute bound to an original at its wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "twozero" and not mod_name.startswith("twozero."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and value is wrapper[0]:
                setattr(module, attr, wrapper[1])


def install(module_name: str) -> None:
    """Wrap the traced functions of one imported twozero module."""
    module = sys.modules[module_name]
    originals = {}
    for kind, table in (("span", SPAN_FUNCTIONS), ("hot", HOT_FUNCTIONS)):
        for name in table.get(module_name, ()):
            fn = getattr(module, name)
            originals[id(fn)] = (fn, _wrapper(kind, _short(module_name, name), fn))
    for mod, cls_name, method in SPAN_METHODS:
        if mod == module_name:
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrapper("span", _short(mod, method), getattr(cls, method)))
    _rebind(originals)


class _InstallOnImport(importlib.abc.MetaPathFinder):
    """Wraps a module the first time the package imports it.

    twozero imports ``batch`` (and with it numpy) only when a command needs
    it, so importing it up front would change what a traced job does.
    """

    def __init__(self, module_name: str) -> None:
        self.module_name = module_name

    def find_spec(self, fullname, path, target=None):
        if fullname != self.module_name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        exec_module = spec.loader.exec_module

        def exec_and_install(module):
            exec_module(module)
            install(fullname)

        spec.loader.exec_module = exec_and_install
        return spec


def run(kind: str, argv: list[str]) -> int:
    sys.meta_path.insert(0, _InstallOnImport("twozero.batch"))
    if kind == "cli":
        TRACER.span("cli.import", __import__, "twozero.cli")
    else:
        TRACER.span("cli.import", __import__, "twozero")
    for module_name in ("twozero.gf", "twozero.quadforms", "twozero.expsums",
                        "twozero.codes", "twozero.cli"):
        if module_name in sys.modules:
            install(module_name)
    if kind == "cli":
        import twozero.cli

        return twozero.cli.main(argv)
    import libjob  # next to this script, so on sys.path

    return TRACER.span("libjob.main", libjob.main, argv)


def main() -> int:
    out, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    try:
        return run(kind, argv)
    finally:
        sys.stdout.flush()
        TRACER.dump(out)


if __name__ == "__main__":
    sys.exit(main())
