from __future__ import annotations

import dataclasses
import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from array import array

import numpy as np
import pytest

from twozero import batch, build_code, build_field, classify_parameters
from twozero.batch import (
    batched_rank_disc,
    brute_weight_histogram,
    class_rows,
    direct_census,
    direct_terms,
    field_table,
    joint_histogram,
    pair_classes,
    phi_rank_histogram,
    read_table,
    representative_rows,
    subfield_tables,
    t_class_data,
    trace_rows,
    unpack_class,
)
from twozero.codes import codeword_weight
from twozero.errors import BudgetExceeded
from twozero.expsums import CyclotomicInteger, t_fast, t_value
from twozero.gf import Polynomial
from twozero.quadforms import Case, CodeParams, diagonalize, twist_pair

from conftest import conjugate_trace


def _to_index_matrix(tabs, mat):
    index = {int(c): i for i, c in enumerate(tabs.codes)}
    return np.array([[index[c] for c in row] for row in mat], np.uint8)


def _symmetric_3x3_gf3():
    """All 729 symmetric 3x3 matrices over GF(3), as field codes."""
    mats = []
    for packed in range(3**6):
        vals, t = [], packed
        for _ in range(6):
            t, r = divmod(t, 3)
            vals.append(r)
        a, b, c, d, e, g = vals
        mats.append([[a, b, c], [b, d, e], [c, e, g]])
    return mats


def _random_symmetric(elements, size, count, seed):
    """count seeded random symmetric size x size matrices with entries from elements."""
    rng = random.Random(seed)
    mats = []
    for _ in range(count):
        mat = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                mat[i][j] = mat[j][i] = rng.choice(elements)
        mats.append(mat)
    return mats


def _both_kernels(field, d, mats):
    """(rank, eps) of each matrix from the batched and from the scalar kernel."""
    tabs = subfield_tables(field, d)
    ranks, discs = batched_rank_disc(np.stack([_to_index_matrix(tabs, m) for m in mats]), tabs)
    batched = [(int(r), int(e)) for r, e in zip(ranks, discs)]
    return batched, [diagonalize(field, d, mat) for mat in mats]


class TestBatchedDiagonalizer:
    def test_exhaustive_symmetric_3x3_gf3(self, field341):
        # All 729 symmetric 3x3 matrices over GF(3), batch vs scalar.
        batched, scalar = _both_kernels(field341, 1, _symmetric_3x3_gf3())
        assert batched == scalar

    def test_zero_diagonal_fixup_cases(self, field341):
        cases = [
            ([[0, 1], [1, 0]], (2, -1)),
            ([[0, 2], [2, 0]], (2, -1)),
            ([[0, 0, 1], [0, 0, 2], [1, 2, 0]], (2, -1)),
            ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], (2, -1)),
            # 2 a[1][0] + a[1][1] = 0: the pivot rule needs c = -1.
            ([[0, 1], [1, 1]], (2, -1)),
            # A zero first column is skipped, not the end of the elimination.
            ([[0, 0, 0], [0, 1, 0], [0, 0, 2]], (2, -1)),
        ]
        padded = [
            [row + [0] * (3 - len(row)) for row in mat] + [[0] * 3] * (3 - len(mat))
            for mat, _ in cases
        ]
        expected = [e for _, e in cases]
        assert _both_kernels(field341, 1, padded) == (expected, expected)
        for mat, e in cases:
            assert _both_kernels(field341, 1, [mat]) == ([e], [e])

    def test_random_4x4_gf9(self):
        f = build_field(3, 4)
        mats = _random_symmetric(f.subfield(2), 4, 300, seed=31337)
        batched, scalar = _both_kernels(f, 2, mats)
        assert batched == scalar


def _character_sum(field, mat):
    """Sum of zeta_p**Tr(x A x') over every x in GF(q)**s, GF(q) = field, by enumeration."""
    p, elements = field.p, list(field.subfield(field.m))
    index = {c: i for i, c in enumerate(elements)}
    add = np.array([[index[field.add(a, b)] for b in elements] for a in elements])
    mul = np.array([[index[field.mul(a, b)] for b in elements] for a in elements])
    trace = np.array([conjugate_trace(field, c, 1) for c in elements])
    s = len(mat)
    xs = np.array(list(itertools.product(range(len(elements)), repeat=s)))
    value = np.zeros(len(xs), np.int64)
    for i in range(s):
        for j in range(s):
            value = add[value, mul[mul[xs[:, i], xs[:, j]], index[mat[i][j]]]]
    return CyclotomicInteger.from_counts(p, np.bincount(trace[value], minlength=p).tolist())


class TestKernelsAgainstEnumeration:
    """T = eps G**r q**(s-r) with (r, eps) from each kernel, against a plain sum over x."""

    @pytest.mark.parametrize(
        "p, d, count",
        [(3, 1, None), (3, 2, 80), (5, 1, 80)],
        ids=["gf3-all", "gf9-random", "gf5-random"],
    )
    def test_character_sum(self, p, d, count):
        field = build_field(p, d)
        if count is None:
            mats = _symmetric_3x3_gf3()
        else:
            mats = _random_symmetric(field.subfield(d), 3, count, seed=4242 + p * d)
        params = CodeParams(
            p=p, m=3 * d, k=d, d=d, s=3, q=p**d, case=Case.ODD_S_OUT_OF_SCOPE
        )
        for kernel in _both_kernels(field, d, mats):
            for mat, (r, eps) in zip(mats, kernel):
                assert t_value(params, r, eps).cyclotomic() == _character_sum(field, mat), mat


def _twist_images(field, params):
    """Twisted alpha and beta of every code, from the scalar quadforms.twist_pair."""
    return np.array([twist_pair(field, params, c, c) for c in range(field.order)]).T


def _all_pairs(field):
    alphas, betas = np.divmod(np.arange(field.order**2, dtype=np.int64), field.order)
    return alphas, betas


def _exhaustive_joint(field, params):
    """Joint census from the kernel run over every pair and its twist, weight 1 each.

    The twist comes from the scalar quadforms.twist_pair, so this oracle
    shares nothing with the lookup that gives t_class_data its g.
    """
    alphas, betas = _all_pairs(field)
    ta, tb = _twist_images(field, params)
    f = pair_classes(field, params, alphas, betas)
    g = pair_classes(field, params, ta[alphas], tb[betas])
    return joint_histogram(params, f[None], g[None], [1])


_FIELD_CHOICES = ({}, {"modulus_index": 1}, {"primitive_index": 1})


class TestClassData:
    def test_matches_scalar_t_fast_everywhere(self, field341, params341):
        cls = pair_classes(field341, params341, *_all_pairs(field341))
        assert cls.size == 6561
        for a in range(81):
            for b in range(81):
                expected = t_fast(field341, params341, a, b)
                assert t_value(params341, *unpack_class(int(cls[a * 81 + b]))) == expected

    @pytest.mark.parametrize("pmk", [(3, 4, 1), (3, 5, 1), (5, 3, 1), (3, 6, 4)])
    def test_representatives_match_all_pairs(self, pmk):
        params = classify_parameters(*pmk)
        for choice in _FIELD_CHOICES:
            field = build_field(pmk[0], pmk[1], **choice)
            f, g = class_rows(field, params)
            assert f.shape == g.shape == (3, field.order)
            assert sum(w for _, w in representative_rows(field)) * field.order == params.pairs
            assert t_class_data(field, params) == _exhaustive_joint(field, params), choice

    @pytest.mark.parametrize("choice", _FIELD_CHOICES, ids=["default", "modulus1", "primitive1"])
    @pytest.mark.parametrize(
        "pmk",
        [(3, 3, 1), (3, 4, 1), (3, 5, 1), (5, 3, 1), (5, 4, 1), (7, 3, 1), (3, 6, 4), (3, 8, 2)],
        ids=lambda pmk: "".join(map(str, pmk)),
    )
    def test_looked_up_g_is_the_kernel_at_the_twist(self, pmk, choice):
        # Per representative, not per census: the class of g read off f
        # (twist_index, log arithmetic only) equals the kernel run on the
        # scalar quadforms.twist_pair of that representative.  Slot 0 of a
        # row is alpha = 0, slot 1 + a is alpha = pi**a; beta0 = pi**lb is
        # at slot 1 + lb, lb = -1 for 0.
        field, params = build_field(pmk[0], pmk[1], **choice), classify_parameters(*pmk)
        rows = representative_rows(field)
        slots = np.array([0] + [field.exp[a] for a in range(field.n)], np.int64)
        alphas = np.tile(slots, len(rows))
        betas = np.repeat(slots[[1 + lb for lb, _ in rows]], field.order)
        ta, tb = _twist_images(field, params)
        expected = pair_classes(field, params, ta[alphas], tb[betas])
        assert np.array_equal(class_rows(field, params)[1].ravel(), expected)

    def test_modulus_and_primitive_independence(self, field341, params341):
        joint = t_class_data(field341, params341)
        for choice in ({"modulus_index": 1}, {"primitive_index": 1}):
            assert t_class_data(build_field(3, 4, **choice), params341) == joint, choice

    def test_memoized_on_the_field(self, params341):
        field = build_field(3, 4)
        first = t_class_data(field, params341)
        assert t_class_data(field, params341) is first
        assert t_class_data(build_field(3, 4), params341) is not first

    def test_memoized_per_params(self):
        # Two parameter sets on one field each get their own census.
        field = build_field(3, 6)
        for k in (1, 2):
            params = classify_parameters(3, 6, k)
            assert t_class_data(field, params) == t_class_data(build_field(3, 6), params), k

    def test_field_dies_with_its_memo(self, params341):
        field = build_field(3, 4)
        field.subfield_index_tables(2)
        t_class_data(field, params341)
        ref = weakref.ref(field)
        del field
        gc.collect()
        assert ref() is None

    def test_zero_pair_only_special_class(self, field341, params341):
        joint = t_class_data(field341, params341)
        rank_zero = {key: n for key, n in joint.items() if key[0][0] == 0 or key[1][0] == 0}
        assert rank_zero == {((0, 1), (0, 1)): 1}

    def test_joint_histogram_totals(self, field341, params341):
        joint = t_class_data(field341, params341)
        assert sum(joint.values()) == params341.pairs
        s = params341.s
        ranks = {r for key in joint for r, _ in key}
        assert ranks == {0, s - 2, s - 1, s}
        # The rank lemma: no pair has both ranks below s (outside (0, 0)).
        assert not [key for key in joint if 0 < key[0][0] < s and 0 < key[1][0] < s]

    def test_budget_counts_the_gram_matrices(self, params341):
        field = build_field(3, 4)
        with pytest.raises(BudgetExceeded, match="243 Gram matrices > budget 242"):
            t_class_data(field, params341, budget=3 * field.order - 1)
        joint = t_class_data(field, params341, budget=3 * field.order)
        assert sum(joint.values()) == params341.pairs


class TestBruteHistogram:
    def test_matches_scalar_weights(self, code341):
        # (3, 5, 2) has odd s: no closed engine, so brute == sums is the only
        # engine cross-check there, and this scalar count backs it.
        for code in (code341, build_code(3, 5, 2)):
            scalar = [0] * (code.n + 1)
            for a in range(code.field.order):
                for b in range(code.field.order):
                    scalar[codeword_weight(code, a, b)] += 1
            assert brute_weight_histogram(code) == scalar, code.params

    def test_all_pairs_loop_531(self):
        code = build_code(5, 3, 1)
        field, n = code.field, code.n
        pi = field.primitive_element
        u_step, w_step = field.pow(pi, code.params.twist_exponent), field.neg(pi)
        log, read = field.log, read_table(field, 1)
        ru = trace_rows(read, log, [log[field.pow(u_step, i)] for i in range(n)])
        rw = trace_rows(read, log, [log[field.pow(w_step, i)] for i in range(n)])
        expected = [0] * (n + 1)
        for b in range(field.order):
            nonzero = ((ru + rw[b][None, :]) % field.p != 0).sum(axis=1)
            for w in nonzero:
                expected[int(w)] += 1
        assert brute_weight_histogram(code) == expected

    def test_modulus_and_primitive_independence(self, code341):
        hist = brute_weight_histogram(code341)
        for choice in ({"modulus_index": 1}, {"primitive_index": 1}):
            assert brute_weight_histogram(build_code(3, 4, 1, **choice)) == hist, choice

    def test_trace_rows_shape(self):
        # Rows are alpha by code, read as its log (-1 for alpha = 0); columns
        # are exponents of pi.
        for pmk in ((3, 4, 1), (5, 3, 1)):
            code = build_code(*pmk)
            field = code.field
            pi_e = field.pow(field.primitive_element, code.params.twist_exponent)
            codes = [field.pow(pi_e, i) for i in range(10)]
            rows = trace_rows(read_table(field, 1), field.log, [field.log[c] for c in codes])
            assert rows.shape == (field.order, 10)
            assert rows.dtype == np.uint8
            assert rows.tolist() == [
                [conjugate_trace(field, field.mul(a, c), 1) for c in codes]
                for a in range(field.order)
            ], pmk


class TestFieldTables:
    """One field identity: numpy reads the field's own tables, never a copy."""

    def test_tables_are_typed_int64_arrays(self, field341):
        for name in ("exp", "log", "zech"):
            table = getattr(field341, name)
            assert isinstance(table, array) and table.typecode == "q", name
            assert table.itemsize == 8, name

    def test_views_share_memory_and_are_read_only(self, field341):
        for name in ("exp", "log", "zech"):
            table, view = getattr(field341, name), field_table(field341, name)
            assert view.dtype == np.int64 and view.tolist() == list(table)
            assert np.shares_memory(view, np.frombuffer(table, np.int64))
            assert view.__array_interface__["data"][0] == table.buffer_info()[0]
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0

    def test_census_memoizes_no_table_copy(self, params341):
        # No memo value and no field attribute is or holds, also inside a
        # tuple, a list or a dataclass, a tuple, list, bytes or array of a
        # pass's size, but the phi tables, which every phi block reuses, and
        # the subfield index tables, whose trace by exponent is the field's
        # one trace table.  exp, log and zech are the field's array.array
        # tables, which numpy reads in place.  Neither does an attribute of
        # the code, also inside a polynomial, hold a tuple or a list as long
        # as the generator: its coefficients are one bytes object.
        code = build_code(3, 4, 1)
        field = code.field
        brute_weight_histogram(code)
        t_class_data(field, params341)
        direct_census(field, params341, twisted=True)
        phi_rank_histogram(field, params341)
        assert "log_array" not in field._memo

        def pass_size(value) -> bool:
            if dataclasses.is_dataclass(value):
                value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
            if isinstance(value, np.ndarray):
                return value.size >= field.n
            if isinstance(value, (tuple, list, bytes)):
                return len(value) >= field.n or any(map(pass_size, value))
            return False

        holders = [key for key, value in field._memo.items() if pass_size(value)]
        holders += [name for name, value in vars(field).items() if pass_size(value)]
        assert set(holders) == {("phi_tables", params341), ("subfield_index_tables", 1)}

        generator_size = code.n - 2 * code.params.m + 1

        def generator_size_tuple(value) -> bool:
            if isinstance(value, Polynomial):
                value = value.coeffs
            if dataclasses.is_dataclass(value):
                value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
            if isinstance(value, (tuple, list)):
                return len(value) >= generator_size or any(map(generator_size_tuple, value))
            return False

        assert [name for name, value in vars(code).items() if generator_size_tuple(value)] == []
        assert len(code.generator_coefficients) == generator_size


# Every budgeted pass of batch: how to run it on a code within a budget, the
# count it is checked against (taken from the pass's own inputs) and the
# head of its refusal.
_PASSES = {
    "pair-pass": (
        lambda code, budget: t_class_data(code.field, code.params, budget=budget),
        lambda code: len(representative_rows(code.field)) * code.field.order,
        "pair pass needs {} Gram matrices",
    ),
    "brute": (
        lambda code, budget: brute_weight_histogram(code, budget=budget),
        lambda code: len(representative_rows(code.field)) * code.field.order * code.n,
        "brute enumeration needs {} coordinate checks",
    ),
    "direct-T": (
        lambda code, budget: direct_census(code.field, code.params, twisted=False, budget=budget),
        lambda code: code.field.order**3,
        "direct T census needs {} terms",
    ),
    "direct-S": (
        lambda code, budget: direct_census(code.field, code.params, twisted=True, budget=budget),
        lambda code: 2 * code.field.order**3,
        "direct S census needs {} terms",
    ),
    "ranked": (
        lambda code, budget: direct_census(
            code.field, code.params, twisted=True, ranked=True, budget=budget
        ),
        lambda code: 2 * code.field.order**3,
        "direct identity check needs {} terms",
    ),
    "phi": (
        lambda code, budget: phi_rank_histogram(code.field, code.params, budget=budget),
        lambda code: code.field.order**2,
        "phi rank census needs {} pairs",
    ),
}


class TestBudgets:
    """Each pass checks its budget beside its loop, before any of its work."""

    @pytest.mark.parametrize("pmk", [(3, 4, 1), (3, 5, 2)], ids=["341", "352-odd-s"])
    @pytest.mark.parametrize("name", _PASSES)
    def test_budget_is_the_pass_size(self, name, pmk, monkeypatch):
        run, size, head = _PASSES[name]
        code = build_code(*pmk)
        needed = size(code)
        run(code, needed)
        with pytest.raises(BudgetExceeded) as refused:
            run(code, needed - 1)
        assert str(refused.value) == f"{head.format(needed)} > budget {needed - 1}"

        def no_work(*args, **kwargs):
            raise AssertionError("the pass began before its budget check")

        for kernel in ("read_table", "_block_classes", "trace_rows", "direct_counts", "phi_ranks"):
            monkeypatch.setattr(batch, kernel, no_work)
        with pytest.raises(BudgetExceeded):
            run(build_code(*pmk), needed - 1)  # a fresh field: nothing memoized


def _every_blocked_pass(pmk):
    """The result of every blocked pass, on a fresh code (nothing memoized)."""
    code = build_code(*pmk)
    field, params = code.field, code.params
    terms = direct_terms(field, twisted=True)  # (3, 5, 2) is past the default direct budget
    return {
        "classes": t_class_data(field, params),
        "brute": brute_weight_histogram(code),
        "direct-T": direct_census(field, params, twisted=False, budget=terms),
        "direct-S": direct_census(field, params, twisted=True, budget=terms),
        "ranked": direct_census(field, params, twisted=True, ranked=True, budget=terms),
        "phi": phi_rank_histogram(field, params),
    }


class TestBlockBoundaries:
    """No result depends on where the blocks of a pass begin and end."""

    @pytest.mark.parametrize(
        "pmk", [(3, 4, 1), (5, 3, 1), (3, 5, 2)], ids=["341", "531", "352-odd-s"]
    )
    def test_one_unit_blocks_match_the_default_bound(self, pmk, monkeypatch):
        # At the default bound most passes end in a partial block; at a
        # bound of 1 byte every block holds one row or one pair.
        default = _every_blocked_pass(pmk)
        monkeypatch.setattr(batch, "BLOCK_BYTES", 1)
        assert batch.block_size(1 << 20) == 1
        assert _every_blocked_pass(pmk) == default


def _traced_excess(run) -> int:
    """Traced peak of run() above what is still allocated when it returns, in bytes."""
    tracemalloc.start()
    try:
        result = run()  # held, so that its bytes count as retained
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - retained


# Every blocked pass at a point where it spans several blocks: the point,
# the kernel it calls once a block and how to run it.  The class pass keeps
# only its census, so its excess also counts what it holds only while it
# runs, pass-size: its classes of f and g (6 bytes per field element); their
# rank check allocates nothing.  tracemalloc reads 1.04, 1.28, 1.75 and
# 3.10 x BLOCK_BYTES at (3, 7, 1), (3, 9, 1), (3, 10, 1) and (3, 11, 1).
_WORKING_SETS = {
    "classes-371": (
        (3, 7, 1), "batched_rank_disc", lambda code: t_class_data(code.field, code.params)
    ),
    "classes-391": (
        (3, 9, 1), "batched_rank_disc", lambda code: t_class_data(code.field, code.params)
    ),
    "brute-371": ((3, 7, 1), "trace_rows", brute_weight_histogram),
    "direct-T-531": (
        (5, 3, 1),
        "direct_counts",
        lambda code: direct_census(code.field, code.params, twisted=False),
    ),
    "direct-S-531": (
        (5, 3, 1),
        "direct_counts",
        lambda code: direct_census(code.field, code.params, twisted=True),
    ),
    "ranked-531": (
        (5, 3, 1),
        "direct_counts",
        lambda code: direct_census(code.field, code.params, twisted=True, ranked=True),
    ),
    "phi-531": ((5, 3, 1), "phi_ranks", lambda code: phi_rank_histogram(code.field, code.params)),
}


# Forks ``python -m twozero ARGS`` with its output discarded and prints its
# exit code and ru_maxrss.  Linux counts the RSS a child had before its exec,
# a copy or a share of its parent's, in its ru_maxrss, so the fork happens
# in this small interpreter, not in the test process, whose RSS is larger
# than the CLI's peak.
_PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    quiet = os.open(os.devnull, os.O_WRONLY)
    os.dup2(quiet, 1)
    os.dup2(quiet, 2)
    os.execv(sys.executable, [sys.executable, "-m", "twozero", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mib(*args: str) -> float:
    """Peak RSS in MiB of ``python -m twozero args`` in a fresh process, numpy in one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, maxrss = map(int, proc.stdout.split())
    assert exit_code == 0, args
    return maxrss / 1024  # KiB on Linux


class TestWorkingSet:
    """Each blocked pass peaks near BLOCK_BYTES, whatever the size of its pass."""

    @pytest.mark.parametrize("name", _WORKING_SETS)
    def test_traced_peak_within_twice_the_bound(self, name, monkeypatch):
        pmk, kernel, run = _WORKING_SETS[name]
        code = build_code(*pmk)
        calls = []
        inner = getattr(batch, kernel)
        monkeypatch.setattr(batch, kernel, lambda *a, **kw: calls.append(1) or inner(*a, **kw))
        run(code)  # warms the field's tables
        assert len(calls) >= 3  # several blocks (trace_rows: one more call, outside them)
        code.field._memo.pop(("t_class_data", code.params), None)
        assert _traced_excess(lambda: run(code)) <= 2 * batch.BLOCK_BYTES

    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
    @pytest.mark.parametrize("pmk", [("3", "6", "4"), ("3", "8", "2")], ids=["364", "382"])
    def test_brute_and_closed_add_under_a_mib_to_sums(self, pmk):
        # Blocked by bytes, the brute pass stays within a MiB of the peak
        # the sums engine reaches on its own (one brute block: 4 and 38 MiB).
        sums = _peak_rss_mib("weights", *pmk, "--engines", "sums")
        every = _peak_rss_mib("weights", *pmk, "--engines", "brute,sums,closed")
        assert every <= sums + 1.0, (every, sums)
