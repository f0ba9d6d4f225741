from __future__ import annotations

import gc
import random
import weakref

import numpy as np

from twozero import build_code, build_field
from twozero.batch import (
    batched_rank_disc,
    brute_weight_histogram,
    class_histogram,
    joint_histogram,
    subfield_tables,
    t_class_data,
    trace_rows,
)
from twozero.codes import codeword_weight
from twozero.expsums import t_fast, _class_value
from twozero.quadforms import diagonalize, discriminant_character


def _to_index_matrix(tabs, mat):
    index = {int(c): i for i, c in enumerate(tabs.codes)}
    return np.array([[index[c] for c in row] for row in mat], np.uint8)


class TestBatchedDiagonalizer:
    def test_exhaustive_symmetric_3x3_gf3(self, field341):
        # All 729 symmetric 3x3 matrices over GF(3), batch vs scalar.
        f = field341
        tabs = subfield_tables(f, 1)
        mats, scalars = [], []
        for packed in range(3**6):
            vals, t = [], packed
            for _ in range(6):
                t, r = divmod(t, 3)
                vals.append(r)
            a, b, c, d, e, g = vals
            mat = [[a, b, c], [b, d, e], [c, e, g]]
            scalars.append(mat)
            mats.append(_to_index_matrix(tabs, mat))
        ranks, discs = batched_rank_disc(np.stack(mats), tabs)
        for i, mat in enumerate(scalars):
            form = diagonalize(f, 1, [row[:] for row in mat])
            assert ranks[i] == form.rank
            expected = discriminant_character(f, 1, form) if form.rank else 1
            assert discs[i] == expected

    def test_zero_diagonal_fixup_cases(self, field341):
        f = field341
        tabs = subfield_tables(f, 1)
        cases = [
            [[0, 1], [1, 0]],
            [[0, 2], [2, 0]],
            [[0, 0, 1], [0, 0, 2], [1, 2, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        ]
        mats = np.stack(
            [np.pad(_to_index_matrix(tabs, m), ((0, 3 - len(m)), (0, 3 - len(m)))) for m in cases]
        )
        ranks, discs = batched_rank_disc(mats, tabs)
        for i, mat in enumerate(cases):
            padded = [row + [0] * (3 - len(row)) for row in mat] + [[0] * 3] * (3 - len(mat))
            form = diagonalize(f, 1, padded)
            assert ranks[i] == form.rank
            if form.rank:
                assert discs[i] == discriminant_character(f, 1, form)

    def test_random_4x4_gf9(self):
        f = build_field(3, 4)
        tabs = subfield_tables(f, 2)
        sub = f.subfield(2)
        rng = random.Random(31337)
        scalars = []
        mats = []
        for _ in range(300):
            mat = [[0] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    mat[i][j] = mat[j][i] = sub[rng.randrange(9)]
            scalars.append(mat)
            mats.append(_to_index_matrix(tabs, mat))
        ranks, discs = batched_rank_disc(np.stack(mats), tabs)
        for i, mat in enumerate(scalars):
            form = diagonalize(f, 2, [row[:] for row in mat])
            assert ranks[i] == form.rank
            if form.rank:
                assert discs[i] == discriminant_character(f, 2, form)


class TestClassData:
    def test_matches_scalar_t_fast_everywhere(self, field341, params341):
        cls = t_class_data(field341, params341)
        for a in range(81):
            for b in range(81):
                expected = t_fast(field341, params341, a, b)
                assert _class_value(params341, int(cls[a * 81 + b])) == expected

    def test_workers_equivalence(self, params341):
        # Fresh fields per call: the memo would hand a second call on the same
        # field the first call's array.  Non-default fields catch a pool that
        # rebuilds the default field instead of using the one it was given.
        for choice in ({"modulus_index": 1}, {"primitive_index": 1}):
            one = t_class_data(build_field(3, 4, **choice), params341, workers=1)
            two = t_class_data(build_field(3, 4, **choice), params341, workers=2)
            assert np.array_equal(one, two), choice

    def test_memoized_on_the_field(self, params341):
        field = build_field(3, 4)
        first = t_class_data(field, params341)
        assert t_class_data(field, params341, workers=2) is first
        assert t_class_data(build_field(3, 4), params341) is not first

    def test_field_dies_with_its_memo(self, params341):
        field = build_field(3, 4)
        field.trace_to_table(2)
        field.subfield(2)
        t_class_data(field, params341)
        ref = weakref.ref(field)
        del field
        gc.collect()
        assert ref() is None

    def test_zero_pair_only_special_class(self, field341, params341):
        cls = t_class_data(field341, params341)
        hist = class_histogram(cls)
        assert hist[6] == 1 and hist[7] == 0
        assert sum(hist) == params341.pairs

    def test_joint_histogram_totals(self, field341, params341):
        cls = t_class_data(field341, params341)
        joint = joint_histogram(field341, params341, cls)
        assert sum(joint) == params341.pairs
        # The rank lemma: no pair has both ranks below s (outside (0, 0)).
        for cf in range(2, 6):
            for cg in range(2, 6):
                assert joint[cf * 7 + cg] == 0


class TestBruteHistogram:
    def test_matches_scalar_weights(self, code341):
        hist = brute_weight_histogram(code341)
        scalar = [0] * (code341.n + 1)
        for a in range(81):
            for b in range(81):
                scalar[codeword_weight(code341, a, b)] += 1
        assert hist == scalar

    def test_workers_equivalence(self):
        for choice in ({"modulus_index": 1}, {"primitive_index": 1}):
            two = brute_weight_histogram(build_code(3, 4, 1, **choice), workers=2)
            assert two == brute_weight_histogram(build_code(3, 4, 1, **choice)), choice

    def test_trace_rows_shape(self, field341, code341):
        rows = trace_rows(field341, code341.u_codes[:10])
        assert rows.shape == (81, 10)
        assert rows.dtype == np.uint8
