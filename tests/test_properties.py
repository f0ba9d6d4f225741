"""Property suite over random small codes: orbit invariance and agreement.

Draws (p, m, k) with p**m <= 729 and m/gcd(m, k) >= 3 (OddS-out-of-scope
cases included), a modulus index and a primitive index.  Examples are
derandomized, so every run checks the same draws.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twozero import build_code
from twozero.batch import pair_classes
from twozero.codes import (
    codeword_weight,
    weight_distribution_brute,
    weight_distribution_closed,
    weight_distribution_sums,
)
from twozero.expsums import (
    s_census_fast,
    s_distribution_closed,
    t_census_fast,
    t_distribution_closed,
)
from twozero.quadforms import closed_rank_census, rank_census, twist_pair

from test_gf import digit_add

SMALL_PMK = [
    (p, m, k)
    for p, m in ((3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4), (7, 3))
    for k in range(1, m + 1)
    if m // math.gcd(m, k) >= 3
]

codes = st.builds(
    lambda pmk, modulus_index, primitive_index: build_code(
        *pmk, modulus_index=modulus_index, primitive_index=primitive_index
    ),
    st.sampled_from(SMALL_PMK),
    st.integers(0, 2),
    st.integers(0, 2),
)


def _settings(max_examples: int) -> settings:
    return settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)


@_settings(100)
@given(code=codes, data=st.data())
def test_orbit_action_keeps_classes_and_weight(code, data):
    field, params = code.field, code.params
    element = st.integers(0, field.order - 1)
    alpha, beta = data.draw(element), data.draw(element)
    c = data.draw(st.integers(1, field.order - 1))
    moved = (
        field.mul(alpha, field.pow(c, params.p**params.k + 1)),
        field.mul(beta, field.mul(c, c)),
    )
    pairs = [(alpha, beta), moved, twist_pair(field, params, alpha, beta),
             twist_pair(field, params, *moved)]
    cls = pair_classes(field, params, *(np.array(side, np.int64) for side in zip(*pairs)))
    assert cls[0] == cls[1]  # class of f
    assert cls[2] == cls[3]  # class of g
    assert codeword_weight(code, alpha, beta) == codeword_weight(code, *moved)


@_settings(100)
@given(code=codes, data=st.data())
def test_addition_matches_digits_and_traces_are_additive(code, data):
    field, p = code.field, code.params.p
    element = st.integers(0, field.order - 1)
    a, b = data.draw(element), data.draw(element)
    total = field.add(a, b)
    assert total == digit_add(p, a, b)
    for d in (1, code.params.d):
        assert field.trace(total, d) == digit_add(p, field.trace(a, d), field.trace(b, d))


@_settings(40)
@given(code=codes)
def test_brute_equals_sums_and_closed(code):
    sums = weight_distribution_sums(code)
    assert weight_distribution_brute(code).same_rows(sums)
    if code.params.has_closed_forms:
        assert weight_distribution_closed(code.params).same_rows(sums)


@_settings(40)
@given(code=codes)
def test_censuses_equal_closed_forms(code):
    # brute and sums share the representatives; these closed forms do not.
    field, params = code.field, code.params
    assert rank_census(field, params) == closed_rank_census(params)
    assert t_census_fast(field, params) == t_distribution_closed(params)
    if params.has_closed_forms:
        assert s_census_fast(field, params) == s_distribution_closed(params)
