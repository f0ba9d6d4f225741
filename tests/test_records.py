"""Value semantics of the package's records.

CodeParams, RankCensus, SymbolicSumValue, WeightDistribution and
IdentityCheck are values: equal when they are of the same class with equal
fields, hash equal then, and shown as ``Name(field=value, ...)``.  Those and
the identity-compared CyclicCode and SubfieldIndexTables are immutable:
assigning or deleting an attribute raises AttributeError.  Every record
takes its fields by position or by keyword, and the values copy and pickle.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter

import pytest

from twozero import classify_parameters
from twozero.codes import WeightDistribution
from twozero.expsums import IdentityCheck, SymbolicSumValue
from twozero.quadforms import Case, CodeParams, RankCensus, gauss_sum_parts


# Per value record: its fields in order, and how to build a fresh instance.
VALUES = {
    "CodeParams": (("p", "m", "k", "d", "s", "q", "case"), lambda: classify_parameters(3, 4, 1)),
    "RankCensus": (("n0", "n1", "n2"), lambda: RankCensus(n0=1, n1=2, n2=3)),
    "SymbolicSumValue": (
        ("p", "d", "rational", "irrational"),
        lambda: SymbolicSumValue.from_parts(3, 1, 2, -1),
    ),
    "WeightDistribution": (
        ("rows", "source"),
        lambda: WeightDistribution.from_counts({0: 1, 4: 8}, source="x"),
    ),
    "IdentityCheck": (
        ("name", "lhs", "rhs", "passed"),
        lambda: IdentityCheck(name="sum S", lhs="18", rhs="18", passed=True),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_are_equal_and_hash_equal(name):
    make = VALUES[name][1]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: "memo"}[b] == "memo"


@pytest.mark.parametrize("name", VALUES)
def test_values_do_not_compare_across_classes(name):
    names, make = VALUES[name]
    value = make()

    class Sub(type(value)):
        __slots__ = ()

    fields = [getattr(value, field) for field in names]
    assert type(value)(*fields) == value
    assert Sub(*fields) != value and value != Sub(*fields)
    assert value != tuple(fields) and value != fields


@pytest.mark.parametrize("name", VALUES)
def test_values_copy_and_pickle(name):
    value = VALUES[name][1]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
    if name == "CodeParams":
        assert pickle.loads(pickle.dumps(value)).gauss_sum == value.gauss_sum


def test_params_are_one_memo_key(field341):
    a, b = classify_parameters(3, 4, 1), classify_parameters(3, 4, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    first = field341.memoized(("records test", a), object)
    assert field341.memoized(("records test", b), object) is first
    assert classify_parameters(3, 4, 1) != classify_parameters(3, 6, 2)


def test_params_gauss_sum_is_derived_and_left_out():
    params = classify_parameters(3, 5, 1)
    assert params.gauss_sum == gauss_sum_parts(params.p, params.d)
    assert "gauss_sum" not in repr(params)
    keyword = CodeParams(
        p=params.p, m=params.m, k=params.k, d=params.d, s=params.s, q=params.q, case=params.case
    )
    assert keyword == params and hash(keyword) == hash(params)
    assert keyword.gauss_sum == params.gauss_sum


def test_equal_sum_values_merge_in_a_counter():
    values = [SymbolicSumValue.from_parts(3, 1, 9, 3) for _ in range(3)]
    values += [SymbolicSumValue(3, 1, 9, -3), SymbolicSumValue.from_parts(3, 2, 3, 2)]
    merged = Counter(values)
    assert merged == {
        SymbolicSumValue(3, 1, 9, 3): 3,
        SymbolicSumValue(3, 1, 9, -3): 1,
        SymbolicSumValue(3, 2, 9, 0): 1,
    }


def test_rank_census_and_weight_distribution_compare_by_value():
    assert RankCensus(1, 2, 3) == RankCensus(n0=1, n1=2, n2=3)
    assert RankCensus(1, 2, 3) != RankCensus(1, 3, 2)
    rows = ((0, 1), (4, 8))
    assert WeightDistribution(rows, "x") == WeightDistribution(rows=rows, source="x")
    assert WeightDistribution(rows, "x") != WeightDistribution(rows, "y")
    assert WeightDistribution(rows, "x").same_rows(WeightDistribution(rows, "y"))
    assert RankCensus(1, 2, 3) != WeightDistribution(rows, "x")


@pytest.mark.parametrize(
    "value, text",
    [
        (
            classify_parameters(3, 4, 1),
            "CodeParams(p=3, m=4, k=1, d=1, s=4, q=3, case=<Case.CASE_B_ODD_K: 'CaseB-odd-k'>)",
        ),
        (RankCensus(5, 6, 7), "RankCensus(n0=5, n1=6, n2=7)"),
        (
            SymbolicSumValue.from_parts(3, 1, 2, -1),
            "SymbolicSumValue(p=3, d=1, rational=2, irrational=-1)",
        ),
        (
            WeightDistribution(((0, 1), (4, 8)), "x"),
            "WeightDistribution(rows=((0, 1), (4, 8)), source='x')",
        ),
        (
            IdentityCheck("sum S", "18", "18", True),
            "IdentityCheck(name='sum S', lhs='18', rhs='18', passed=True)",
        ),
    ],
    ids=["CodeParams", "RankCensus", "SymbolicSumValue", "WeightDistribution", "IdentityCheck"],
)
def test_repr_names_every_field(value, text):
    assert repr(value) == text


def test_keyword_construction():
    assert SymbolicSumValue(p=3, d=1, rational=2, irrational=-1) == SymbolicSumValue(3, 1, 2, -1)
    assert IdentityCheck(name="a", lhs="1", rhs="2", passed=False) == IdentityCheck("a", "1", "2", False)
    params = CodeParams(3, 4, 1, 1, 4, 3, Case.CASE_B_ODD_K)
    assert params == classify_parameters(3, 4, 1)


# Every immutable record and its attributes: the value records' fields, and
# gauss_sum, which CodeParams stores beside them.
FROZEN = {name: names for name, (names, _) in VALUES.items()}
FROZEN["CodeParams"] += ("gauss_sum",)
FROZEN["CyclicCode"] = ("params", "field", "h1", "h2", "generator_coefficients")
FROZEN["SubfieldIndexTables"] = (
    "codes", "index", "add", "sub", "mul", "inv", "chi", "trace_of_power"
)


@pytest.mark.parametrize("name", FROZEN)
def test_assigning_or_deleting_a_field_raises(name, code341):
    if name in VALUES:
        record = VALUES[name][1]()
    elif name == "CyclicCode":
        record = code341
    else:
        record = code341.field.subfield_index_tables(1)
    assert type(record).__name__ == name
    for field in FROZEN[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1
