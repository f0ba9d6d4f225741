from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from twozero import batch, build_field, classify_parameters, expsums, quadforms
from twozero.errors import BudgetExceeded, ParameterError, UnsupportedCase
from twozero.expsums import (
    CyclotomicInteger,
    count_e1,
    count_e2,
    power_moments,
    s_census_direct,
    s_census_fast,
    s_direct,
    s_distribution_closed,
    s_fast,
    t_census_direct,
    t_census_fast,
    t_direct,
    t_distribution_closed,
    t_fast,
    verify_power_identities,
)
from twozero.quadforms import closed_rank_census, rank_census

from conftest import conjugate_trace


def _t_oracle(field, params, alpha, beta):
    """Independent re-derivation of T: literal term-by-term accumulation."""
    counts = [0] * params.p
    pk1 = params.p**params.k + 1
    for x in range(field.order):
        inner = field.add(
            field.mul(alpha, field.pow(x, pk1) if x else 0),
            field.mul(beta, field.mul(x, x)),
        )
        counts[conjugate_trace(field, inner, 1)] += 1
    return CyclotomicInteger.from_counts(params.p, counts)


class TestTDirect:
    def test_zero_pair_is_field_size(self, field341, params341):
        v = t_direct(field341, params341, 0, 0)
        assert v.rational_value() == 81

    def test_matches_independent_oracle(self, field341, params341):
        rng = random.Random(51)
        pairs = [(0, 1)] + [(rng.randrange(81), rng.randrange(81)) for _ in range(30)]
        for a, b in pairs:
            assert t_direct(field341, params341, a, b) == _t_oracle(field341, params341, a, b)

    def test_pure_square_term_has_magnitude_p_half_m(self, field341, params341):
        # DERIVED by direct 81-term evaluation: T(0, 1) is -9, and in general
        # |T(0, beta)|^2 = p^m since the form has full rank.
        v = t_direct(field341, params341, 0, 1)
        assert v.rational_value() == -9
        assert (v * v.conjugate()).rational_value() == 81

    def test_conjugation_is_coefficient_reversal(self, field341, params341):
        # zeta -> zeta^(-1) turns T(alpha, beta) into T(-alpha, -beta).
        f = field341
        rng = random.Random(7)
        for _ in range(20):
            a, b = rng.randrange(81), rng.randrange(81)
            lhs = t_direct(f, params341, a, b).conjugate()
            rhs = t_direct(f, params341, f.neg(a), f.neg(b))
            assert lhs == rhs


class TestTFast:
    def test_zero_pair(self, field341, params341):
        v = t_fast(field341, params341, 0, 0)
        assert v.expanded() == (81, 0) and str(v) == "81"

    def test_equals_direct_everywhere_341(self, field341, params341):
        for a in range(81):
            for b in range(81):
                assert t_fast(field341, params341, a, b).cyclotomic() == t_direct(
                    field341, params341, a, b
                )

    def test_equals_direct_random_364(self):
        f = build_field(3, 6)
        pr = classify_parameters(3, 6, 4)
        rng = random.Random(20240818)
        for _ in range(10_000):
            a, b = rng.randrange(729), rng.randrange(729)
            assert t_fast(f, pr, a, b).cyclotomic() == t_direct(f, pr, a, b)

    def test_value_scale_set_364(self):
        # The CaseA values live exactly on the scales +-27, +-81, +-243, 729
        # (with the +-27 and +-243 slots counted via sqrt(q*) = 3).
        f = build_field(3, 6)
        pr = classify_parameters(3, 6, 4)
        rng = random.Random(5)
        seen = set()
        for _ in range(2000):
            a, b = rng.randrange(729), rng.randrange(729)
            v = t_fast(f, pr, a, b)
            assert v.is_rational  # d = 2: every value is rational
            seen.add(v.rational_value())
        assert seen <= {27, -27, 81, -81, 243, -243, 729}


class TestS:
    def test_zero_pair(self, field341, params341):
        assert s_direct(field341, params341, 0, 0).rational_value() == 2 * 81
        assert s_fast(field341, params341, 0, 0).rational_value() == 2 * 81

    def test_fast_equals_direct_everywhere_341(self, field341, params341):
        for a in range(81):
            for b in range(81):
                assert s_fast(field341, params341, a, b).cyclotomic() == s_direct(
                    field341, params341, a, b
                )

    def test_mode_dispatch(self, field341, params341):
        d = s_direct(field341, params341, 3, 5)
        f = s_fast(field341, params341, 3, 5)
        assert f.cyclotomic() == d

    def test_values_in_case_a_table_364(self):
        f = build_field(3, 6)
        pr = classify_parameters(3, 6, 4)
        allowed = {v.expanded() for v, _ in s_distribution_closed(pr).rows}
        rng = random.Random(11)
        for _ in range(2000):
            a, b = rng.randrange(729), rng.randrange(729)
            assert s_fast(f, pr, a, b).expanded() in allowed


class TestClosedDistributions:
    def test_t_totals(self):
        for args in [(3, 4, 1), (3, 6, 4), (3, 6, 1), (3, 8, 2), (5, 4, 1), (3, 3, 1)]:
            pr = classify_parameters(*args)
            assert t_distribution_closed(pr).total == pr.pairs

    def test_t_row_364(self):
        # Frequency of the value p^((m+d)/2) = 81 in the odd-s table:
        # (1/2) p^((m-d)/2) (p^((m-d)/2)+1) (p^m-1) = (1/2) 9*10*728 = 32760.
        pr = classify_parameters(3, 6, 4)
        rows = {v.expanded(): fr for v, fr in t_distribution_closed(pr).rows}
        assert rows[(81, 0)] == 32760
        assert rows[(729, 0)] == 1

    def test_t_census_matches_closed_341(self, field341, params341):
        # DERIVED: brute-force census over all 6561 pairs.
        direct = t_census_direct(field341, params341)
        closed = t_distribution_closed(params341).cyclotomic_counts()
        assert direct == closed
        assert t_census_fast(field341, params341) == t_distribution_closed(params341)

    def test_t_weighted_sum_is_p2m(self):
        # sum over all pairs of T equals p^(2m) (double character-sum identity).
        for args in [(3, 4, 1), (3, 6, 4), (3, 6, 1)]:
            pr = classify_parameters(*args)
            assert t_distribution_closed(pr).weighted_sum() == (pr.pairs, 0)

    def test_s_zero_row_364(self):
        # CaseA zero-value frequency: (1/2)(p^(m+d) - 3p^m + p^d + 1)(p^m-1)/(p^d-1).
        pr = classify_parameters(3, 6, 4)
        rows = {v.expanded(): fr for v, fr in s_distribution_closed(pr).rows}
        assert rows[(0, 0)] == 199472

    def test_s_totals_and_first_moment(self):
        for args in [(3, 4, 1), (3, 6, 4), (3, 6, 1), (3, 8, 2), (5, 4, 1)]:
            pr = classify_parameters(*args)
            dist = s_distribution_closed(pr)
            assert dist.total == pr.pairs
            assert dist.weighted_sum() == (2 * pr.pairs, 0)

    def test_s_census_matches_closed_341(self, field341, params341):
        direct = s_census_direct(field341, params341)
        closed = s_distribution_closed(params341).cyclotomic_counts()
        assert direct == closed
        assert s_census_fast(field341, params341) == s_distribution_closed(params341)

    def test_s_census_matches_closed_364(self):
        f = build_field(3, 6)
        pr = classify_parameters(3, 6, 4)
        assert s_census_fast(f, pr) == s_distribution_closed(pr)

    def test_s_closed_unsupported_case(self):
        with pytest.raises(UnsupportedCase):
            s_distribution_closed(classify_parameters(3, 3, 1))

    def test_census_budget_refusal(self, field341, params341):
        with pytest.raises(BudgetExceeded):
            t_census_direct(field341, params341, budget=1000)
        # The fast census is one pass of 2 r = 106 Gram matrices: f and g at
        # each of the r = 53 orbit representatives.
        matrices = 2 * batch.representatives(field341, params341)[0].size
        with pytest.raises(BudgetExceeded, match=f"{matrices} Gram matrices"):
            t_census_fast(field341, params341, budget=matrices - 1)


class TestE1E2:
    def test_e1_341(self, field341, params341):
        # p^k = 3 = 3 mod 4, so the closed count is 1.
        assert count_e1(field341, params341, "closed") == 1
        assert count_e1(field341, params341, "brute") == 1

    def test_e1_brute_naive_oracle_341(self, field341, params341):
        # DERIVED: literal double loop over all (x, y).
        f, pr = field341, params341
        pk1 = pr.p**pr.k + 1
        total = 0
        for x in range(81):
            for y in range(81):
                c1 = f.add(f.pow(x, 2) if x else 0, f.pow(y, 2) if y else 0)
                c2 = f.add(f.pow(x, pk1) if x else 0, f.pow(y, pk1) if y else 0)
                if c1 == 0 and c2 == 0:
                    total += 1
        assert total == count_e1(f, pr, "brute") == 1

    def test_e1_364(self):
        # CaseA: E1 = 2 p^m - 1 = 1457.
        f = build_field(3, 6)
        pr = classify_parameters(3, 6, 4)
        assert count_e1(f, pr, "closed") == 1457
        assert count_e1(f, pr, "brute") == 1457

    def test_e1_unsupported(self):
        f = build_field(3, 3)
        with pytest.raises(UnsupportedCase):
            count_e1(f, classify_parameters(3, 3, 1), "closed")

    def test_e2_341_brute_and_closed(self, field341, params341):
        assert count_e2(field341, params341, "closed") == 1
        assert count_e2(field341, params341, "brute") == 1

    def test_e2_341_naive_triple_oracle(self, field341, params341):
        # DERIVED: exhaustive 3^12 triple enumeration.
        f, pr = field341, params341
        pk1 = pr.p**pr.k + 1
        pi = f.primitive_element
        pi_e = f.pow(pi, pr.twist_exponent)
        sq = [f.pow(x, 2) if x else 0 for x in range(81)]
        hi = [f.pow(x, pk1) if x else 0 for x in range(81)]
        total = 0
        for x in range(81):
            for y in range(81):
                lhs1 = f.add(sq[x], sq[y])
                lhs2 = f.add(hi[x], hi[y])
                for z in range(81):
                    if lhs1 == f.mul(pi, sq[z]) and lhs2 == f.neg(f.mul(pi_e, hi[z])):
                        total += 1
        assert total == count_e2(f, pr, "brute") == 1

    def test_e2_541_closed(self):
        # p^k = 5 = 1 mod 4: E2 = 2*5^4 - 1 = 1249.
        pr = classify_parameters(5, 4, 1)
        f = build_field(5, 4)
        assert count_e2(f, pr, "closed") == 1249

    def test_e2_budget_and_case(self):
        f6 = build_field(3, 6)
        with pytest.raises(BudgetExceeded):
            count_e2(f6, classify_parameters(3, 6, 1), "brute")
        with pytest.raises(UnsupportedCase):
            count_e2(f6, classify_parameters(3, 6, 4), "closed")


class TestIdentities:
    def test_case_b_341_direct_and_fast(self, field341, params341):
        for mode in ("direct", "fast"):
            checks = verify_power_identities(field341, params341, mode)
            assert len(checks) == 4
            assert all(c.passed for c in checks), [str(c) for c in checks]

    def test_case_b_341_expected_values(self, field341, params341):
        checks = {c.name: c for c in verify_power_identities(field341, params341, "fast")}
        # p^k = 3 mod 4 branch: sum S = 2 p^2m, sum S^2 = 4 p^2m.
        assert checks["sum S = 2p^2m"].lhs == str(2 * 3**8)
        assert checks["sum S^2"].lhs == str(4 * 3**8)
        assert checks["weighted N1/N2 sum of S"].rhs == str(81 * 2 * 80)

    def test_case_a_364(self):
        f = build_field(3, 6)
        pr = classify_parameters(3, 6, 4)
        checks = verify_power_identities(f, pr, "fast")
        assert len(checks) == 2
        assert all(c.passed for c in checks), [str(c) for c in checks]
        assert checks[0].lhs == str(4 * 3**18)

    def test_unsupported_case(self):
        f = build_field(3, 3)
        with pytest.raises(UnsupportedCase):
            verify_power_identities(f, classify_parameters(3, 3, 1))


class TestVectorizedDirect:
    def test_censuses_equal_scalar_loops(self, direct_point):
        # s_direct(a, b) is t_direct(a, b) + t_direct(twist_pair(a, b)); the
        # S loop reads both terms from the table of the T loop.
        f, pr = direct_point
        t_table = {(a, b): t_direct(f, pr, a, b) for a in range(f.order) for b in range(f.order)}
        t_ref: dict = {}
        s_ref: dict = {}
        for pair, t in t_table.items():
            t_ref[t] = t_ref.get(t, 0) + 1
            s = t + t_table[quadforms.twist_pair(f, pr, *pair)]
            s_ref[s] = s_ref.get(s, 0) + 1
        assert t_census_direct(f, pr) == t_ref
        assert s_census_direct(f, pr) == s_ref

    @pytest.mark.parametrize("pmk", [(3, 3, 1), (3, 4, 1), (5, 3, 1)], ids=["331", "341", "531"])
    def test_direct_counts_equal_scalar_t_direct_per_pair(self, pmk):
        # The censuses cannot see a wrong beta map of the transform: reading
        # beta at w = b instead of w = M b keeps the T census at (3, 4, 1)
        # and (5, 3, 1).  Each row is compared with its own pair here.
        p, m, k = pmk
        f, pr = build_field(p, m), classify_parameters(p, m, k)
        every = np.arange(f.order)
        t_rows = batch.direct_counts(f, pr, every, batch.direct_reads(f, pr))
        s_rows = batch.direct_counts(f, pr, every, batch.direct_reads(f, pr, twisted=True))
        assert t_rows.shape == s_rows.shape == (f.order, f.order, p)
        assert (t_rows.sum(axis=2) == f.order).all()
        assert (s_rows.sum(axis=2) == 2 * f.order).all()
        # Counts with a fixed total are equal iff their values in Z[zeta_p] are.
        t_of = {(a, b): t_direct(f, pr, a, b) for a in range(f.order) for b in range(f.order)}
        for (a, b), t in t_of.items():
            assert CyclotomicInteger.from_counts(p, t_rows[a, b].tolist()) == t, (a, b)
            s = t + t_of[quadforms.twist_pair(f, pr, a, b)]
            assert CyclotomicInteger.from_counts(p, s_rows[a, b].tolist()) == s, (a, b)

    def test_census_key_survives_wide_columns(self, monkeypatch):
        # With column maxima 2**32 - 1 the packed key of the first two
        # columns alone spans 2**64, so (1, 0, 0) and (2, 0, 0) would share
        # a wrapped key if the keys were not re-ranked before the fold.
        f, pr = build_field(3, 3), classify_parameters(3, 3, 1)
        wide = 2**32 - 1
        rows = np.array([(1, 0, 0), (2, 0, 0), (wide, wide, wide)], np.int64)
        table = rows[np.arange(f.order**2) % 3].reshape(f.order, f.order, 3)
        monkeypatch.setattr(batch, "direct_counts", lambda f, pr, alphas, reads: table[alphas])
        census = batch.direct_census(f, pr, twisted=False)
        assert census == {(1, 0, 0): 243, (2, 0, 0): 243, (wide, wide, wide): 243}

    def test_direct_route_memoizes_nothing_pair_sized(self):
        f, pr = build_field(3, 4), classify_parameters(3, 4, 1)
        t_census_direct(f, pr)
        s_census_direct(f, pr)
        power_moments(f, pr, "direct")
        for key, value in f._memo.items():
            for part in value if isinstance(value, tuple) else (value,):
                assert np.size(part) < f.order**2, key

    def test_identities_direct_equal_fast_341(self, field341, params341):
        direct = verify_power_identities(field341, params341, "direct")
        fast = verify_power_identities(field341, params341, "fast")
        assert [str(c) for c in direct] == [str(c) for c in fast]
        assert all(c.passed for c in direct)

    @pytest.mark.parametrize("pmk", [(3, 4, 1), (5, 3, 1)], ids=["341", "531"])
    def test_power_moments_direct_equal_fast(self, pmk):
        # (5, 3, 1) is OddS: it has no identity targets, but its moments
        # and rank regions are defined all the same.
        p, m, k = pmk
        f, pr = build_field(p, m), classify_parameters(p, m, k)
        assert power_moments(f, pr, "direct") == power_moments(f, pr, "fast")

    @pytest.mark.parametrize("pmk", [(3, 3, 1), (3, 4, 1)], ids=["331", "341"])
    def test_power_moments_direct_equal_pair_by_pair_sums(self, pmk):
        p, m, k = pmk
        f, pr = build_field(p, m), classify_parameters(p, m, k)
        assert power_moments(f, pr, "direct") == _moments_pair_by_pair(f, pr)

    def test_power_moments_direct_equal_fast_at_every_point(self, direct_point):
        f, pr = direct_point
        assert power_moments(f, pr, "direct") == power_moments(f, pr, "fast")

    def test_ranked_census_marginals(self, direct_point):
        f, pr = direct_point
        by_value: Counter = Counter()
        by_rank: Counter = Counter()
        for key, pairs in batch.direct_census(f, pr, twisted=True, ranked=True).items():
            by_value[CyclotomicInteger.from_counts(pr.p, key[: pr.p])] += pairs
            by_rank[key[pr.p]] += pairs
        assert by_value == Counter(s_census_direct(f, pr))
        phi = rank_census(f, pr, method="phi")
        assert by_rank == Counter({0: 1, pr.s: phi.n0, pr.s - 1: phi.n1, pr.s - 2: phi.n2})


def _moments_pair_by_pair(field, params):
    """Sums of S**t per rank region from the scalar oracles, one pair at a time.

    S is t_direct at the pair plus t_direct at its twist_pair, the region
    comes from the scalar phi-nullity rank, and S**t is S multiplied by
    itself t - 1 times; no census is formed.
    """
    codes = range(field.order)
    t_of = {(a, b): t_direct(field, params, a, b) for a in codes for b in codes}
    regions = {params.s - 1: "N1", params.s - 2: "N2"}
    zero = CyclotomicInteger.zero(params.p)
    sums = {(t, r): zero for t in (1, 2, 3) for r in ("all", "N1", "N2")}
    for (a, b), t_ab in t_of.items():
        value = t_ab + t_of[quadforms.twist_pair(field, params, a, b)]
        region = regions.get(quadforms.rank(field, params, a, b)) if a or b else None
        power = value
        for t in (1, 2, 3):
            sums[(t, "all")] += power
            if region:
                sums[(t, region)] += power
            power = power * value
    return {key: total.rational_value() for key, total in sums.items()}


# Entry points of the Gram-matrix and orbit-representative route.  The direct
# oracles must run with every one of them broken.
_GRAM_PATH = {
    batch: (
        "pair_classes",
        "batched_rank_disc",
        "t_class_data",
        "representatives",
        "representative_classes",
        "subfield_tables",
        "gram_entries",
    ),
    quadforms: ("gram_entries", "gram_matrix", "diagonalize"),
    expsums: ("gram_matrix", "diagonalize", "joint_class_census"),
}


def _block_gram_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a direct oracle reached the Gram path")

    for module, names in _GRAM_PATH.items():
        for name in names:
            monkeypatch.setattr(module, name, refuse)


class TestDirectIndependence:
    def test_direct_oracles_run_without_gram_path(self, monkeypatch):
        _block_gram_path(monkeypatch)
        f, pr = build_field(3, 4), classify_parameters(3, 4, 1)
        assert t_census_direct(f, pr) == t_distribution_closed(pr).cyclotomic_counts()
        assert s_census_direct(f, pr) == s_distribution_closed(pr).cyclotomic_counts()
        checks = verify_power_identities(f, pr, "direct")
        assert len(checks) == 4 and all(c.passed for c in checks)
        assert rank_census(f, pr, method="phi") == closed_rank_census(pr)
        with pytest.raises(AssertionError):
            t_census_fast(f, pr)

    @pytest.mark.parametrize(
        ("pmk", "budget"),
        [
            ((3, 5, 1), 30_000_000),
            ((5, 3, 1), None),
            ((3, 4, 1), None),
            ((3, 6, 4), 774_840_978),  # CaseA: 2 p**(3m) terms for S, p**(3m) for T
        ],
        ids=["351", "531", "341", "364"],
    )
    def test_censuses_direct_equal_fast(self, monkeypatch, pmk, budget):
        # Catches a wrong orbit weight or representative, which brute ==
        # sums cannot: both engines share the representatives.  The T check
        # matters: a square beta0 in place of the nonsquare pi keeps the S
        # census (the twist swaps the two beta rows when -1 is a square) but
        # not the T census at (5, 3, 1) and (3, 4, 1).
        p, m, k = pmk
        pr = classify_parameters(p, m, k)
        field = build_field(p, m)
        fast_t, fast_s = t_census_fast(field, pr), s_census_fast(field, pr)
        _block_gram_path(monkeypatch)
        field = build_field(p, m)
        direct_t = t_census_direct(field, pr, budget=budget)
        direct_s = s_census_direct(field, pr, budget=budget)
        assert direct_t == fast_t.cyclotomic_counts()
        assert direct_s == fast_s.cyclotomic_counts()
        assert sum(direct_t.values()) == sum(direct_s.values()) == pr.pairs


# Every public function of a (field, params) pair, called with a field that
# does not belong to the parameters.
_FIELD_PARAMS_CALLS = {
    "t_direct": lambda f, pr: t_direct(f, pr, 5, 7),
    "t_fast": lambda f, pr: t_fast(f, pr, 5, 7),
    "s_direct": lambda f, pr: s_direct(f, pr, 5, 7),
    "s_fast": lambda f, pr: s_fast(f, pr, 5, 7),
    "phi": lambda f, pr: quadforms.phi(f, pr, 5, 7, 1),
    "phi_matrix": lambda f, pr: quadforms.phi_matrix(f, pr, 5, 7),
    "psi": lambda f, pr: quadforms.psi(f, pr, 5, 7),
    "twist_pair": lambda f, pr: quadforms.twist_pair(f, pr, 5, 7),
    "gram_entries": quadforms.gram_entries,
    "gram_matrix": lambda f, pr: quadforms.gram_matrix(f, pr, 5, 7),
    "rank": lambda f, pr: quadforms.rank(f, pr, 5, 7),
    "rank_census-gram": lambda f, pr: rank_census(f, pr, method="gram"),
    "rank_census-phi": lambda f, pr: rank_census(f, pr, method="phi"),
    "count_e1-brute": lambda f, pr: count_e1(f, pr, "brute"),
    "count_e2-brute": lambda f, pr: count_e2(f, pr, "brute"),
    "t_census_direct": t_census_direct,
    "s_census_direct": s_census_direct,
    "t_census_fast": t_census_fast,
    "s_census_fast": s_census_fast,
    "joint_class_census": expsums.joint_class_census,
    "power_moments-fast": lambda f, pr: power_moments(f, pr, "fast"),
    "power_moments-direct": lambda f, pr: power_moments(f, pr, "direct"),
    "t_class_data": batch.t_class_data,
    "phi_tables": batch.phi_tables,
    "direct_census": lambda f, pr: batch.direct_census(f, pr, twisted=False),
}


@pytest.mark.parametrize("field_pm", [(3, 6), (5, 4)], ids=["same-p", "other-p"])
@pytest.mark.parametrize("call", _FIELD_PARAMS_CALLS.values(), ids=_FIELD_PARAMS_CALLS)
def test_mismatched_field_is_refused(call, field_pm):
    with pytest.raises(ParameterError, match=r"is not GF\(3\^4\)"):
        call(build_field(*field_pm), classify_parameters(3, 4, 1))


class _Routed(Exception):
    """Stops verify_power_identities once it has picked a route."""


class TestIdentityRoute:
    # Direct only when its 2 p**(3m) terms fit both the default direct
    # budget and the caller's; never "try direct, fall back to fast".
    @pytest.mark.parametrize(
        ("pmk", "budget", "terms", "mode"),
        [
            ((3, 4, 1), None, 1_062_882, "direct"),
            ((3, 4, 1), 1_062_882, 1_062_882, "direct"),
            ((3, 4, 1), 10**6, 1_062_882, "fast"),
            ((3, 6, 4), 10**9, 774_840_978, "fast"),  # over the 2e7 default
        ],
        ids=["341-default", "341-exact", "341-small", "364-large"],
    )
    def test_auto_route(self, monkeypatch, pmk, budget, terms, mode):
        field, params = build_field(pmk[0], pmk[1]), classify_parameters(*pmk)
        assert batch.direct_terms(field, twisted=True) == terms
        picked = []

        def route(field, params, mode, *, budget=None):
            picked.append(mode)
            raise _Routed

        monkeypatch.setattr(expsums, "power_moments", route)
        with pytest.raises(_Routed):
            verify_power_identities(field, params, budget=budget)
        assert picked == [mode]
