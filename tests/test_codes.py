from __future__ import annotations

import random
import subprocess
import sys

import pytest

from twozero import build_code
from twozero.codes import (
    WeightDistribution,
    codeword,
    codeword_weight,
    codeword_weight_via_sums,
    code_report,
    weight_distribution_brute,
    weight_distribution_closed,
    weight_distribution_sums,
)
from twozero.errors import BudgetExceeded, UnsupportedCase
from twozero.expsums import s_direct
from twozero.gf import Polynomial

# Reference weight enumerators for the two small verifiable instances; every
# engine must reproduce them exactly.
ENUMERATOR_364 = {
    0: 1, 414: 728, 450: 32760, 468: 139048,
    486: 199472, 504: 132496, 522: 26208, 558: 728,
}
ENUMERATOR_361 = {
    0: 1, 468: 95004, 477: 183456, 486: 728, 495: 170352, 504: 81900,
}


class TestBuildCode:
    def test_364_shape(self, code364):
        assert (code364.n, code364.dimension) == (728, 12)
        assert code364.h1.degree == code364.h2.degree == 6
        assert code364.h1 != code364.h2

    def test_361_shape(self, code361):
        assert (code361.n, code361.dimension) == (728, 12)

    def test_341_factorization_exact(self, code341):
        # h1 * h2 * g = x^80 - 1, checked by exact polynomial arithmetic.
        n = code341.n
        x_n_1 = Polynomial(3, [-1] + [0] * (n - 1) + [1])
        assert code341.h1 * code341.h2 * code341.generator == x_n_1
        assert code341.generator.degree == n - 2 * 4

    def test_roots_are_the_defining_elements(self, code341):
        # h1 vanishes at -pi^(-1) and h2 at pi^(-(p^k+1)/2).
        f = code341.field
        r1 = f.neg(f.inv(f.primitive_element))
        r2 = f.inv(f.pow(f.primitive_element, code341.params.twist_exponent))
        for poly, root in ((code341.h1, r1), (code341.h2, r2)):
            acc = 0
            for c in reversed(poly.coeffs):
                acc = f.add(f.mul(acc, root), c)
            assert acc == 0


class TestCodewords:
    def test_zero_pair_gives_zero_word(self, code341):
        assert codeword(code341, 0, 0) == [0] * code341.n
        assert codeword_weight(code341, 0, 0) == 0

    def test_shift_closure_exhaustive(self, code341):
        # The cyclic shift of c(alpha, beta) is c(alpha pi^(-e), -beta pi^(-1)).
        f, pr = code341.field, code341.params
        pi_e_inv = f.inv(f.pow(f.primitive_element, pr.twist_exponent))
        pi_inv = f.inv(f.primitive_element)
        for a in range(81):
            for b in range(81):
                word = codeword(code341, a, b)
                shifted = [word[-1]] + word[:-1]
                a2 = f.mul(a, pi_e_inv)
                b2 = f.neg(f.mul(b, pi_inv))
                assert shifted == codeword(code341, a2, b2)

    def test_injectivity_exhaustive(self, code341):
        seen = set()
        for a in range(81):
            for b in range(81):
                seen.add(bytes(codeword(code341, a, b)))
        assert len(seen) == 3**8

    def test_weight_formula_exhaustive_341(self, code341):
        # Eq.-(8)-style identity: weight equals p^m - p^(m-1) minus the
        # rational value of sum over u in GF(p)* of S(u alpha, u beta) / 2p,
        # with S evaluated by direct enumeration.
        f, pr = code341.field, code341.params
        for a in range(81):
            for b in range(81):
                acc = None
                for u in range(1, 3):
                    s_val = s_direct(f, pr, f.mul(u, a), f.mul(u, b))
                    acc = s_val if acc is None else acc + s_val
                expect = 81 - 27 - acc.rational_value() // 6
                assert acc.rational_value() % 6 == 0
                assert codeword_weight(code341, a, b) == expect

    def test_weight_via_sums_matches_direct(self, code341):
        rng = random.Random(4242)
        for _ in range(50):
            a, b = rng.randrange(81), rng.randrange(81)
            assert codeword_weight_via_sums(code341, a, b) == codeword_weight(code341, a, b)


class TestEngines:
    def test_three_way_agreement_341(self, dists341):
        assert dists341["brute"].same_rows(dists341["sums"])
        assert dists341["brute"].same_rows(dists341["closed"])

    def test_364_reproduces_reference_enumerator(self, dists364):
        for engine in ("brute", "sums", "closed"):
            assert dists364[engine].as_dict() == ENUMERATOR_364, engine
        assert dists364["closed"].min_distance == 414

    def test_361_reproduces_reference_enumerator(self, dists361):
        for engine in ("brute", "sums", "closed"):
            assert dists361[engine].as_dict() == ENUMERATOR_361, engine
        assert dists361["closed"].min_distance == 468

    def test_closed_row_values(self, code364, code361):
        # Table rows evaluated by hand: the CaseA minimum-weight row is
        # 486 - 72 = 414 with frequency 728; the odd-k zero-S row is
        # weight 486 with frequency 728.
        d364 = weight_distribution_closed(code364).as_dict()
        assert d364[414] == 728
        d361 = weight_distribution_closed(code361).as_dict()
        assert d361[486] == 728

    def test_first_moment(self, dists341, dists364, dists361):
        for dists, n, m in ((dists341, 80, 4), (dists364, 728, 6), (dists361, 728, 6)):
            expected = n * 2 * 3 ** (2 * m - 1)
            for dist in dists.values():
                assert dist.first_moment() == expected
                assert dist.total == 3 ** (2 * m)
                assert dist.rows[0] == (0, 1)

    def test_k_larger_than_m(self):
        # k > m is legitimate: exponents reduce through the Frobenius orbit.
        code = build_code(3, 6, 8)
        assert code.params.case.value == "CaseA"
        assert weight_distribution_sums(code).same_rows(weight_distribution_closed(code))

    def test_brute_sums_agree_on_out_of_scope_case(self):
        # No closed table at (3, 3, 1), but enumeration engines still run.
        code = build_code(3, 3, 1)
        bru = weight_distribution_brute(code)
        sm = weight_distribution_sums(code)
        assert bru.same_rows(sm)
        with pytest.raises(UnsupportedCase):
            weight_distribution_closed(code)

    def test_modulus_independence_341(self, dists341):
        alt = build_code(3, 4, 1, modulus_index=1)
        assert weight_distribution_brute(alt).same_rows(dists341["brute"])

    def test_primitive_independence_341(self, dists341):
        alt = build_code(3, 4, 1, primitive_index=1)
        assert weight_distribution_brute(alt).same_rows(dists341["brute"])

    def test_workers_consistency_341(self, dists341):
        # The engines run in one process; the sums pass must still give the
        # default code's rows on a code built over another field representation.
        for alt in (build_code(3, 4, 1, modulus_index=1), build_code(3, 4, 1, primitive_index=1)):
            assert weight_distribution_sums(alt).same_rows(dists341["sums"])

    def test_budget_refusals(self, code341):
        # brute makes 3 p**m n = 19440 coordinate checks; sums eliminates
        # 3 p**m = 243 Gram matrices.
        with pytest.raises(BudgetExceeded, match="19440 coordinate checks"):
            weight_distribution_brute(code341, budget=19439)
        assert weight_distribution_brute(code341, budget=19440).total == 3**8
        with pytest.raises(BudgetExceeded, match="243 Gram matrices"):
            weight_distribution_sums(code341, budget=242)


class TestWeightDistribution:
    def test_merge_and_sort(self):
        dist = WeightDistribution.from_counts([(5, 2), (3, 1), (5, 4), (7, 0)], source="x")
        assert dist.rows == ((3, 1), (5, 6))

    def test_min_distance(self):
        dist = WeightDistribution.from_counts({0: 1, 48: 10, 60: 3}, source="x")
        assert dist.min_distance == 48


class TestCodeReport:
    def test_summary_lines(self, code364, code361):
        rep364 = code_report(code364)
        assert rep364["summary"] == "[728, 12, 414]"
        assert rep364["agreement"] and all(rep364["agreement"].values())
        rep361 = code_report(code361)
        assert rep361["summary"] == "[728, 12, 468]"

    def test_out_of_scope_marks_closed_unavailable(self):
        rep = code_report(build_code(3, 3, 1))
        assert "closed" in rep["unavailable"]
        assert "brute" in rep["distributions"]
        assert rep["case"] == "OddS-out-of-scope"


def test_building_a_code_imports_no_numpy():
    # Every CLI run pays for its imports; field and code construction must
    # not pull in numpy (only the engines in batch need it).
    script = "import sys, twozero; twozero.build_code(3, 6, 1); print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.strip() == "False", proc.stderr
