from __future__ import annotations

import math
import random
import subprocess
import sys
import tracemalloc

import pytest

from twozero import build_code, build_field, classify_parameters, codes
from twozero.codes import (
    WeightDistribution,
    _check_generator,
    _u_sum_table,
    codeword,
    codeword_weight,
    codeword_weight_via_sums,
    code_report,
    engine_agreement,
    weight_distribution_brute,
    weight_distribution_closed,
    weight_distribution_sums,
)
from twozero.errors import BudgetExceeded, InternalInconsistency, UnsupportedCase
from twozero.expsums import (
    CyclotomicInteger,
    s_direct,
    s_distribution_closed,
    t_value,
)
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


NOT_A_DIVISOR = r"h1 h2 does not divide x\^n - 1"


def x_n_minus_1(p: int, n: int) -> Polynomial:
    return Polynomial(p, [-1] + [0] * (n - 1) + [1])


# Points of the generator oracle: every case flavour, p up to 13 and fields
# up to 3^8, each built at the default field and at one other modulus and
# primitive element.
_GENERATOR_POINTS = [
    (3, 3, 1), (5, 3, 1), (7, 3, 1), (3, 4, 1), (5, 4, 1),
    (3, 5, 1), (3, 6, 4), (3, 8, 2), (11, 3, 1), (13, 3, 2),
]


@pytest.mark.parametrize(
    "hook", [{}, {"modulus_index": 1}, {"primitive_index": 1}],
    ids=["default", "modulus1", "primitive1"],
)
@pytest.mark.parametrize("pmk", _GENERATOR_POINTS, ids=lambda t: "".join(map(str, t)))
def test_generator_is_the_dense_quotient(pmk, hook):
    code = build_code(*pmk, **hook)
    quot, rem = divmod(x_n_minus_1(pmk[0], code.n), code.h1 * code.h2)
    assert rem.is_zero
    assert code.generator_coefficients == bytes(quot.coeffs)  # each reduced mod p
    assert code.generator == quot


def _synthetic_127():
    # x^126 - 1 = prod (x - a) over GF(127)*; this h has 6 of its roots.
    h = Polynomial(127, [1])
    for a in (15, 24, 44, 52, 57, 78):
        h = h * Polynomial(127, [-a, 1])
    return h, 126


def _code(p, m, k):
    def case():
        code = build_code(p, m, k)
        return code.h1 * code.h2, code.n

    return case


def test_build_code_peaks_below_16_bytes_an_element(monkeypatch):
    # On a built field, build_code makes the trace table and the generator
    # as bytes, with no Python object per element.  tracemalloc reads a
    # 9.2-byte peak per element at (3, 10, 1), against 52.6 when the
    # generator was a tuple of ints read off lists of traces.
    field = build_field(3, 10)
    monkeypatch.setattr(codes, "build_field", lambda *args, **kwargs: field)
    tracemalloc.start()
    try:
        code = codes.build_code(3, 10, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.field is field
    assert peak <= 16 * field.n


class TestGeneratorCheck:
    """_check_generator compares every coefficient of g h with x^n - 1.

    The product's coefficients pack into one byte at p = 3 and 7, two at
    p = 11 and 13 and four at p = 127, so the one packing is seen at three
    widths.
    """

    @pytest.fixture(
        params=[_code(3, 4, 1), _synthetic_127, _code(7, 3, 1), _code(11, 3, 1), _code(13, 3, 2)],
        ids=["gf3-341", "gf127-synthetic", "gf7-731", "gf11-1131", "gf13-1332"],
    )
    def case(self, request):
        h, n = request.param()
        quot, rem = divmod(x_n_minus_1(h.p, n), h)
        assert rem.is_zero
        return bytes(quot.coeffs), h, n

    def test_accepts_the_quotient(self, case):
        _check_generator(*case)

    def test_gf127_product_passes_16_bits(self):
        # The packed fields must hold a coefficient of the integer product
        # above 2^16, or carries would corrupt the neighbouring fields.
        h, n = _synthetic_127()
        g = divmod(x_n_minus_1(127, n), h)[0]
        top = max(
            sum(g.coeffs[i - j] * c for j, c in enumerate(h.coeffs) if 0 <= i - j <= g.degree)
            for i in range(n + 1)
        )
        assert top > 1 << 16

    def test_rejects_flipped_middle_coefficient(self, case):
        g, h, n = case
        coeffs = bytearray(g)
        coeffs[len(coeffs) // 2] = (coeffs[len(coeffs) // 2] + 1) % h.p
        with pytest.raises(InternalInconsistency, match=NOT_A_DIVISOR):
            _check_generator(bytes(coeffs), h, n)

    def test_rejects_every_single_coefficient_change(self, case):
        # Every coefficient is compared: a change at any one position fails.
        g, h, n = case
        for i in range(len(g)):
            coeffs = bytearray(g)
            coeffs[i] = (coeffs[i] + 1) % h.p
            with pytest.raises(InternalInconsistency, match=NOT_A_DIVISOR):
                _check_generator(bytes(coeffs), h, n)

    def test_rejects_wrong_degree(self, case):
        g, h, n = case
        for coeffs in (g + b"\x01", g[:-1]):
            with pytest.raises(InternalInconsistency, match=NOT_A_DIVISOR):
                _check_generator(coeffs, h, n)

    def test_rejects_non_divisor(self, case):
        _, h, n = case
        bad = h + Polynomial.one(h.p)
        quot, rem = divmod(x_n_minus_1(h.p, n), bad)
        assert not rem.is_zero
        with pytest.raises(InternalInconsistency, match=NOT_A_DIVISOR):
            _check_generator(bytes(quot.coeffs), bad, n)


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


def _galois_sum(value):
    """sum over u in GF(p)* of sigma_u(value), sigma_u: zeta -> zeta**u, in Z[zeta_p]."""
    z = value.cyclotomic()
    return sum((z.galois(u) for u in range(1, value.p)), CyclotomicInteger.zero(value.p))


class TestUSums:
    # The u-sum of a value is its Galois sum over zeta -> zeta**u, here taken
    # in Z[zeta_p]; the sums engine scales the class by eta_d(u) instead, and
    # the closed engine reads it as (p - 1) times the rational part.
    @pytest.mark.parametrize(
        "pmk",
        [(3, 4, 1), (5, 4, 1), (7, 3, 1), (3, 6, 4), (3, 8, 2)],
        ids=lambda pmk: "".join(map(str, pmk)),
    )
    def test_galois_sum_equals_scaled_classes(self, pmk):
        code = build_code(*pmk)
        params = code.params
        table = _u_sum_table(code)
        assert set(table) == {(r, eps) for r in range(params.s + 1) for eps in (1, -1)}
        for (r, eps), usum in table.items():
            assert _galois_sum(t_value(params, r, eps)) == usum.cyclotomic(), (r, eps)

    def test_closed_u_sum_is_the_galois_sum(self):
        # Every row of every closed S table with p <= 13: (p - 1) A equals
        # the Galois sum of A + B sqrt(q*), irrational rows included.
        irrational = 0
        for params in _closed_case_params():
            for value, _ in s_distribution_closed(params):
                usum = CyclotomicInteger.from_int(params.p, (params.p - 1) * value.rational)
                assert _galois_sum(value) == usum, (params, value)
                irrational += not value.is_rational
        assert irrational > 100


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
        d364 = weight_distribution_closed(code364.params).as_dict()
        assert d364[414] == 728
        d361 = weight_distribution_closed(code361.params).as_dict()
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
        assert weight_distribution_sums(code).same_rows(weight_distribution_closed(code.params))

    def test_brute_sums_agree_on_out_of_scope_case(self):
        # No closed table at (3, 3, 1), but enumeration engines still run.
        code = build_code(3, 3, 1)
        bru = weight_distribution_brute(code)
        sm = weight_distribution_sums(code)
        assert bru.same_rows(sm)
        with pytest.raises(UnsupportedCase):
            weight_distribution_closed(code.params)

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


def _closed_case_params():
    # Every closed-case (p, m, k) with p**m <= 3**20 (m <= 20 at p = 3, m <= 8
    # at p = 13) and k <= 2m, which covers each 2-adic order of k against m.
    for p in (3, 5, 7, 11, 13):
        for m in range(3, 21):
            if p**m > 3**20:
                break
            for k in range(1, 2 * m + 1):
                if m // math.gcd(m, k) >= 3:
                    params = classify_parameters(p, m, k)
                    if params.has_closed_forms:
                        yield params


def test_closed_weights_from_parameters_alone():
    # The closed engine reads no field, so its self-checks (code size, zero
    # row, first moment) run far past the field-table budget of 2**21.
    checked = 0
    for params in _closed_case_params():
        dist = weight_distribution_closed(params)
        assert dist.total == params.pairs and dist.min_distance > 0, params
        checked += 1
    assert checked > 200


def test_closed_weights_take_any_p():
    # The closed engine has no budget of its own; p is bounded by the size gate.
    assert weight_distribution_closed(classify_parameters(257, 4, 1)).total == 257**8


def test_engine_agreement_judges_each_pair_once():
    same = WeightDistribution.from_counts({0: 1, 4: 8}, source="x")
    other = WeightDistribution.from_counts({0: 1, 4: 7, 5: 1}, source="y")
    dists = {"sums": same, "closed": other, "brute": same}
    assert engine_agreement(dists) == {
        ("brute", "closed"): False,
        ("brute", "sums"): True,
        ("closed", "sums"): False,
    }
    # cli prints the disagreeing pairs in this order
    assert list(engine_agreement(dists)) == [
        ("brute", "closed"),
        ("brute", "sums"),
        ("closed", "sums"),
    ]


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
