from __future__ import annotations

import random

import pytest

from twozero import build_field, gauss_sum
from twozero.errors import NonRationalSum, ParameterError
from twozero.expsums import CyclotomicInteger, SymbolicSumValue, subfield_gauss_sum

from conftest import conjugate_trace


class TestCyclotomicInteger:
    def test_basis_reduction(self):
        # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        z2 = CyclotomicInteger.root_power(3, 2)
        assert z2.coeffs == (-1, -1)
        assert CyclotomicInteger.root_power(5, 4).coeffs == (-1, -1, -1, -1)
        assert CyclotomicInteger.root_power(3, 3) == CyclotomicInteger.from_int(3, 1)

    def test_rationality(self):
        v = CyclotomicInteger.from_int(7, -42)
        assert v.is_rational and v.rational_value() == -42
        w = CyclotomicInteger.root_power(7, 1)
        assert not w.is_rational
        with pytest.raises(NonRationalSum):
            w.rational_value()

    def test_ring_axioms_sampled(self):
        rng = random.Random(20240817)
        p = 7
        def rand():
            return CyclotomicInteger(p, [rng.randint(-9, 9) for _ in range(p - 1)])
        for _ in range(50):
            a, b, c = rand(), rand(), rand()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == CyclotomicInteger.zero(p)

    def test_conjugation_involution(self):
        rng = random.Random(99)
        for p in (3, 5):
            for _ in range(20):
                v = CyclotomicInteger(p, [rng.randint(-5, 5) for _ in range(p - 1)])
                assert v.conjugate().conjugate() == v

    def test_wrong_length_rejected(self):
        with pytest.raises(ParameterError):
            CyclotomicInteger(5, (1, 2))


class TestGaussSum:
    def test_p3_value(self):
        # Direct three-term evaluation: squares mod 3 are {0, 1, 1}.
        assert gauss_sum(3).coeffs == (1, 2)

    def test_p3_square(self):
        sq = gauss_sum(3) * gauss_sum(3)
        assert sq.coeffs == (-3, 0)

    def test_p5_square(self):
        assert (gauss_sum(5) * gauss_sum(5)).rational_value() == 5

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_square_is_p_star(self, p):
        p_star = p if p % 4 == 1 else -p
        assert (gauss_sum(p) * gauss_sum(p)).rational_value() == p_star


class TestSubfieldGaussSum:
    @pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)])
    def test_matches_direct_evaluation(self, p, d):
        # Oracle: the literal sum of zeta^(Tr(x^2)) over GF(p^d).  The sign
        # is not always +sqrt(q*): e.g. (5, 2) gives -5 and (3, 3) gives
        # -3*g_3, so the symbolic value must carry the correction.
        f = build_field(p, d)
        counts = [0] * p
        for x in range(f.order):
            counts[conjugate_trace(f, f.mul(x, x), 1)] += 1
        direct = CyclotomicInteger.from_counts(p, counts)
        sym = subfield_gauss_sum(p, d)
        assert sym.cyclotomic() == direct
        a, b = sym.expanded()
        q_star = sym.q_star
        assert a * b == 0
        assert a * a + b * b * q_star == q_star  # G^2 = q*


class TestSymbolicSumValue:
    def test_normal_form_even_d_folds(self):
        v = SymbolicSumValue.from_parts(3, 2, 0, 5)  # 5*sqrt(9) = 15
        assert v.expanded() == (15, 0)
        assert v.rational_value() == 15

    def test_p_power_factoring(self):
        # The display strips the full power of p; the value keeps its parts.
        v = SymbolicSumValue.from_parts(3, 1, 27, 9)
        assert str(v) == "(3 + 1*sqrt(-3))*3^2"
        assert v.expanded() == (27, 9)

    def test_zero(self):
        v = SymbolicSumValue.from_parts(5, 1, 0, 0)
        assert v.expanded() == (0, 0) and str(v) == "0"

    def test_addition(self):
        x = SymbolicSumValue.from_parts(3, 1, 4, 2)
        y = SymbolicSumValue.from_parts(3, 1, -4, 1)
        assert (x + y).expanded() == (0, 3)

    def test_add_rejects_context_mismatch(self):
        x = SymbolicSumValue.from_parts(3, 1, 1)
        y = SymbolicSumValue.from_parts(3, 2, 1)
        with pytest.raises(ParameterError):
            x + y

    def test_cyclotomic_image(self):
        # 1 + 2*sqrt(-3) -> 1 + 2*g_3 = (3, 4) in the zeta-basis.
        v = SymbolicSumValue.from_parts(3, 1, 1, 2)
        img = v.cyclotomic()
        expected = CyclotomicInteger.from_int(3, 1) + 2 * gauss_sum(3)
        assert img == expected

    def test_str_and_embedding(self):
        v = SymbolicSumValue.from_parts(3, 1, -9, 9)
        assert "sqrt(-3)" in str(v)
        z = v.embedding()
        assert abs(z.real + 9) < 1e-9 and abs(z.imag - 9 * 3**0.5) < 1e-9
        w = SymbolicSumValue.from_parts(3, 2, 18)
        assert str(w) == "18"
