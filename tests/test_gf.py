from __future__ import annotations

import hashlib
import subprocess
import sys
from itertools import islice

import pytest

from twozero import build_field, v2
from twozero.errors import (
    DegreeTooLarge,
    DivisionByZero,
    InternalInconsistency,
    NotADivisor,
    NotOddPrime,
    ParameterError,
    ZeroArgument,
)
from twozero.gf import (
    FiniteField,
    Polynomial,
    irreducible_count,
    irreducible_polynomials,
    is_irreducible,
    prime_factors,
)

# -- table-free references ---------------------------------------------------
# Digit-loop addition and negation on base-p codes, and multiplication as a
# polynomial product modulo the field's modulus.  None of them reads the
# exp, log or zech tables, so they are independent oracles for the field.


def digit_add(p: int, a: int, b: int) -> int:
    acc, scale = 0, 1
    while a or b:
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        acc += (ra + rb) % p * scale
        scale *= p
    return acc


def digit_neg(p: int, a: int) -> int:
    acc, scale = 0, 1
    while a:
        a, r = divmod(a, p)
        if r:
            acc += (p - r) * scale
        scale *= p
    return acc


def poly(field, a: int) -> Polynomial:
    return Polynomial(field.p, field.coeffs(a))


def poly_mul(field, a: int, b: int) -> int:
    return field.encode((poly(field, a) * poly(field, b) % field.modulus).coeffs)


def conjugate_trace(field, a: int, d: int) -> int:
    """Tr_d^m(a) as the sum of the conjugates a**(p**(d i)), in polynomials."""
    acc = t = poly(field, a)
    for _ in range(field.m // d - 1):
        t = t.pow_mod(field.p**d, field.modulus)
        acc = acc + t
    return field.encode(acc.coeffs)


def polynomial_walk(field) -> list[int]:
    """exp as the powers of pi, one polynomial product modulo the modulus each."""
    pi, cur, exp = poly(field, field.primitive_element), Polynomial.one(field.p), []
    for _ in range(field.n):
        exp.append(field.encode(cur.coeffs))
        cur = cur * pi % field.modulus
    return exp


def primitive_search(p: int, m: int, modulus: Polynomial, index: int) -> int:
    """The index-th smallest code whose order, by its powers n/l, is n = p**m - 1."""
    n, one = p**m - 1, Polynomial.one(p)
    for g in range(1, p**m):
        candidate = Polynomial(p, [g // p**i % p for i in range(m)])
        if all(candidate.pow_mod(n // ell, modulus) != one for ell in prime_factors(n)):
            if index == 0:
                return g
            index -= 1
    raise AssertionError("too few primitive elements")


def totient(n: int) -> int:
    for ell in prime_factors(n):
        n = n // ell * (ell - 1)
    return n


# m = 1 leaves the high half of a code empty, odd m splits it unevenly, and
# p = 11, 13 give a wide radix 2p - 1.  Every modulus and primitive index
# up to 2 that the field has.
WALK_FIELDS = [
    (p, m, mi, pi)
    for p, m in ((3, 1), (5, 1), (3, 2), (3, 5), (5, 3), (7, 3), (11, 2), (13, 3), (3, 9))
    for mi in range(len(list(islice(irreducible_polynomials(p, m), 3))))
    for pi in range(min(3, totient(p**m - 1)))
]

SMALL_FIELDS = [
    (p, m, mi, pi)
    for p, m in ((3, 4), (5, 3), (7, 2))
    for mi in range(3)
    for pi in range(3)
]


@pytest.mark.parametrize("j,expected", [(1, 0), (4, 2), (6, 1), (2, 1), (96, 5)])
def test_v2(j, expected):
    assert v2(j) == expected


def test_v2_rejects_nonpositive():
    with pytest.raises(ParameterError):
        v2(0)


class TestBuildField:
    def test_f3_smallest_modulus_and_primitive(self):
        f = build_field(3, 1)
        assert f.modulus == Polynomial(3, (0, 1))  # the polynomial x
        assert f.primitive_element == 2

    def test_f9_modulus_and_primitive(self):
        # Oracle: exhaustive order computation over all 9 elements of
        # GF(3)[x]/(x^2+1) shows x+1 (code 4) is the first generator of the
        # 8-element unit group.
        f = build_field(3, 2)
        assert f.modulus == Polynomial(3, (1, 0, 1))  # x^2 + 1
        assert f.primitive_element == 4
        orders = {}
        for a in range(1, 9):
            t, order = a, 1
            while t != 1:
                t = f.mul(t, a)
                order += 1
            orders[a] = order
        assert min(a for a, o in orders.items() if o == 8) == 4

    def test_rejects_even_prime(self):
        with pytest.raises(NotOddPrime):
            build_field(2, 3)

    @pytest.mark.parametrize("p", [1, 4, 9, 15])
    def test_rejects_non_primes(self, p):
        with pytest.raises(NotOddPrime):
            build_field(p, 2)

    def test_table_budget(self):
        for m in (14, 16):  # 3^14 and 3^16 > 2^21: refused before any table
            with pytest.raises(DegreeTooLarge):
                build_field(3, m)

    def test_table_budget_comes_before_the_primality_test(self):
        # 10**18 + 3 is prime, and its trial division alone takes minutes; the
        # size gate admits it at m = 2, so the table budget must refuse first.
        code = (
            "import time\n"
            "from twozero.errors import DegreeTooLarge\n"
            "from twozero.gf import build_field\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    build_field(10**18 + 3, 2)\n"
            "except DegreeTooLarge:\n"
            "    print(time.perf_counter() - start < 1)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10
        )
        assert proc.stdout == "True\n", proc.stderr
        with pytest.raises(DegreeTooLarge):
            build_field(10**18 + 1, 2)  # composite, but the budget is checked first

    def test_determinism(self):
        a = build_field(3, 4)
        b = build_field(3, 4)
        assert a.modulus == b.modulus
        assert a.primitive_element == b.primitive_element
        assert a.exp == b.exp
        assert a.trace_table == b.trace_table

    @pytest.mark.parametrize(
        "hook", [{"modulus_index": -1}, {"primitive_index": -1}], ids=["modulus", "primitive"]
    )
    def test_rejects_negative_index(self, hook):
        with pytest.raises(ParameterError, match="_index must be nonnegative, got -1"):
            build_field(3, 4, **hook)

    def test_modulus_index_hook(self):
        first = build_field(3, 4).modulus
        second = build_field(3, 4, modulus_index=1).modulus
        assert first != second
        assert is_irreducible(second)

    @pytest.mark.parametrize(
        ("p", "m"), [(3, 1), (3, 2), (3, 4), (3, 6), (5, 1), (5, 3), (7, 2), (7, 3)]
    )
    def test_irreducible_count_equals_enumeration(self, p, m):
        # An off-by-one in the count would refuse the last valid index or
        # let an index past the end reach the enumeration.
        assert irreducible_count(p, m) == sum(1 for _ in irreducible_polynomials(p, m))

    def test_irreducible_count_at_3_8(self):
        assert irreducible_count(3, 8) == (3**8 - 3**4) // 8 == 810

    def test_last_modulus_index_builds_and_next_is_refused(self):
        last = irreducible_count(3, 3) - 1
        assert build_field(3, 3, modulus_index=last).modulus == list(
            irreducible_polynomials(3, 3)
        )[last]
        with pytest.raises(ParameterError, match=r"^fewer than 9 irreducibles of degree 3$"):
            build_field(3, 3, modulus_index=last + 1)

    def test_last_primitive_index_builds_and_next_is_refused(self):
        # phi(3**3 - 1) = phi(26) = 12 primitive elements; the largest code
        # of order 26 is the last of them.
        f = build_field(3, 3, primitive_index=11)
        assert f.primitive_element == max(
            g for g in range(1, 27) if len({f.pow(g, e) for e in range(26)}) == 26
        )
        with pytest.raises(ParameterError, match=r"^fewer than 13 primitive elements$"):
            build_field(3, 3, primitive_index=12)

    @pytest.mark.parametrize(
        ("hook", "message"),
        [
            ({"modulus_index": 10**5}, "fewer than 100001 irreducibles of degree 8"),
            ({"primitive_index": 10**6}, "fewer than 1000001 primitive elements"),
        ],
        ids=["modulus", "primitive"],
    )
    def test_too_large_index_refused_with_message(self, hook, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            build_field(3, 8, **hook)


class TestArithmetic:
    def test_mul_by_zero_and_inv_one(self, field341):
        f = field341
        for x in range(0, f.order, 7):
            assert f.mul(0, x) == 0
        assert f.inv(1) == 1

    def test_primitive_order(self, field341):
        f = field341
        assert f.pow(f.primitive_element, f.n) == 1
        assert all(f.pow(f.primitive_element, c) != 1 for c in (f.n // 2, f.n // 5))

    def test_inverse_of_zero(self, field341):
        with pytest.raises(DivisionByZero):
            field341.inv(0)

    def test_exp_log_mutually_inverse(self, field341):
        f = field341
        for x in range(1, f.order):
            assert f.exp[f.log[x]] == x
        for i in range(f.n):
            assert f.log[f.exp[i]] == i

    def test_field_axioms_sampled(self, field341):
        # Spot-check associativity/distributivity on a fixed grid.
        f = field341
        codes = range(0, f.order, 11)
        for a in codes:
            for b in codes:
                assert f.mul(a, b) == f.mul(b, a)
                assert f.add(a, b) == f.add(b, a)
                for c in (5, 28, 77):
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


class TestExpWalk:
    @pytest.mark.parametrize("p,m,modulus_index,primitive_index", WALK_FIELDS)
    def test_matches_polynomial_walk(self, p, m, modulus_index, primitive_index):
        f = build_field(p, m, modulus_index=modulus_index, primitive_index=primitive_index)
        assert f.primitive_element == primitive_search(p, m, f.modulus, primitive_index)
        assert list(f.exp) == polynomial_walk(f)
        assert all(f.log[code] == i for i, code in enumerate(f.exp))

    def test_tables_pinned_at_3_10(self):
        # sha256 of the comma-joined tables, recorded from the polynomial walk.
        f = build_field(3, 10)
        digests = {
            name: hashlib.sha256(",".join(map(str, getattr(f, name))).encode()).hexdigest()
            for name in ("exp", "log", "zech")
        }
        assert digests == {
            "exp": "9cc6265c9b4aa255d640d277c51664ec4226bc6292cfd2e949cfc9b490a8b247",
            "log": "be7d4313c9c8b75a284755571c40cad59fdf93df0220d076002a58eb74e59fe8",
            "zech": "f60d96464bf2d2324ea7cedfb2ac22ca0946fe6919238fb78b22ab22100d0b9f",
        }

    def test_non_primitive_element_is_refused(self):
        # pi**2 has order 40 in GF(3^4): its powers reach half the nonzero codes.
        f = build_field(3, 4)
        with pytest.raises(InternalInconsistency):
            FiniteField(3, 4, f.modulus, f.exp[2])


class TestAgainstReferences:
    @pytest.mark.parametrize("p,m,modulus_index,primitive_index", SMALL_FIELDS)
    def test_arithmetic_exhaustive(self, p, m, modulus_index, primitive_index):
        f = build_field(p, m, modulus_index=modulus_index, primitive_index=primitive_index)
        for a in range(f.order):
            assert f.neg(a) == digit_neg(p, a)
            for b in range(f.order):
                assert f.add(a, b) == digit_add(p, a, b)
                assert f.sub(a, b) == digit_add(p, a, digit_neg(p, b))
                assert f.mul(a, b) == poly_mul(f, a, b)

    @pytest.mark.parametrize("p,m", [(3, 6), (5, 4)])
    def test_trace_tables_are_conjugate_sums(self, p, m):
        f = build_field(p, m)
        for d in range(1, m + 1):
            if m % d == 0:
                expected = tuple(conjugate_trace(f, a, d) for a in range(f.order))
                assert f.trace_to_table(d) == expected


class TestTrace:
    def test_trace_of_zero_and_one(self, field341):
        assert field341.trace(0, 1) == 0
        assert field341.trace(1, 1) == 4 % 3

    def test_trace_balanced_f9(self):
        # Direct 9-term evaluation: the trace map takes every value of GF(3)
        # equally often, so the sum over the field vanishes.
        f = build_field(3, 2)
        total = 0
        for x in range(9):
            total = (total + f.trace(x, 1)) % 3
        assert total == 0
        assert sorted(f.trace_table).count(0) == 3

    def test_trace_additivity(self, field341):
        f = field341
        for x in range(0, f.order, 5):
            for y in range(0, f.order, 7):
                assert (f.trace_table[x] + f.trace_table[y]) % 3 == f.trace_table[f.add(x, y)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_trace_transitivity_exhaustive(self, m):
        f = build_field(3, m)
        for d in range(1, m + 1):
            if m % d:
                continue
            for x in range(f.order):
                mid = f.trace(x, d)
                # Tr_1^d inside the subfield, written out as a Frobenius sum.
                acc, t = mid, mid
                for _ in range(d - 1):
                    t = f.frobenius(t)
                    acc = f.add(acc, t)
                assert acc == f.trace(x, 1)

    def test_trace_rejects_non_divisor(self, field341):
        with pytest.raises(NotADivisor):
            field341.trace(1, 3)


class TestQuadraticCharacter:
    def test_one_is_square(self, field341):
        assert field341.quadratic_character(1, 1) == 1

    def test_prime_field_nonresidue(self):
        f = build_field(3, 1)
        assert f.quadratic_character(2, 1) == -1
        assert f.quadratic_character(f.primitive_element, 1) == -1

    def test_multiplicative_exhaustive(self):
        f = build_field(3, 2)
        for x in range(1, 9):
            for y in range(1, 9):
                chi = f.quadratic_character
                assert chi(f.mul(x, y), 2) == chi(x, 2) * chi(y, 2)

    def test_rejects_zero(self, field341):
        with pytest.raises(ZeroArgument):
            field341.quadratic_character(0, 1)

    def test_rejects_outside_subfield(self, field341):
        f = field341
        outside = next(a for a in range(2, f.order) if not f.in_subfield(a, 2))
        with pytest.raises(ParameterError):
            f.quadratic_character(outside, 2)


class TestMinimalPolynomial:
    def test_zero_and_one(self, field341):
        f = field341
        assert f.minimal_polynomial(0) == Polynomial(3, (0, 1))       # x
        assert f.minimal_polynomial(1) == Polynomial(3, (2, 1))       # x - 1

    def test_primitive_has_full_degree(self, field341):
        f = field341
        assert f.minimal_polynomial(f.primitive_element).degree == f.m

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_vanishes_at_argument_exhaustive(self, m):
        f = build_field(3, m)
        for a in range(f.order):
            poly = f.minimal_polynomial(a)
            assert f.m % poly.degree == 0
            acc = 0
            for c in reversed(poly.coeffs):
                acc = f.add(f.mul(acc, a), c)
            assert acc == 0


class TestIrreducibility:
    @pytest.mark.parametrize("m", [2, 3])
    def test_against_trial_division(self, m):
        # Oracle: a monic polynomial of degree m is irreducible iff no monic
        # polynomial of degree 1..m-1 divides it.
        p = 3
        smaller = []
        for deg in range(1, m):
            for low in range(p**deg):
                digits, t = [], low
                for _ in range(deg):
                    t, r = divmod(t, p)
                    digits.append(r)
                smaller.append(Polynomial(p, digits + [1]))
        for low in range(p**m):
            digits, t = [], low
            for _ in range(m):
                t, r = divmod(t, p)
                digits.append(r)
            f = Polynomial(p, digits + [1])
            by_trial = not any((f % g).is_zero for g in smaller)
            assert is_irreducible(f) == by_trial

    def test_degree_six_composite_split_rejected(self):
        # A degree-6 product of irreducibles of degrees 1, 2, 3 passes the
        # naive "x^(p^(m/l)) != x" screen; the gcd criterion must reject it.
        p = 3
        deg1 = next(iter(irreducible_polynomials(p, 1)))
        deg2 = next(iter(irreducible_polynomials(p, 2)))
        deg3 = next(iter(irreducible_polynomials(p, 3)))
        composite = deg1 * deg2 * deg3
        assert composite.degree == 6
        assert not is_irreducible(composite)


class TestPolynomial:
    def test_divmod_roundtrip(self):
        a = Polynomial(3, (1, 2, 0, 1, 2))
        b = Polynomial(3, (2, 1, 1))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_gcd_monic(self):
        common = Polynomial(3, (1, 1))
        a = Polynomial(3, (2, 1)) * common
        b = Polynomial(3, (0, 2)) * common
        assert a.gcd(b) == common

    def test_str(self):
        assert str(Polynomial(3, (1, 0, 1))) == "x^2 + 1"
        assert str(Polynomial(3, ())) == "0"
