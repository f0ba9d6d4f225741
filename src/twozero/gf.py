"""Exact arithmetic in GF(p**m) for odd p.

Elements are integer *codes* in [0, p**m): the base-p digits of a code are
the coefficients of the element in the polynomial basis, so code 0 is the
additive identity and code 1 the multiplicative identity.  A field carries
a fixed monic irreducible modulus (the lexicographically smallest one, so
rebuilding the same (p, m) is bit-for-bit reproducible) and a fixed
primitive element pi (the smallest code of multiplicative order p**m - 1).
Building a field runs those two searches and nothing per element; the exp,
log and zech tables of the hot paths are built on their first read.

Both searches, the field's check of pi and every power that code
construction takes run on one :class:`Reducer` per modulus: a residue is
one integer with a fixed-width field per coefficient (Kronecker
substitution), and a product modulo the modulus is a handful of C-level
big-integer and bytes operations, with no Python step per coefficient.
:class:`Polynomial` modulo the modulus gives the images of the basis x**j
under multiplication by pi.  That map is GF(p)-linear, so it is tabulated
on the low and the high half of a code's digits, and the walk over the
powers of pi that gives the exp/log tables costs two divmods and four
lookups per element.  After that every operation is a table lookup.
Multiplication adds logarithms, and addition uses Zech logarithms,
zech[i] = log(1 + pi**i), since a + b = a (1 + b/a).
The trace to a subfield is GF(p)-linear too, so the one trace table kept,
Tr_d(pi**e) by exponent e, is tabulated from the traces of the basis x**j
in subfield indices, one bytes.translate per digit and multiplier through
a row of the subfield add table; a single trace is a sum of Frobenius
conjugates.

The module also houses polynomials over GF(p) (needed for moduli, minimal
polynomials and the parity-check polynomial h1 h2 of the cyclic code), the
power sums of a polynomial's roots (Newton's identities), Berlekamp-Massey,
and one kernel for linear recurring sequences over GF(p), which
codes.build_code reads the generator and the minimal polynomials from
without any table of the field.  Then the trace maps to arbitrary
subfields, the quadratic character of a subfield, and the 2-adic valuation
used by the parameter case split.
"""

from __future__ import annotations

import sys
from array import array
from itertools import combinations, islice
from math import prod
from operator import mul
from typing import Callable, Iterator, TypeVar

from .errors import (
    BudgetExceeded,
    DegreeTooLarge,
    DivisionByZero,
    InternalInconsistency,
    NotADivisor,
    NotOddPrime,
    ParameterError,
    ZeroArgument,
    check_budget,
)

# Largest field (in elements) that is built.  exp, log and zech take 24 bytes
# per element, built on their first read: a fresh process that reads them
# peaks near 25 bytes per element above the interpreter's 15 MiB (RSS,
# CPython 3.11: 52 MiB at 3^13), while build_code reads none of them and
# peaks near 9 (29 MiB at 3^13).  So 2^21 elements bounds the tables near
# 65 MiB: 3^13 is built and 3^14 (about 130 MiB) and larger are refused.
DEFAULT_TABLE_BUDGET = 1 << 21

# Largest subfield GF(q) given index tables: an index fits one byte, which the
# uint8 matrices of the batched Gram kernel need too.  A Gram subfield has
# q = p**d <= (p**m)**(1/3) <= 2**7 under the table budget.
SUBFIELD_INDEX_BUDGET = 256

# Every request with p**m >= 2**MAX_ORDER_BITS is refused before p**m is
# formed or p is tested for primality.  The code needs m >= 3, so p stays
# below 2**43, where the trial division of is_prime takes about 0.13 s.
MAX_ORDER_BITS = 128

T = TypeVar("T")


class Frozen:
    """Base of the package's immutable records: no attribute is set after __init__.

    A subclass lists its fields in __slots__ and sets each one once in its
    __init__, through object.__setattr__ or the slot's own __set__, which
    bypass this class; assigning or deleting an attribute later raises
    AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict]) -> None:
        """Restore the slots of a copy or an unpickled record: state is (None, {slot: value})."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def v2(j: int) -> int:
    """2-adic valuation: the largest t with 2**t dividing j (j >= 1)."""
    if j < 1:
        raise ParameterError(f"v2 requires a positive integer, got {j}")
    return (j & -j).bit_length() - 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (trial division)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _digits(a: int, p: int, m: int) -> list[int]:
    """The m base-p digits of a, least significant first."""
    out = []
    for _ in range(m):
        a, r = divmod(a, p)
        out.append(r)
    return out


class Polynomial:
    """A polynomial over GF(p), coefficients ascending, no trailing zeros."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs) -> None:
        self.p = p
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, p: int) -> Polynomial:
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> Polynomial:
        return cls(p, (1,))

    @classmethod
    def x(cls, p: int) -> Polynomial:
        return cls(p, (0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return Polynomial(self.p, out)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.p)
        p = self.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % p
        return Polynomial(p, out)

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        if dd < dv:
            return Polynomial.zero(p), Polynomial(p, rem)
        inv_lead = pow(other.coeffs[-1], -1, p)
        quot = [0] * (dd - dv + 1)
        for i in range(dd - dv, -1, -1):
            c = rem[i + dv] * inv_lead % p
            if c:
                quot[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = (rem[i + j] - c * b) % p
        return Polynomial(p, quot), Polynomial(p, rem)

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[0]

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def monic(self) -> Polynomial:
        """self divided by its leading coefficient (the zero polynomial stays zero)."""
        if self.is_zero:
            return self
        inv_lead = pow(self.coeffs[-1], -1, self.p)
        return Polynomial(self.p, [c * inv_lead for c in self.coeffs])

    def gcd(self, other: Polynomial) -> Polynomial:
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def inverse_mod(self, mod: Polynomial) -> Polynomial:
        """The u of degree below mod's with u self == 1 (mod mod), by extended Euclid.

        Raises DivisionByZero unless self and mod are coprime.
        """
        r0, r1 = mod, self % mod
        u0, u1 = Polynomial.zero(self.p), Polynomial.one(self.p)  # u_i self == r_i (mod mod)
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, u0 - q * u1
        if r0.degree != 0:
            raise DivisionByZero("polynomial not invertible modulo the modulus")
        inv = pow(r0.coeffs[0], -1, self.p)
        return Polynomial(self.p, [c * inv for c in u0.coeffs])

    def power_sums(self) -> list[int]:
        """P_j = sum of r**j over the roots r of this monic polynomial, for j < m.

        Newton's identities over GF(p), f = x**m + a_(m-1) x**(m-1) + ... + a_0:
        P_0 = m and P_j = -(j a_(m-j) + sum of a_(m-i) P_(j-i) over 0 < i < j).
        For the modulus of a field, P_j is Tr(x**j).
        """
        p, a, m = self.p, self.coeffs, self.degree
        sums = [m % p]
        for j in range(1, m):
            sums.append(-(j * a[m - j] + sum(a[m - i] * sums[j - i] for i in range(1, j))) % p)
        return sums

    def pow_mod(self, e: int, mod: Polynomial) -> Polynomial:
        """self**e modulo mod, for e >= 0 and mod of degree at least 1, on a Reducer of mod."""
        reducer = Reducer(mod)
        return reducer.unpack(reducer.pow(reducer.pack((self % mod).coeffs), e))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "x" if i == 1 else f"x^{i}"
                terms.append(base if c == 1 else f"{c}{base}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Polynomial(p={self.p}, {self})"


def berlekamp_massey(p: int, sequence: list[int]) -> Polynomial:
    """The connection polynomial C of least degree L of a sequence over GF(p).

    C = 1 + c_1 x + ... + c_L x**L with s_i + c_1 s_(i-1) + ... + c_L s_(i-L)
    = 0 for L <= i < len(sequence) (Massey, IEEE Trans. IT 15, 1969).  From
    2L terms of a sequence of linear complexity L it is unique: for the traces
    s_i = Tr(delta**i) of an element of degree m, C is the reciprocal of the
    minimal polynomial of delta, so C made monic is that of 1/delta.
    """
    c, b = [1], [1]  # current and previous connection polynomials
    length, shift, last = 0, 1, 1
    for i, s in enumerate(sequence):
        discrepancy = (s + sum(c[j] * sequence[i - j] for j in range(1, length + 1))) % p
        if not discrepancy:
            shift += 1
            continue
        scale = discrepancy * pow(last, -1, p)
        previous = c
        c = c + [0] * (len(b) + shift - len(c))
        for j, bj in enumerate(b):
            c[j + shift] = (c[j + shift] - scale * bj) % p
        if 2 * length <= i:
            length, b, last, shift = i + 1 - length, previous, discrepancy, 1
        else:
            shift += 1
    return Polynomial(p, c[: length + 1])


def residue_table(p: int) -> bytes:
    """The bytes.translate table that reduces every byte mod p."""
    return (bytes(range(p)) * (256 // p + 1))[:256]


class Packing:
    """Polynomials over GF(p) packed into integers by Kronecker substitution.

    Coefficient i of a polynomial of L coefficients is field i of one
    integer of L fields, in the machine's byte order, so that an array of
    the fields' typecode reads them in place.  A field is the narrowest of
    1, 2, 4 or 8 bytes that holds bound.  The integer product of two packed
    polynomials is their packed product, with every coefficient unreduced,
    as long as none of those passes bound; :meth:`reduce` then takes each
    field mod p.
    """

    __slots__ = ("p", "typecode", "width", "residues")

    def __init__(self, p: int, bound: int) -> None:
        self.p = p
        typecodes = [t for t in "BHIQ" if bound < 256 ** array(t).itemsize]
        if not typecodes:
            raise ParameterError(f"no field of at most 8 bytes holds {bound}")
        self.typecode = typecodes[0]
        self.width = array(self.typecode).itemsize
        self.residues = residue_table(p) if self.width == 1 else None

    def pack(self, coeffs) -> int:
        """coeffs (bytes, or ints below 256**width) as one integer, coeffs[i] in field i.

        bytes go into wider fields by one slice assignment, since
        array(typecode, bytes) would read their raw bytes as items.
        """
        if self.width == 1 or not isinstance(coeffs, bytes):
            return int.from_bytes(array(self.typecode, coeffs), sys.byteorder)
        wide = bytearray(len(coeffs) * self.width)
        wide[0 if sys.byteorder == "little" else self.width - 1 :: self.width] = coeffs
        return int.from_bytes(wide, sys.byteorder)

    def reduce(self, value: int, count: int) -> bytes | array:
        """The count fields of value, each reduced mod p, indexed by coefficient.

        One-byte fields come back as bytes, by one bytes.translate, and wider
        ones as an array of the typecode, by one map of int.__rmod__.  Either
        way int.from_bytes(result[i:j], sys.byteorder) packs fields i..j-1
        again.
        """
        if self.width == 1:
            return value.to_bytes(count, sys.byteorder).translate(self.residues)
        fields = array(self.typecode)
        fields.frombytes(value.to_bytes(count * self.width, sys.byteorder))
        return array(self.typecode, map(self.p.__rmod__, fields))


class Reducer(Packing):
    """Products and powers of residues modulo one polynomial f over GF(p), packed.

    A residue has the m = deg f >= 1 fields of its coefficients, each wide
    enough for m (p - 1)**2, the bound on a coefficient of the product of two
    residues.  A product is four steps: one big-integer multiply; one
    reduction of its 2m - 1 fields mod p; adding rows[i][d], the packed
    d x**(m+i) mod f, for the digit d of each of the m - 1 high fields to the
    low m fields (a sum of m fields below p each, so nothing carries); and a
    second reduction of those m fields.  rows holds the p multiples of each
    x**(m+i), read off one product: the m - 1 powers side by side, times the
    packed 0, 1, .., p - 1 spaced as far apart as the powers are long.  No
    step of a product runs Python per coefficient.
    """

    __slots__ = ("m", "rows", "one")

    def __init__(self, modulus: Polynomial) -> None:
        p, m = modulus.p, modulus.degree
        if m < 1:
            raise ParameterError(f"a reducer needs a modulus of degree at least 1, got {m}")
        super().__init__(p, m * (p - 1) ** 2)
        self.m = m
        self.one = self.pack_residue((1,))
        self.rows: list[list[int]] = []
        if m == 1:
            return
        # x**(m+i+1) = x x**(m+i): shift the fields up by one and add the top
        # field times x**m = -(f - lead x**m)/lead, at most p (p - 1) a field.
        scale = -pow(modulus.coeffs[-1], -1, p)
        first = self.pack([c * scale % p for c in modulus.coeffs[:m]])
        zero = self.reduce(0, 1)
        power = powers = self.reduce(first, m)  # fields of each x**(m+i) mod f, i < m - 1
        for _ in range(m - 2):
            shifted = int.from_bytes(zero + power[:-1], sys.byteorder)
            power = self.reduce(shifted + power[-1] * first, m)
            powers += power
        size = len(powers)
        spread = array(self.typecode, [0]) * (p * size)
        spread[::size] = array(self.typecode, range(p))
        multiples = self.reduce(self.pack(spread) * self.pack(powers), (p + 1) * size - 1)
        self.rows = [
            [int.from_bytes(multiples[d : d + m], sys.byteorder) for d in range(i, p * size, size)]
            for i in range(0, size, m)
        ]

    def pack_residue(self, coeffs) -> int:
        """The packed residue of coefficients coeffs (at most m, each in [0, p))."""
        return self.pack(list(coeffs) + [0] * (self.m - len(coeffs)))

    def unpack(self, residue: int) -> Polynomial:
        return Polynomial(self.p, self.reduce(residue, self.m))

    def mul(self, a: int, b: int) -> int:
        """The packed residue of a b mod f."""
        m = self.m
        product = self.reduce(a * b, 2 * m - 1)
        low = int.from_bytes(product[:m], sys.byteorder)
        low = sum(map(list.__getitem__, self.rows, product[m:]), low)
        return int.from_bytes(self.reduce(low, m), sys.byteorder)

    def pow(self, a: int, e: int) -> int:
        """The packed residue of a**e mod f (e >= 0), by square-and-multiply from the top bit."""
        if not e:
            return self.one
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result


def linear_recurrence(p: int, taps: list[int], initial: list[int], count: int) -> bytes:
    """The first count terms of s_(t+m) = sum of taps[j] s_(t+j) over GF(p), one byte each.

    s_0 .. s_(m-1) are initial, m = len(taps), every value is in [0, p),
    and p <= 127.  A run is linear in its state (s_t .. s_(t+m-1)): the
    w = L + m terms from a state are the sum over j of s_(t+j) U_j, where U_j
    is the run from the j-th unit state.  Each step reads that sum from two
    tables, over the low h = ceil(m/2) and the high m - h digits of the
    state, keyed by their bytes.  An entry holds its w terms reduced mod p as
    one integer, a byte per term, so the sum of two entries carries nowhere
    (2p - 2 < 256) and one bytes.translate reduces it.  A step keeps L terms,
    and the m after them are the next state.  L = ceil(count / (p**h +
    p**(m-h))), so the steps and the table entries are each about p**(m/2),
    and a table holds about count bytes.

    U_(m-1) comes from the recurrence term by term; shifting U_j by one term
    gives U_(j-1) + taps[j] U_(m-1), which gives the other U_j as bytes.
    """
    m, h = len(taps), (len(taps) + 1) // 2
    block = -(-count // (p**h + p ** (m - h))) or 1
    width = block + m
    residues = residue_table(p)
    scaled = [bytes(d * c % p for c in range(p)).ljust(256, b"\0") for d in range(p)]
    digits = [bytes((d,)) for d in range(p)]

    tail = [0] * (m - 1) + [1]  # U_(m-1), to width + m - 1 terms
    while len(tail) < width + m - 1:
        tail.append(sum(map(mul, taps, tail[-m:])) % p)
    units = [bytes(tail)]
    for j in range(m - 1, 0, -1):  # U_(j-1) = U_j shifted, minus taps[j] U_(m-1)
        size = len(units[-1]) - 1
        total = int.from_bytes(units[-1][1:], "little") + int.from_bytes(
            units[0][:size].translate(scaled[-taps[j] % p]), "little"
        )
        units.append(total.to_bytes(size, "little").translate(residues))
    units = [unit[:width] for unit in reversed(units)]  # U_0 .. U_(m-1)

    def table(half: list[bytes]) -> dict[bytes, int]:
        entries = {b"": 0}
        for unit in half:
            rows = [int.from_bytes(unit.translate(scaled[d]), "little") for d in range(p)]
            entries = {
                key + digits[d]: int.from_bytes(
                    (value + row).to_bytes(width, "little").translate(residues), "little"
                )
                for d, row in enumerate(rows)
                for key, value in entries.items()
            }
        return entries

    low, high = table(units[:h]), table(units[h:])
    state, runs = bytes(initial), []
    for _ in range(-(-count // block)):
        run = (low[state[:h]] + high[state[h:]]).to_bytes(width, "little").translate(residues)
        runs.append(run[:block])
        state = run[block:]
    return b"".join(runs)[:count]


def is_irreducible(f: Polynomial) -> bool:
    """Rabin's irreducibility criterion over GF(p), after a test for roots.

    A monic f of degree m >= 2 with a root in GF(p) has a linear factor, and
    most reducible candidates are caught so, by evaluating f at 0, 1, ..,
    p - 1.  For the rest, f is irreducible iff x**(p**m) == x (mod f) and,
    for each prime l dividing m, gcd(x**(p**(m/l)) - x, f) is constant
    (M. O. Rabin, SIAM J. Comput. 9, 1980).  The gcd test is required: a
    mere "x**(p**(m/l)) != x mod f" check misses reducible polynomials whose
    factor degrees divide different m/l (e.g. degrees 1+2+3 at m=6).  The
    powers x**(p**j) come one from the last by a p-th power on one Reducer
    of f.
    """
    p, m = f.p, f.degree
    if m < 1 or not f.is_monic:
        return False
    if m == 1:
        return True
    if any(f(c) == 0 for c in range(p)):
        return False
    reducer = Reducer(f)
    x = reducer.pack_residue((0, 1))
    gcd_steps = {m // ell for ell in prime_factors(m)}
    power = x
    for j in range(1, m + 1):
        power = reducer.pow(power, p)  # x**(p**j)
        if j in gcd_steps and (reducer.unpack(power) - Polynomial.x(p)).gcd(f).degree != 0:
            return False
    return power == x


def irreducible_polynomials(p: int, m: int) -> Iterator[Polynomial]:
    """Monic irreducibles of degree m over GF(p), smallest first.

    Candidates x**m + c_{m-1} x**(m-1) + ... + c_0 are ordered by the value
    of the low-coefficient list read as a base-p integer c_0 + c_1 p + ...
    """
    for low in range(p**m):
        f = Polynomial(p, _digits(low, p, m) + [1])
        if is_irreducible(f):
            yield f


def irreducible_count(p: int, m: int) -> int:
    """Monic irreducibles of degree m over GF(p): (1/m) sum_{e | m} mu(e) p**(m/e).

    mu(e) is nonzero only at the products e of distinct primes of m.
    """
    primes = prime_factors(m)
    subsets = (c for r in range(len(primes) + 1) for c in combinations(primes, r))
    return sum((-1) ** len(c) * p ** (m // prod(c)) for c in subsets) // m


def check_field_size(p: int, m: int) -> None:
    """Refuse GF(p**m) with p**m >= 2**MAX_ORDER_BITS (BudgetExceeded), for m >= 1.

    A p of b bits has 2**((b-1) m) <= p**m, so the bit length decides every
    large case and p**m is formed only below 2**(2 MAX_ORDER_BITS).  Values
    p < 2 are left to the primality check.
    """
    if p > 1 and (m * (p.bit_length() - 1) >= MAX_ORDER_BITS or p**m >> MAX_ORDER_BITS):
        raise BudgetExceeded(f"p^m = {p}^{m} is not below 2^{MAX_ORDER_BITS}")


def check_modulus_index(p: int, m: int, modulus_index: int) -> None:
    """Reject a modulus index past the irreducibles of degree m, by their count only."""
    if modulus_index < 0:
        raise ParameterError(f"modulus_index must be nonnegative, got {modulus_index}")
    if modulus_index >= irreducible_count(p, m):
        raise ParameterError(f"fewer than {modulus_index + 1} irreducibles of degree {m}")


def _exp_log(p: int, m: int, modulus: Polynomial, primitive: int) -> tuple[array, array]:
    """exp[i] = code of pi**i and log[code] = i, int64 arrays, by walking the powers of pi.

    Multiplication by pi is GF(p)-linear.  Split a code c = lo + p**h hi,
    h = ceil(m/2); then pi c = pi lo + pi x**h hi.  t0[lo] and t1[hi] hold
    the two images with their digits written in radix R = 2p - 1, so their
    sum does not carry (each digit is at most 2p - 2).  n0 and n1 read the
    low h and the high m - h radix-R digits of the sum and give the base-p
    code of those digits reduced mod p, so one step is two divmods and four
    lookups.  All six tables are int64 arrays.  pi must be primitive, as
    FiniteField checks.
    """
    h, radix = (m + 1) // 2, 2 * p - 1
    pi = Polynomial(p, _digits(primitive, p, m))

    def images(shift: int, k: int) -> array:
        # pi x**shift c for every c < p**k, from the k images of x**(shift+j):
        # summed unreduced in radix b no digit carries, then each digit is
        # reduced mod p and the digits are rewritten in radix R.
        b = k * (p - 1) ** 2 + 1
        sums = [0]
        for j in range(k):
            image = (Polynomial(p, [0] * (shift + j) + [1]) * pi % modulus).coeffs
            step = sum(c * b**i for i, c in enumerate(image))
            sums = [s + d * step for d in range(p) for s in sums]
        return array("q", (sum(s // b**i % b % p * radix**i for i in range(m)) for s in sums))

    def fold(k: int, scale: int) -> array:
        # The k radix-R digits of an index, each reduced mod p, as base-p code.
        codes = array("q", [0])
        for j in range(k):
            step = scale * p**j
            codes = array("q", (c + d % p * step for d in range(radix) for c in codes))
        return codes

    half, radix_half = p**h, radix**h
    t0, t1 = images(0, h), images(h, m - h)
    n0, n1 = fold(h, 1), fold(m - h, half)
    n = p**m - 1
    exp = array("q", [0]) * n
    log = array("q", [-1]) * (n + 1)
    cur = 1
    for i in range(n):
        exp[i] = cur
        log[cur] = i
        hi, lo = divmod(cur, half)
        hi, lo = divmod(t0[lo] + t1[hi], radix_half)
        cur = n0[lo] + n1[hi]
    return exp, log


class SubfieldIndexTables(Frozen):
    """GF(q) = GF(p**d) arithmetic on indices 0..q-1 (index i is codes[i]; 0 is zero).

    The scalar Gram path (quadforms.gram_matrix, quadforms.diagonalize) reads
    these lists and the batched kernels read numpy copies of them
    (batch.subfield_tables, batch.read_table).  trace_of_power is the
    field's only trace table, indexed by the exponent of pi; at d = 1 the
    index is the trace value itself, since the codes of GF(p) are 0..p-1.
    Instances compare by identity: each is memoized on its field.
    """

    __slots__ = ("codes", "index", "add", "sub", "mul", "inv", "chi", "trace_of_power")

    def __init__(
        self,
        codes: tuple[int, ...],     # index -> field code, ascending
        index: dict[int, int],      # field code -> index, for the q subfield codes only
        add: list[list[int]],       # (q, q)
        sub: list[list[int]],       # (q, q)
        mul: list[list[int]],       # (q, q)
        inv: list[int],             # inv[0] = 0 sentinel
        chi: list[int],             # quadratic character of GF(q), chi[0] = 1 sentinel
        trace_of_power: bytes,      # index of Tr_d^m(pi**e) for e in [0, p**m - 1)
    ) -> None:
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "trace_of_power", trace_of_power)


class _Unbuilt:
    """Stands in for a table of a field before the tables are built.

    Indexing it reads the field's table of that name, which builds them.
    """

    __slots__ = ("field", "name")

    def __init__(self, field: FiniteField, name: str) -> None:
        self.field, self.name = field, name

    def __getitem__(self, index: int) -> int:
        return getattr(self.field, self.name)[index]


class _BuiltOnRead:
    """exp, log or zech of a FiniteField: its first read builds all three.

    A non-data descriptor: the build stores the arrays as instance
    attributes, which every later read finds first.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, field: FiniteField | None, owner: type | None = None):
        if field is None:
            return self
        field._build_tables()
        return getattr(field, self.name)


class FiniteField:
    """GF(p**m) with a fixed modulus and primitive element, tables on first use.

    Construct through :func:`build_field`.  The constructor refuses a pi that
    is not primitive (InternalInconsistency), by the order tests of the
    primitive search, and builds nothing per element.  The int64 exp, log and
    zech arrays come from one walk over the powers of pi on the first read of
    any of them and then stay on the instance; they are never written after
    that, and numpy reads them in place (batch.field_table).  All arithmetic
    on integer codes goes through them.  Derived tables (subfield codes,
    subfield index tables with their trace by exponent, Gram entries, phi
    tables, class censuses) are memoized on the instance, so they live
    exactly as long as the field.  No trace is kept by code: :meth:`trace`
    sums the conjugates of one element.
    """

    # exp[i] = the code of pi**i, log[code] = i (log[0] = -1) and
    # zech[i] = log(1 + pi**i), built on their first read (_build_tables).
    exp, log, zech = _BuiltOnRead(), _BuiltOnRead(), _BuiltOnRead()

    def __init__(self, p: int, m: int, modulus: Polynomial, primitive: int) -> None:
        self.p = p
        self.m = m
        self.order = p**m
        self.n = self.order - 1  # size of the multiplicative group
        self.modulus = modulus
        self.primitive_element = primitive
        self._memo: dict = {}
        self.reducer = Reducer(modulus)
        if not _is_primitive(self.reducer, primitive, prime_factors(self.n)):
            raise InternalInconsistency("primitive element order mismatch")
        self.neg_one = p - 1  # the GF(p) codes of -1 and of 1/2
        self.half = (p + 1) // 2
        # The scalar methods read the tables under these names.  A name that
        # the class also holds, as exp does, is read about 12 ns slower on
        # CPython 3.11, which cannot specialize it.
        self._exp, self._log, self._zech = (_Unbuilt(self, t) for t in ("exp", "log", "zech"))

    def _build_tables(self) -> None:
        """Walk the powers of pi into exp and log, then zech, under both names of each."""
        p = self.p
        exp, log = _exp_log(p, self.m, self.modulus, self.primitive_element)
        # Adding 1 changes digit 0 only.  The entry at n/2 is log(0) = -1,
        # since pi**(n/2) = -1 (p odd, so n is even).
        zech = array("q", (log[e - e % p + (e + 1) % p] for e in exp))
        self.exp = self._exp = exp
        self.log = self._log = log
        self.zech = self._zech = zech

    def memoized(self, key, compute: Callable[[], T]) -> T:
        """compute(), evaluated once per key for this field."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- basic element arithmetic on codes ---------------------------------

    def coeffs(self, a: int) -> list[int]:
        """Base-p digits of a code (length m, ascending)."""
        return _digits(a, self.p, self.m)

    def encode(self, digits) -> int:
        acc = 0
        for d in reversed(list(digits)):
            acc = acc * self.p + d % self.p
        return acc

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % self.n]
        return 0 if z < 0 else self._exp[(la + z) % self.n]

    def neg(self, a: int) -> int:
        return self._exp[(self._log[a] + self.n // 2) % self.n] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self.n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[(-self._log[a]) % self.n]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % self.n]

    def frobenius(self, a: int, j: int = 1) -> int:
        """a**(p**j)."""
        if a == 0:
            return 0
        return self._exp[(self._log[a] * pow(self.p, j, self.n)) % self.n]

    # -- traces, subfields, characters --------------------------------------

    def trace(self, a: int, l: int = 1) -> int:
        """Tr_l^m(a) = sum of a**(p**(l*i)); lands in the subfield GF(p**l)."""
        if l < 1 or self.m % l:
            raise NotADivisor(f"l={l} does not divide m={self.m}")
        total = t = a
        for _ in range(self.m // l - 1):
            t = self.frobenius(t, l)
            total = self.add(total, t)
        return total

    def subfield(self, d: int) -> tuple[int, ...]:
        """Sorted codes of the subfield GF(p**d) inside this field."""
        if d < 1 or self.m % d:
            raise NotADivisor(f"d={d} does not divide m={self.m}")

        def codes() -> tuple[int, ...]:
            step = self.n // (self.p**d - 1)
            found = {0} | {self._exp[(j * step) % self.n] for j in range(self.p**d - 1)}
            return tuple(sorted(found))

        return self.memoized(("subfield", d), codes)

    def subfield_index_tables(self, d: int) -> SubfieldIndexTables:
        """The :class:`SubfieldIndexTables` of GF(p**d), memoized.

        Refuses a subfield of more than SUBFIELD_INDEX_BUDGET elements
        (BudgetExceeded).  This is the one place where traces are tabulated
        and kept.  Tr_d^m is GF(p)-linear, so the code c p**j + r (r < p**j)
        maps to Tr_d^m(r) + c Tr_d^m(x**j), from the m conjugate sums
        Tr_d^m(x**j).  The table of subfield indices by code grows by one
        bytes.translate per digit j and multiplier c, through the row of the
        add table at the index of c Tr_d^m(x**j); only its values read along
        exp are kept, one byte per element.  A value outside GF(p**d), in the
        tables or in a basis trace, raises InternalInconsistency.  The scalar
        Gram path asks for the tables on every call, so a hit builds nothing,
        not even a closure.
        """
        key = ("subfield_index_tables", d)
        if key in self._memo:
            return self._memo[key]
        p, codes = self.p, self.subfield(d)
        check_budget("subfield index tables", len(codes), "elements", None, SUBFIELD_INDEX_BUDGET)
        index = {c: i for i, c in enumerate(codes)}

        def table(op: Callable[[int, int], int]) -> list[list[int]]:
            return [[index[op(a, b)] for b in codes] for a in codes]

        try:
            add, sub, mul = table(self.add), table(self.sub), table(self.mul)
            inv = [0] + [index[self.inv(a)] for a in codes[1:]]
        except KeyError:
            raise InternalInconsistency(f"a table entry left GF({p}^{d})") from None
        try:
            images = [index[self.trace(p**j, d)] for j in range(self.m)]  # x**j is code p**j
        except KeyError:
            raise InternalInconsistency(f"a trace left GF({p}^{d})") from None
        # translate needs 256-byte tables; indices stay below q <= 256.
        rows = [bytes(row).ljust(256, b"\0") for row in add]
        by_code = bytes(1)  # the index of Tr_d^m(0) = 0; GF(p) codes are indices 0..p-1
        for image in images:
            by_code += b"".join(by_code.translate(rows[mul[c][image]]) for c in range(1, p))
        self._memo[key] = tables = SubfieldIndexTables(
            codes=codes,
            index=index,
            add=add,
            sub=sub,
            mul=mul,
            inv=inv,
            chi=[1] + [self.quadratic_character(a, d) for a in codes[1:]],
            trace_of_power=bytes(map(by_code.__getitem__, self.exp)),
        )
        return tables

    def in_subfield(self, a: int, d: int) -> bool:
        if a == 0:
            return True
        return self._log[a] % (self.n // (self.p**d - 1)) == 0

    def quadratic_character(self, a: int, d: int | None = None) -> int:
        """+1 if a is a nonzero square in GF(p**d), -1 otherwise.

        Computed as a**((p**d - 1)/2) inside this field; a must be a nonzero
        element of the designated subfield (default: the whole field).
        """
        if a == 0:
            raise ZeroArgument("quadratic character of zero")
        if d is None:
            d = self.m
        if not self.in_subfield(a, d):
            raise ParameterError(f"code {a} is not in the subfield GF({self.p}^{d})")
        r = (self._log[a] * ((self.p**d - 1) // 2)) % self.n
        if r == 0:
            return 1
        if r == self.n // 2:
            return -1
        raise InternalInconsistency("character power escaped {1, -1}")

    # -- minimal polynomials ------------------------------------------------

    def minimal_polynomial(self, a: int) -> Polynomial:
        """Monic minimal polynomial of a over GF(p).

        The product of (x - c) over the distinct Frobenius conjugates c of a;
        its degree divides m and it divides x**(p**m) - x.
        """
        orbit, t = [], a
        while True:
            orbit.append(t)
            t = self.frobenius(t)
            if t == a:
                break
        # Coefficients live in the big field during the product, then must
        # collapse into the prime subfield (codes < p).
        coeffs = [1]
        for c in orbit:
            nc = self.neg(c)
            nxt = [0] * (len(coeffs) + 1)
            for i, cc in enumerate(coeffs):
                nxt[i + 1] = self.add(nxt[i + 1], cc)
                nxt[i] = self.add(nxt[i], self.mul(cc, nc))
            coeffs = nxt
        if any(c >= self.p for c in coeffs):
            raise InternalInconsistency("minimal polynomial left GF(p)")
        return Polynomial(self.p, coeffs)

    def __repr__(self) -> str:
        return (
            f"FiniteField(p={self.p}, m={self.m}, modulus={self.modulus}, "
            f"pi={self.primitive_element})"
        )


def build_field(
    p: int,
    m: int,
    *,
    modulus_index: int = 0,
    primitive_index: int = 0,
) -> FiniteField:
    """Construct GF(p**m) deterministically.

    The modulus is the (modulus_index)-th smallest monic irreducible of
    degree m (index 0 by default, giving the lexicographically smallest);
    the primitive element is likewise the (primitive_index)-th smallest code
    of multiplicative order p**m - 1.  The nonzero indices exist as test
    hooks for modulus/primitive-independence checks; an index past the
    count of irreducibles (or of primitive elements) is refused unsearched.
    The checks run in this order: m >= 1, the size gate, the table budget
    (DegreeTooLarge, before the trial division of is_prime), p an odd prime,
    then the two indices.  The modulus search runs is_irreducible on each
    candidate (a root test, then Rabin's test on a Reducer of the
    candidate); the primitive search runs the order tests of _is_primitive
    on one Reducer of the modulus, and the field builds its own to check pi.
    """
    if m < 1:
        raise ParameterError(f"m must be positive, got {m}")
    check_field_size(p, m)
    check_budget("field tables", p**m, "elements", None, DEFAULT_TABLE_BUDGET, DegreeTooLarge)
    if not is_prime(p) or p == 2:
        raise NotOddPrime(f"p must be an odd prime, got {p}")
    check_modulus_index(p, m, modulus_index)
    if primitive_index < 0:
        raise ParameterError(f"primitive_index must be nonnegative, got {primitive_index}")

    n = p**m - 1
    primes = prime_factors(n)
    if primitive_index >= n // prod(primes) * prod(ell - 1 for ell in primes):  # phi(n)
        raise ParameterError(f"fewer than {primitive_index + 1} primitive elements")

    modulus = next(islice(irreducible_polynomials(p, m), modulus_index, None))
    reducer = Reducer(modulus)
    primitives = (g for g in range(1, p**m) if _is_primitive(reducer, g, primes))
    return FiniteField(p, m, modulus, next(islice(primitives, primitive_index, None)))


def _is_primitive(reducer: Reducer, g: int, primes: list[int]) -> bool:
    """Whether the code g has multiplicative order n = p**m - 1 modulo the reducer's modulus.

    primes are the prime factors of n, 2 first.  g**n is the square of
    g**(n/2), and g**n != 1 means the modulus is reducible
    (InternalInconsistency).  Every power is taken on the packed residues
    of the reducer.
    """
    p, m = reducer.p, reducer.m
    n, one = p**m - 1, reducer.one
    first, *rest = primes
    candidate = reducer.pack_residue(_digits(g, p, m))
    head = reducer.pow(candidate, n // first)
    if reducer.pow(head, first) != one:
        raise InternalInconsistency("modulus is not irreducible")
    return head != one and all(reducer.pow(candidate, n // ell) != one for ell in rest)
