"""Exact arithmetic in GF(p**m) for odd p.

Elements are integer *codes* in [0, p**m): the base-p digits of a code are
the coefficients of the element in the polynomial basis, so code 0 is the
additive identity and code 1 the multiplicative identity.  A field carries
a fixed monic irreducible modulus (the lexicographically smallest one, so
rebuilding the same (p, m) is bit-for-bit reproducible), a fixed primitive
element pi (the smallest code of multiplicative order p**m - 1), and the
eager exp, log and zech tables used by every hot path.

There is one arithmetic.  :class:`Polynomial` modulo the modulus finds pi
and the images of the basis x**j under multiplication by pi.  That map is
GF(p)-linear, so it is tabulated on the low and the high half of a code's
digits, and the walk over the powers of pi that gives the exp/log tables
costs two divmods and four lookups per element.  After that every
operation is a table lookup.  Multiplication adds logarithms, and addition
uses Zech logarithms, zech[i] = log(1 + pi**i), since a + b = a (1 + b/a).
The trace to a subfield is GF(p)-linear too, so the one trace table kept,
Tr_d(pi**e) by exponent e, is tabulated from the traces of the basis x**j
in subfield indices, one bytes.translate per digit and multiplier through
a row of the subfield add table; a single trace is a sum of Frobenius
conjugates.

The module also houses polynomials over GF(p) (needed for moduli, minimal
polynomials and the parity-check polynomial h1 h2 of the cyclic code; the
generator is read off traces, not divided out, see codes.build_code), the
trace maps to arbitrary subfields, the quadratic character of a subfield,
and the 2-adic valuation used by the parameter case split.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations, islice
from math import prod
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

# Largest field (in elements) whose tables are built.  exp, log and zech take
# 24 bytes per element; build_code peaks near 45 bytes per element (RSS,
# CPython 3.11: 34 MiB at 3^12, 69 MiB at 3^13), so 2^21 elements bounds it
# near 100 MiB: 3^13 is built and 3^14 (about 200 MiB) and larger are
# refused.
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

    def gcd(self, other: Polynomial) -> Polynomial:
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        inv_lead = pow(a.coeffs[-1], -1, self.p)
        return Polynomial(self.p, [c * inv_lead for c in a.coeffs])

    def pow_mod(self, e: int, mod: Polynomial) -> Polynomial:
        result = Polynomial.one(self.p)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

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


def is_irreducible(f: Polynomial) -> bool:
    """Rabin's irreducibility criterion over GF(p).

    f of degree m is irreducible iff x**(p**m) == x (mod f) and, for each
    prime l dividing m, gcd(x**(p**(m/l)) - x, f) is constant.  The gcd test
    is required: a mere "x**(p**(m/l)) != x mod f" check misses reducible
    polynomials whose factor degrees divide different m/l (e.g. degrees
    1+2+3 at m=6).
    """
    p, m = f.p, f.degree
    if m < 1 or not f.is_monic:
        return False
    if m == 1:
        return True
    x = Polynomial.x(p)
    for ell in prime_factors(m):
        h = x.pow_mod(p ** (m // ell), f) - x
        if h.gcd(f).degree != 0:
            return False
    return x.pow_mod(p**m, f) == x % f


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
    lookups.  All six tables are int64 arrays.

    Raises InternalInconsistency unless pi is primitive.
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
    # pi is primitive iff its first n powers are all the nonzero codes.
    if -1 in islice(log, 1, None):
        raise InternalInconsistency("primitive element order mismatch")
    return exp, log


@dataclass(frozen=True, eq=False)
class SubfieldIndexTables:
    """GF(q) = GF(p**d) arithmetic on indices 0..q-1 (index i is codes[i]; 0 is zero).

    The scalar Gram path (quadforms.gram_matrix, quadforms.diagonalize) reads
    these lists and the batched kernels read numpy copies of them
    (batch.subfield_tables, batch.read_table).  trace_of_power is the
    field's only trace table, indexed by the exponent of pi; at d = 1 the
    index is the trace value itself, since the codes of GF(p) are 0..p-1.
    """

    codes: tuple[int, ...]     # index -> field code, ascending
    index: dict[int, int]      # field code -> index, for the q subfield codes only
    add: list[list[int]]       # (q, q)
    sub: list[list[int]]       # (q, q)
    mul: list[list[int]]       # (q, q)
    inv: list[int]             # inv[0] = 0 sentinel
    chi: list[int]             # quadratic character of GF(q), chi[0] = 1 sentinel
    trace_of_power: bytes      # index of Tr_d^m(pi**e) for e in [0, p**m - 1)


class FiniteField:
    """GF(p**m) with a fixed modulus, primitive element and eager tables.

    Construct through :func:`build_field`.  The exp and log tables come
    from one walk over the powers of the primitive element, which must be
    primitive (else InternalInconsistency).  All arithmetic is on integer
    codes through the int64 exp, log and zech arrays, never written after
    construction; numpy reads them in place (batch.field_table).  Derived
    tables (subfield codes, subfield index tables with their trace by
    exponent, Gram entries, phi tables, class censuses) are memoized on the
    instance, so they live exactly as long as the field.  No trace is kept
    by code: :meth:`trace` sums the conjugates of one element.
    """

    def __init__(self, p: int, m: int, modulus: Polynomial, primitive: int) -> None:
        self.p = p
        self.m = m
        self.order = p**m
        self.n = self.order - 1  # size of the multiplicative group
        self.modulus = modulus
        self.primitive_element = primitive
        self._memo: dict = {}

        self.exp, self.log = exp, log = _exp_log(p, m, modulus, primitive)
        # zech[i] = log(1 + pi**i): adding 1 changes digit 0 only.  The entry
        # at n/2 is log(0) = -1, since pi**(n/2) = -1 (p odd, so n is even).
        self.zech = array("q", (log[e - e % p + (e + 1) % p] for e in exp))
        self.neg_one = exp[self.n // 2]
        self.half = self.inv(2)

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
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % self.n]
        return 0 if z < 0 else self.exp[(la + z) % self.n]

    def neg(self, a: int) -> int:
        return self.exp[(self.log[a] + self.n // 2) % self.n] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self.exp[(-self.log[a]) % self.n]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % self.n]

    def frobenius(self, a: int, j: int = 1) -> int:
        """a**(p**j)."""
        if a == 0:
            return 0
        return self.exp[(self.log[a] * pow(self.p, j, self.n)) % self.n]

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
            found = {0} | {self.exp[(j * step) % self.n] for j in range(self.p**d - 1)}
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
        return self.log[a] % (self.n // (self.p**d - 1)) == 0

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
        r = (self.log[a] * ((self.p**d - 1) // 2)) % self.n
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
    then the two indices.
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
    first, *rest = primes = prime_factors(n)  # n is even, so first == 2
    if primitive_index >= n // prod(primes) * prod(ell - 1 for ell in primes):  # phi(n)
        raise ParameterError(f"fewer than {primitive_index + 1} primitive elements")

    modulus = next(islice(irreducible_polynomials(p, m), modulus_index, None))
    one = Polynomial.one(p)

    def is_primitive(g: int) -> bool:
        candidate = Polynomial(p, _digits(g, p, m))
        # candidate**n is the first-th power of candidate**(n/first).
        head = candidate.pow_mod(n // first, modulus)
        if head.pow_mod(first, modulus) != one:
            raise InternalInconsistency("modulus is not irreducible")
        return head != one and all(candidate.pow_mod(n // ell, modulus) != one for ell in rest)

    primitive = next(islice(filter(is_primitive, range(1, p**m)), primitive_index, None))
    return FiniteField(p, m, modulus, primitive)
