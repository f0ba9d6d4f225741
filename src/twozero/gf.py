"""Exact arithmetic in GF(p**m) for odd p.

Elements are integer *codes* in [0, p**m): the base-p digits of a code are
the coefficients of the element in the polynomial basis, so code 0 is the
additive identity and code 1 the multiplicative identity.  A field carries
a fixed monic irreducible modulus (the lexicographically smallest one, so
rebuilding the same (p, m) is bit-for-bit reproducible), a fixed primitive
element pi (the smallest code of multiplicative order p**m - 1), and eager
exp/log/trace tables used by every hot path.

The module also houses polynomials over GF(p) (needed for moduli, minimal
polynomials and the generator of the cyclic code), the trace maps to
arbitrary subfields, the quadratic character of a subfield, and the 2-adic
valuation used by the parameter case split.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

from .errors import (
    DegreeTooLarge,
    DivisionByZero,
    InternalInconsistency,
    NotADivisor,
    NotOddPrime,
    ParameterError,
    ZeroArgument,
)

DEFAULT_TABLE_BUDGET = 1 << 24

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
        digits, t = [], low
        for _ in range(m):
            t, r = divmod(t, p)
            digits.append(r)
        f = Polynomial(p, digits + [1])
        if is_irreducible(f):
            yield f


class FiniteField:
    """GF(p**m) with a fixed modulus, primitive element and eager tables.

    Construct through :func:`build_field`.  All arithmetic is on integer
    codes; the tables are immutable after construction.  Derived tables
    (subfield traces, subfield codes, the log array, class data) are
    memoized on the instance, so they live exactly as long as the field.
    """

    def __init__(self, p: int, m: int, modulus: Polynomial, primitive: int) -> None:
        self.p = p
        self.m = m
        self.order = p**m
        self.n = self.order - 1  # size of the multiplicative group
        self.modulus = modulus
        self.primitive_element = primitive
        self._mod_coeffs = modulus.coeffs

        exp = [0] * self.n
        log = [-1] * self.order
        cur = 1
        for i in range(self.n):
            exp[i] = cur
            log[cur] = i
            cur = self._mul_raw(cur, primitive)
        if cur != 1:
            raise InternalInconsistency("primitive element order mismatch")
        self.exp = exp
        self.log = log
        self.neg_one = exp[self.n // 2]  # p odd, so n is even
        self.half = self.inv(2)

        # Tr_1^m as a flat table of values in [0, p).
        frob = [0] * self.order
        for a in range(1, self.order):
            frob[a] = exp[(log[a] * p) % self.n]
        tr = [0] * self.order
        for a in range(self.order):
            acc, t = a, a
            for _ in range(m - 1):
                t = frob[t]
                acc = self.add(acc, t)
            if acc >= p:
                raise InternalInconsistency("trace left the prime subfield")
            tr[a] = acc
        self.trace_table = tr
        self._frob = frob
        self._memo: dict = {}

    def memoized(self, key, compute: Callable[[], T]) -> T:
        """compute(), evaluated once per key for this field."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- basic element arithmetic on codes ---------------------------------

    def coeffs(self, a: int) -> list[int]:
        """Base-p digits of a code (length m, ascending)."""
        out = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def encode(self, digits) -> int:
        acc = 0
        for d in reversed(list(digits)):
            acc = acc * self.p + d % self.p
        return acc

    def add(self, a: int, b: int) -> int:
        p, acc, scale = self.p, 0, 1
        while a or b:
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            acc += (ra + rb) % p * scale
            scale *= p
        return acc

    def neg(self, a: int) -> int:
        p, acc, scale = self.p, 0, 1
        while a:
            a, r = divmod(a, p)
            if r:
                acc += (p - r) * scale
            scale *= p
        return acc

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

    def _mul_raw(self, a: int, b: int) -> int:
        """Table-free multiplication (used only to bootstrap the tables)."""
        p, m = self.p, self.m
        da, db = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * m - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        mod = self._mod_coeffs
        for i in range(len(prod) - 1, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(m):
                    prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
        return self.encode(prod[:m])

    # -- traces, subfields, characters --------------------------------------

    def trace(self, a: int, l: int = 1) -> int:
        """Tr_l^m(a) = sum of a**(p**(l*i)); lands in the subfield GF(p**l)."""
        if l < 1 or self.m % l:
            raise NotADivisor(f"l={l} does not divide m={self.m}")
        if l == 1:
            return self.trace_table[a]
        acc, t = a, a
        for _ in range(self.m // l - 1):
            t = self.frobenius(t, l)
            acc = self.add(acc, t)
        return acc

    def trace_to_table(self, d: int) -> tuple[int, ...]:
        """Tr_d^m for every code, as a flat tuple."""
        return self.memoized(
            ("trace_to_table", d),
            lambda: tuple(self.trace(a, d) for a in range(self.order)),
        )

    def subfield(self, d: int) -> tuple[int, ...]:
        """Sorted codes of the subfield GF(p**d) inside this field."""
        if d < 1 or self.m % d:
            raise NotADivisor(f"d={d} does not divide m={self.m}")

        def codes() -> tuple[int, ...]:
            step = self.n // (self.p**d - 1)
            found = {0} | {self.exp[(j * step) % self.n] for j in range(self.p**d - 1)}
            return tuple(sorted(found))

        return self.memoized(("subfield", d), codes)

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
    max_order: int = DEFAULT_TABLE_BUDGET,
) -> FiniteField:
    """Construct GF(p**m) deterministically.

    The modulus is the (modulus_index)-th smallest monic irreducible of
    degree m (index 0 by default, giving the lexicographically smallest);
    the primitive element is likewise the (primitive_index)-th smallest code
    of multiplicative order p**m - 1.  The nonzero indices exist as test
    hooks for modulus/primitive-independence checks.
    """
    if not is_prime(p) or p == 2:
        raise NotOddPrime(f"p must be an odd prime, got {p}")
    if m < 1:
        raise ParameterError(f"m must be positive, got {m}")
    if p**m > max_order:
        raise DegreeTooLarge(f"p^m = {p**m} exceeds the table budget {max_order}")

    modulus = None
    for i, f in enumerate(irreducible_polynomials(p, m)):
        if i == modulus_index:
            modulus = f
            break
    if modulus is None:
        raise ParameterError(f"fewer than {modulus_index + 1} irreducibles of degree {m}")

    # Bootstrap: raw multiplication against the chosen modulus lets us test
    # element orders before any tables exist.
    shell = object.__new__(FiniteField)
    shell.p, shell.m = p, m
    shell.order, shell.n = p**m, p**m - 1
    shell._mod_coeffs = modulus.coeffs

    n = p**m - 1
    checks = [n // ell for ell in prime_factors(n)] if n > 1 else []

    def pow_raw(a: int, e: int) -> int:
        r, b = 1, a
        while e:
            if e & 1:
                r = FiniteField._mul_raw(shell, r, b)
            b = FiniteField._mul_raw(shell, b, b)
            e >>= 1
        return r

    found = -1
    primitive = None
    for g in range(1, p**m):
        if pow_raw(g, n) != 1:
            raise InternalInconsistency("modulus is not irreducible")
        if all(pow_raw(g, c) != 1 for c in checks):
            found += 1
            if found == primitive_index:
                primitive = g
                break
    if primitive is None:
        raise ParameterError(f"fewer than {primitive_index + 1} primitive elements")

    return FiniteField(p, m, modulus, primitive)
