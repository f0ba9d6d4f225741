"""Exact evaluation of the two character sums T and S in Z[zeta_p].

T(alpha, beta) sums zeta_p**Tr(alpha x**(p**k+1) + beta x**2) over the whole
field; S(alpha, beta) adds the twisted companion T(pi**((p**k+1)/2) alpha,
-pi beta).  Every value is computed exactly, either

* directly, as a vector of integer coefficients in the basis
  {1, zeta, ..., zeta**(p-2)} of Z[zeta_p] (no floating point anywhere), or
* through the quadratic-form fast path: diagonalize the Gram matrix, read
  rank r and discriminant character eps, and emit the closed value
  eps * G**r * q**(s-r), where G is the quadratic Gauss sum of GF(q).

The two routes are symbolically different but must agree element-by-element;
the test suite checks this exhaustively on small fields.  Symbolic values
are A + B*sqrt(q*) with q* = (-1)**((q-1)/2) q, and sqrt(q*) is pinned to
the canonical cyclotomic representative g_p * p**((d-1)/2) (odd d), so
symbolic-vs-direct comparisons are exact.

The module also houses the closed-form value distributions of T and S, the
solution counts E1/E2 of the two overdetermined systems, and the power-sum
identity checks that the S-distribution rests on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import (
    InexactDivision,
    InternalInconsistency,
    NonRationalSum,
    ParameterError,
    UnsupportedCase,
    check_budget,
)
from .gf import FiniteField
from .quadforms import (
    Case,
    CodeParams,
    diagonalize,
    gauss_sum_parts,
    gram_matrix,
    twist_pair,
)

DEFAULT_E1_BUDGET = 50_000_000       # (x, y) pairs
DEFAULT_E2_BUDGET = 1_000_000        # (x, y, z) triples (p**m <= 100 or so)


class CyclotomicInteger:
    """An element of Z[zeta_p] in the basis {1, zeta, ..., zeta**(p-2)}.

    The missing power zeta**(p-1) is eliminated through
    1 + zeta + ... + zeta**(p-1) = 0, which makes the representation unique.
    All arithmetic is exact integer arithmetic followed by that reduction.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs) -> None:
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != p - 1:
            raise ParameterError(f"need {p - 1} coefficients, got {len(cs)}")
        self.p = p
        self.coeffs = cs

    @classmethod
    def zero(cls, p: int) -> CyclotomicInteger:
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_int(cls, p: int, n: int) -> CyclotomicInteger:
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def from_counts(cls, p: int, counts) -> CyclotomicInteger:
        """sum counts[j] * zeta**j for j in [0, p)."""
        last = counts[p - 1]
        return cls(p, tuple(counts[j] - last for j in range(p - 1)))

    @classmethod
    def root_power(cls, p: int, j: int) -> CyclotomicInteger:
        counts = [0] * p
        counts[j % p] = 1
        return cls.from_counts(p, counts)

    def __add__(self, other: CyclotomicInteger) -> CyclotomicInteger:
        return CyclotomicInteger(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: CyclotomicInteger) -> CyclotomicInteger:
        return CyclotomicInteger(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> CyclotomicInteger:
        return CyclotomicInteger(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> CyclotomicInteger:
        if isinstance(other, int):
            return CyclotomicInteger(self.p, tuple(a * other for a in self.coeffs))
        p = self.p
        conv = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[(i + j) % p] += a * b
        return CyclotomicInteger.from_counts(p, conv)

    __rmul__ = __mul__

    def galois(self, t: int) -> CyclotomicInteger:
        """The automorphism zeta -> zeta**t (t coprime to p)."""
        counts = [0] * self.p
        for i, c in enumerate(self.coeffs):
            counts[(i * t) % self.p] += c
        return CyclotomicInteger.from_counts(self.p, counts)

    def conjugate(self) -> CyclotomicInteger:
        """Complex conjugation zeta -> zeta**(-1) (coefficient reversal)."""
        return self.galois(self.p - 1)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> int:
        if not self.is_rational:
            raise NonRationalSum(f"{self!r} is not rational")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclotomicInteger)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicInteger(p={self.p}, {list(self.coeffs)})"


def gauss_sum(p: int) -> CyclotomicInteger:
    """g_p = sum over GF(p) of zeta_p**(x**2); satisfies g_p**2 = p*."""
    counts = [0] * p
    for x in range(p):
        counts[x * x % p] += 1
    return CyclotomicInteger.from_counts(p, counts)


@dataclass(frozen=True)
class SymbolicSumValue:
    """The value rational + irrational*sqrt(q*) with q = p**d.

    For even d, sqrt(q*) = p**(d/2) is rational and is folded into the
    rational part (so irrational = 0); that makes the two parts canonical,
    so values hash, merge and compare by them.  Construct through
    :meth:`from_parts`.  The paper's form (a + b*sqrt(q*)) * p**e is only
    the display of :meth:`__str__`.
    """

    p: int
    d: int
    rational: int
    irrational: int

    @classmethod
    def from_parts(cls, p: int, d: int, rational: int, irrational: int = 0) -> SymbolicSumValue:
        if d % 2 == 0:
            return cls(p, d, rational + irrational * p ** (d // 2), 0)
        return cls(p, d, rational, irrational)

    @property
    def q_star(self) -> int:
        q = self.p**self.d
        return q if (q - 1) // 2 % 2 == 0 else -q

    def expanded(self) -> tuple[int, int]:
        """(rational, irrational): value = rational + irrational*sqrt(q*)."""
        return self.rational, self.irrational

    def __add__(self, other: SymbolicSumValue) -> SymbolicSumValue:
        if (self.p, self.d) != (other.p, other.d):
            raise ParameterError("cannot add values from different contexts")
        return SymbolicSumValue(
            self.p, self.d, self.rational + other.rational, self.irrational + other.irrational
        )

    def __neg__(self) -> SymbolicSumValue:
        return SymbolicSumValue(self.p, self.d, -self.rational, -self.irrational)

    @property
    def is_rational(self) -> bool:
        return self.irrational == 0

    def rational_value(self) -> int:
        if self.irrational:
            raise NonRationalSum(f"{self} has an irrational part")
        return self.rational

    def cyclotomic(self) -> CyclotomicInteger:
        """Exact image in Z[zeta_p] under sqrt(q*) -> g_p * p**((d-1)/2)."""
        out = CyclotomicInteger.from_int(self.p, self.rational)
        if self.irrational:
            root = gauss_sum(self.p) * (self.p ** ((self.d - 1) // 2))
            out = out + root * self.irrational
        return out

    def embedding(self) -> complex:
        """Floating-point display value (never used in comparisons)."""
        qs = self.q_star
        root = complex(0, abs(qs) ** 0.5) if qs < 0 else complex(abs(qs) ** 0.5)
        return self.rational + self.irrational * root

    def __str__(self) -> str:
        """The paper's form (a + b*sqrt(q*))*p^e, e the largest power of p dividing both parts."""
        a, b, e = self.rational, self.irrational, 0
        if b == 0:
            return str(a)
        while a % self.p == 0 and b % self.p == 0:
            a, b, e = a // self.p, b // self.p, e + 1
        core = f"({a} {'+' if b >= 0 else '-'} {abs(b)}*sqrt({self.q_star}))"
        return core if e == 0 else f"{core}*{self.p}^{e}"


def subfield_gauss_sum(p: int, d: int) -> SymbolicSumValue:
    """The quadratic Gauss sum G of GF(p**d), exactly (quadforms.gauss_sum_parts)."""
    return SymbolicSumValue.from_parts(p, d, *gauss_sum_parts(p, d))


def t_value(params: CodeParams, r: int, eps: int) -> SymbolicSumValue:
    """Closed value of T for a form of rank r and discriminant character eps.

    T = eps * G**r * q**(s-r) with G the subfield Gauss sum
    (CodeParams.gauss_sum); rank 0 (the zero form, i.e. the (0,0) pair)
    gives p**m.
    """
    p, d, q, s = params.p, params.d, params.q, params.s
    core = eps * q ** (s - r) * params.q_star ** (r // 2)
    if r % 2 == 0:
        return SymbolicSumValue.from_parts(p, d, core)
    rational, irrational = params.gauss_sum
    return SymbolicSumValue.from_parts(p, d, core * rational, core * irrational)


class ValueDistribution:
    """A sorted multiset of (SymbolicSumValue, frequency) rows."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        self.rows = tuple(sorted(rows, key=lambda rf: rf[0].expanded()))

    @classmethod
    def from_pairs(cls, pairs) -> ValueDistribution:
        """Build from (value, frequency) pairs, merging equal values."""
        merged: Counter[SymbolicSumValue] = Counter()
        for value, freq in pairs:
            merged[value] += freq
        return cls(rf for rf in merged.items() if rf[1])

    @property
    def total(self) -> int:
        return sum(f for _, f in self.rows)

    def weighted_sum(self) -> tuple[int, int]:
        """sum freq * value, as (rational, irrational)."""
        return (
            sum(f * v.rational for v, f in self.rows),
            sum(f * v.irrational for v, f in self.rows),
        )

    def cyclotomic_counts(self) -> dict[CyclotomicInteger, int]:
        return {v.cyclotomic(): f for v, f in self.rows}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueDistribution):
            return NotImplemented
        return dict(self.rows) == dict(other.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {f}" for v, f in self.rows)
        return f"ValueDistribution({inner})"


# -- the sums themselves ----------------------------------------------------


def t_direct(field: FiniteField, params: CodeParams, alpha: int, beta: int) -> CyclotomicInteger:
    """T(alpha, beta) by full enumeration of the field.

    Counts how often each trace value in [0, p) occurs, then reduces the
    counts to a cyclotomic vector once: O(p**m) field operations and O(p)
    vector work.
    """
    params.check_field(field)
    p = params.p
    counts = [0] * p
    tr = field.subfield_index_tables(1).trace_of_power  # the value Tr(pi**j) at index j
    n, exp, log = field.n, field.exp, field.log
    add = field.add
    e1 = 2 * params.twist_exponent
    la = log[alpha] if alpha else -1
    lb = log[beta] if beta else -1
    counts[0] += 1  # x = 0 contributes trace 0
    for t in range(n):
        u = exp[(la + t * e1) % n] if la >= 0 else 0
        w = exp[(lb + 2 * t) % n] if lb >= 0 else 0
        total = add(u, w)
        counts[tr[log[total]] if total else 0] += 1
    return CyclotomicInteger.from_counts(p, counts)


def t_fast(field: FiniteField, params: CodeParams, alpha: int, beta: int) -> SymbolicSumValue:
    """T(alpha, beta) through Gram diagonalization (O(s**3) subfield ops)."""
    r, eps = diagonalize(field, params.d, gram_matrix(field, params, alpha, beta))
    return t_value(params, r, eps)


def s_direct(field: FiniteField, params: CodeParams, alpha: int, beta: int) -> CyclotomicInteger:
    a2, b2 = twist_pair(field, params, alpha, beta)
    return t_direct(field, params, alpha, beta) + t_direct(field, params, a2, b2)


def s_fast(field: FiniteField, params: CodeParams, alpha: int, beta: int) -> SymbolicSumValue:
    a2, b2 = twist_pair(field, params, alpha, beta)
    return t_fast(field, params, alpha, beta) + t_fast(field, params, a2, b2)


# -- closed-form value distributions ----------------------------------------


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InexactDivision(f"{num} / {den} is not exact")
    return q


def t_distribution_closed(params: CodeParams) -> ValueDistribution:
    """The closed-form value distribution of T over all p**(2m) pairs.

    One table for odd s, one for even s; frequencies must sum to p**(2m)
    (self-checked).  The two signs of an irrational row always share one
    frequency; the rational rows for even rank do not.
    """
    p, m, d, q, s = params.p, params.m, params.d, params.q, params.s
    pm = p**m

    def rat(value: int) -> SymbolicSumValue:
        return SymbolicSumValue.from_parts(p, d, value)

    def irr(units: int) -> SymbolicSumValue:
        return SymbolicSumValue.from_parts(p, d, 0, units)

    rows: list[tuple[SymbolicSumValue, int]] = [(rat(pm), 1)]
    if s % 2:
        f_full = _exact_div(
            p ** (2 * d)
            * (pm - p ** (m - d) - p ** (m - 2 * d) + 1)
            * (pm - 1),
            2 * (p ** (2 * d) - 1),
        )
        rows += [(irr(q ** ((s - 1) // 2)), f_full), (irr(-(q ** ((s - 1) // 2))), f_full)]
        h = p ** ((m - d) // 2)
        rows += [
            (rat(p ** ((m + d) // 2)), _exact_div(h * (h + 1) * (pm - 1), 2)),
            (rat(-(p ** ((m + d) // 2))), _exact_div(h * (h - 1) * (pm - 1), 2)),
        ]
        f_low = _exact_div((p ** (m - d) - 1) * (pm - 1), 2 * (p ** (2 * d) - 1))
        rows += [(irr(q ** ((s + 1) // 2)), f_low), (irr(-(q ** ((s + 1) // 2))), f_low)]
    else:
        root = p ** (m // 2)
        common = pm - p ** (m - d) - p ** (m - 2 * d)
        rows += [
            (
                rat(root),
                _exact_div(
                    p ** (2 * d)
                    * (common + root - p ** (m // 2 - d) + 1)
                    * (pm - 1),
                    2 * (p ** (2 * d) - 1),
                ),
            ),
            (
                rat(-root),
                _exact_div(
                    p ** (2 * d)
                    * (common - root + p ** (m // 2 - d) + 1)
                    * (pm - 1),
                    2 * (p ** (2 * d) - 1),
                ),
            ),
        ]
        f_mid = _exact_div(p ** (m - d) * (pm - 1), 2)
        rows += [(irr(q ** (s // 2)), f_mid), (irr(-(q ** (s // 2))), f_mid)]
        rows += [
            (
                rat(p ** (m // 2 + d)),
                _exact_div(
                    (root - 1) * (p ** (m // 2 - d) + 1) * (pm - 1),
                    2 * (p ** (2 * d) - 1),
                ),
            ),
            (
                rat(-(p ** (m // 2 + d))),
                _exact_div(
                    (root + 1) * (p ** (m // 2 - d) - 1) * (pm - 1),
                    2 * (p ** (2 * d) - 1),
                ),
            ),
        ]
    dist = ValueDistribution.from_pairs(rows)
    if dist.total != pm * pm:
        raise InternalInconsistency("T distribution frequencies do not sum to p^2m")
    return dist


def s_distribution_closed(params: CodeParams) -> ValueDistribution:
    """The closed-form value distribution of S over all p**(2m) pairs.

    Only the two supported case families have closed forms.  Rows written
    with paired signs bind top-with-top; rows whose values coincide
    numerically (which happens, e.g. (p**d - 1) = 2 makes the
    (p**d-1)p**(m/2) and 2p**(m/2) rows collide) are merged.
    """
    if not params.has_closed_forms:
        raise UnsupportedCase(f"no closed S distribution for case {params.case}")
    p, m, d = params.p, params.m, params.d
    pm = p**m
    root = p ** (m // 2)

    def rat(value: int) -> SymbolicSumValue:
        return SymbolicSumValue.from_parts(p, d, value)

    def mixed(rational: int, irrational: int) -> SymbolicSumValue:
        return SymbolicSumValue.from_parts(p, d, rational, irrational)

    zero_freq = _exact_div(
        (p ** (m + d) - 3 * pm + p**d + 1) * (pm - 1), 2 * (p**d - 1)
    )
    rows: list[tuple[SymbolicSumValue, int]] = [(rat(2 * pm), 1), (rat(0), zero_freq)]

    if params.case is Case.CASE_A:
        f_edge = _exact_div((p ** (m - d) - 1) * (pm - 1), p ** (2 * d) - 1)
        rows += [(rat((p**d - 1) * root), f_edge), (rat(-((p**d - 1) * root)), f_edge)]
        h = p ** ((m - d) // 2)
        rt = p ** (d // 2)  # sqrt(q*) = p**(d/2), rational: d is even in CaseA
        f_minus = _exact_div(h * (h - 1) * (pm - 1), 2)
        f_plus = _exact_div(h * (h + 1) * (pm - 1), 2)
        rows += [
            (rat((1 - rt) * root), f_minus),
            (rat((-1 - rt) * root), f_minus),
            (rat((1 + rt) * root), f_plus),
            (rat((-1 + rt) * root), f_plus),
        ]
        f_two = _exact_div((p**d - 1) * (pm * pm - 1), 4 * (p**d + 1))
        rows += [(rat(2 * root), f_two), (rat(-2 * root), f_two)]
    else:
        half = p ** (m // 2 - d)
        den = p ** (2 * d) - 1
        rows += [
            (rat((p**d - 1) * root), _exact_div((half + 1) * (root - 1) * (pm - 1), den)),
            (rat(-((p**d - 1) * root)), _exact_div((half - 1) * (root + 1) * (pm - 1), den)),
        ]
        f_minus = _exact_div(half * (root - 1) * (pm - 1), 2)
        f_plus = _exact_div(half * (root + 1) * (pm - 1), 2)
        rows += [
            (mixed(-root, root), f_minus),   # (+sqrt(q*) - 1) p**(m/2)
            (mixed(-root, -root), f_minus),  # (-sqrt(q*) - 1) p**(m/2)
            (mixed(root, root), f_plus),     # (+sqrt(q*) + 1) p**(m/2)
            (mixed(root, -root), f_plus),    # (-sqrt(q*) + 1) p**(m/2)
        ]
        rows += [
            (rat(2 * root), _exact_div((root + 1) ** 2 * (p**d - 1) * (pm - 1), 4 * (p**d + 1))),
            (rat(-2 * root), _exact_div((root - 1) ** 2 * (p**d - 1) * (pm - 1), 4 * (p**d + 1))),
        ]

    dist = ValueDistribution.from_pairs(rows)
    if dist.total != pm * pm:
        raise InternalInconsistency("S distribution frequencies do not sum to p^2m")
    return dist


# -- enumerated censuses -----------------------------------------------------


def _direct_census(
    field: FiniteField, params: CodeParams, which: str, budget: int | None
) -> dict[CyclotomicInteger, int]:
    from . import batch

    # Every counts vector sums to the number of terms, so distinct vectors
    # are distinct elements of Z[zeta_p].
    census = batch.direct_census(field, params, twisted=which == "S", budget=budget)
    return {CyclotomicInteger.from_counts(params.p, c): n for c, n in census.items()}


def t_census_direct(
    field: FiniteField, params: CodeParams, *, budget: int | None = None
) -> dict[CyclotomicInteger, int]:
    """Census of T over all pairs, budgeted as direct enumeration (p**(3m) terms).

    batch.direct_census takes T(alpha, .) exactly in Z[zeta_p] by one additive
    Fourier transform over GF(p)**m per alpha row, with no Gram matrix and no
    orbit representative, so the census checks the fast route; the scalar
    :func:`t_direct` is its per-pair reference.
    """
    return _direct_census(field, params, "T", budget)


def s_census_direct(
    field: FiniteField, params: CodeParams, *, budget: int | None = None
) -> dict[CyclotomicInteger, int]:
    """Census of S over all pairs, budgeted as 2 p**(3m) terms.

    As :func:`t_census_direct`, with the transform of each twisted alpha
    row read at the twisted betas, shifted by CodeParams.coordinate_exponents.
    """
    return _direct_census(field, params, "S", budget)


def t_census_fast(
    field: FiniteField,
    params: CodeParams,
    *,
    budget: int | None = None,
) -> ValueDistribution:
    """Census of T over all pairs: the f marginal of the joint class census."""
    joint = joint_class_census(field, params, budget=budget)
    return ValueDistribution.from_pairs((t_value(params, *cf), n) for (cf, _), n in joint.items())


def s_census_fast(
    field: FiniteField,
    params: CodeParams,
    *,
    budget: int | None = None,
) -> ValueDistribution:
    """Census of S over all pairs by joining the T class data with its twist."""
    joint = joint_class_census(field, params, budget=budget)
    return ValueDistribution.from_pairs(
        (t_value(params, *cf) + t_value(params, *cg), n) for (cf, cg), n in joint.items()
    )


def joint_class_census(
    field: FiniteField, params: CodeParams, *, budget: int | None = None
) -> dict[tuple[tuple[int, int], tuple[int, int]], int]:
    """Pairs by ((rank_f, eps_f), (rank_g, eps_g)); see batch.t_class_data."""
    from . import batch

    return batch.t_class_data(field, params, budget=budget)


# -- E1 / E2 solution counts -------------------------------------------------


def _power_tables(field: FiniteField, e: int) -> tuple[list[int], list[int]]:
    """x**2 and x**e for every element code x."""
    codes = range(field.order)
    return [field.pow(x, 2) for x in codes], [field.pow(x, e) for x in codes]


def _bucket_join(left, right) -> int:
    """Pairs (l, r) of left x right with l == r: Counter(left) summed over right."""
    buckets = Counter(left)
    return sum(buckets[key] for key in right)


def count_e1(
    field: FiniteField,
    params: CodeParams,
    mode: str = "closed",
    *,
    budget: int | None = None,
) -> int:
    """Solutions (x, y) of x**2 + y**2 = 0 and x**(p**k+1) + y**(p**k+1) = 0.

    Closed form: 2 p**m - 1 under CaseA, and under CaseB when p**k = 1 mod 4;
    1 under CaseB when p**k = 3 mod 4.  Brute mode counts all p**(2m) pairs
    through a value-bucket join on (y**2, y**(p**k+1)).
    """
    p, m, k = params.p, params.m, params.k
    if mode == "closed":
        if params.case is Case.CASE_A:
            return 2 * p**m - 1
        if params.case in (Case.CASE_B_ODD_K, Case.CASE_B_EVEN_K):
            return 2 * p**m - 1 if pow(p, k, 4) == 1 else 1
        raise UnsupportedCase(f"no closed E1 for case {params.case}")
    if mode != "brute":
        raise ParameterError(f"unknown mode {mode!r}")
    params.check_field(field)
    check_budget("E1 brute force", params.pairs, "pairs", budget, DEFAULT_E1_BUDGET)
    squares, highs = _power_tables(field, 2 * params.twist_exponent)
    return _bucket_join(
        zip(squares, highs), ((field.neg(x2), field.neg(xh)) for x2, xh in zip(squares, highs))
    )


def count_e2(
    field: FiniteField,
    params: CodeParams,
    mode: str = "closed",
    *,
    budget: int | None = None,
) -> int:
    """Solutions (x, y, z) of x**2 + y**2 - pi z**2 = 0 and
    x**(p**k+1) + y**(p**k+1) + pi**((p**k+1)/2) z**(p**k+1) = 0.

    Closed form exists only under CaseB: 2 p**m - 1 when p**k = 1 mod 4,
    else 1.  Brute mode joins the p**(2m) pairs (x, y) against all z.
    """
    p, m, k = params.p, params.m, params.k
    if mode == "closed":
        if params.case in (Case.CASE_B_ODD_K, Case.CASE_B_EVEN_K):
            return 2 * p**m - 1 if pow(p, k, 4) == 1 else 1
        raise UnsupportedCase(f"no closed E2 for case {params.case}")
    if mode != "brute":
        raise ParameterError(f"unknown mode {mode!r}")
    params.check_field(field)
    check_budget(
        "E2 brute force", params.pairs * field.order, "triples", budget, DEFAULT_E2_BUDGET
    )
    squares, highs = _power_tables(field, 2 * params.twist_exponent)
    pi = field.primitive_element
    pi_e = field.pow(pi, params.twist_exponent)
    return _bucket_join(
        (
            (field.add(x2, y2), field.add(xh, yh))
            for x2, xh in zip(squares, highs)
            for y2, yh in zip(squares, highs)
        ),
        ((field.mul(pi, z2), field.neg(field.mul(pi_e, zh))) for z2, zh in zip(squares, highs)),
    )


# -- power-sum identities ----------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity: both sides exactly, and the verdict."""

    name: str
    lhs: str
    rhs: str
    passed: bool

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name}: lhs = {self.lhs}, rhs = {self.rhs}"


def _identity_targets(params: CodeParams) -> list[tuple[str, int, str, int]]:
    """(name, S-power, restriction, exact right-hand side) per case.

    restriction is "all", "N1" or "N2"; N-restricted identities come as one
    combined check with the (p**d - 1) / (p**(2d) - 1) weights.
    """
    p, m, d, k = params.p, params.m, params.d, params.k
    pm, pd = p**m, p**d
    if params.case is Case.CASE_A:
        return [
            ("sum S^2 = 4p^3m", 2, "all", 4 * pm**3),
            (
                "weighted N1/N2 sum of S^2",
                2,
                "N",
                pm * (pm - 1) * (2 * pm * pd - 2 * pm + 2 * pd - pd * pd - 1),
            ),
        ]
    if params.case in (Case.CASE_B_ODD_K, Case.CASE_B_EVEN_K):
        one_mod_4 = pow(p, k, 4) == 1
        s3 = (
            2 * pm**2 * (7 * pm - 3) + 2 * pm**2 * pd * (pm - 1)
            if one_mod_4
            else 2 * pm**2 * (pm + 3) + 2 * pm**2 * pd * (pm - 1)
        )
        return [
            ("sum S = 2p^2m", 1, "all", 2 * pm**2),
            ("sum S^2", 2, "all", 4 * pm**3 if one_mod_4 else 4 * pm**2),
            ("sum S^3", 3, "all", s3),
            ("weighted N1/N2 sum of S", 1, "N", pm * (pd - 1) * (pm - 1)),
        ]
    raise UnsupportedCase(f"no closed identities for case {params.case}")


def _fold_moments(params: CodeParams, census) -> dict[tuple[int, str], int]:
    """Sums of S**t per region from ((S in Z[zeta_p], rank of f), pairs) rows.

    Powers are exact products in Z[zeta_p]; every sum must be rational.
    """
    regions = {params.s - 1: "N1", params.s - 2: "N2"}
    zero, one = CyclotomicInteger.zero(params.p), CyclotomicInteger.from_int(params.p, 1)
    sums = {(t, region): zero for t in (1, 2, 3) for region in ("all", "N1", "N2")}
    for (value, rank), count in census:
        power = one
        for t in (1, 2, 3):
            power = power * value
            for region in ("all", regions.get(rank)):
                if region:
                    sums[(t, region)] += power * count
    return {key: total.rational_value() for key, total in sums.items()}


def power_moments(
    field: FiniteField,
    params: CodeParams,
    mode: str,
    *,
    budget: int | None = None,
) -> dict[tuple[int, str], int]:
    """Sums of S**t over all pairs ("all") and over the rank regions.

    Keys are (t, region) for t in {1, 2, 3} and region "all", "N1" (pairs
    whose f has rank s-1) or "N2" (rank s-2); values are the sums, which are
    rational integers (checked).  Both modes fold a census of pairs by (S,
    rank of f), with the powers taken exactly in Z[zeta_p].  mode="direct"
    takes it from batch.direct_census: S from the Fourier transform and the
    rank from the phi-nullity, blocked numpy passes over all pairs that
    share nothing with the Gram path, refusing more than budget 2 p**(3m)
    terms.  mode="fast" takes it from the joint (rank, sign) class census.
    Both are exact and must agree.
    """
    if mode == "fast":
        joint = joint_class_census(field, params, budget=budget)
        census = (
            (((t_value(params, *cf) + t_value(params, *cg)).cyclotomic(), cf[0]), count)
            for (cf, cg), count in joint.items()
        )
    elif mode == "direct":
        from . import batch

        p = params.p
        ranked = batch.direct_census(field, params, twisted=True, ranked=True, budget=budget)
        census = (
            ((CyclotomicInteger.from_counts(p, key[:p]), key[p]), count)
            for key, count in ranked.items()
        )
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    return _fold_moments(params, census)


def verify_power_identities(
    field: FiniteField,
    params: CodeParams,
    mode: str = "auto",
    *,
    budget: int | None = None,
) -> list[IdentityCheck]:
    """Check the case's power-sum identities with exact arithmetic.

    CaseA has two identities (on S**2), CaseB four (on S, S**2, S**3 and the
    rank-restricted first moment), on the sums of :func:`power_moments`,
    which is one fold of an (S, rank) census on either route.
    mode="direct" enumerates every pair; mode="fast" drives everything off
    the joint (rank, sign) class census.  mode="auto" picks direct when its
    2 p**(3m) terms fit both the default direct budget and the caller's
    budget, and fast otherwise.
    """
    targets = _identity_targets(params)
    if mode == "auto":
        from . import batch

        terms = batch.direct_terms(field, twisted=True)
        fits = terms <= batch.DEFAULT_DIRECT_BUDGET and (budget is None or terms <= budget)
        mode = "direct" if fits else "fast"
    sums = power_moments(field, params, mode, budget=budget)

    pd = params.p**params.d
    checks = []
    for name, t, region, rhs in targets:
        if region == "all":
            lhs = sums[(t, "all")]
        else:
            lhs = (pd - 1) * sums[(t, "N1")] + (pd * pd - 1) * sums[(t, "N2")]
        checks.append(IdentityCheck(name=name, lhs=str(lhs), rhs=str(rhs), passed=lhs == rhs))
    return checks
