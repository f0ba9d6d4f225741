"""The cyclic code, its codewords, and three weight-distribution engines.

The code of length n = p**m - 1 has parity-check polynomial h1 * h2, where
h1 and h2 are the minimal polynomials of -pi**(-1) and pi**(-(p**k+1)/2).
Its codewords are the trace sequences

    c_i(alpha, beta) = Tr_1^m(alpha pi**(((p**k+1)/2) i) + beta (-pi)**i)

for i = 0..n-1, so the p**(2m) pairs (alpha, beta) enumerate the code.

Three engines compute the weight distribution:

* brute  -- count nonzero coordinates of the codewords of the orbit
  representatives (see batch), each weighted by its orbit size;
* sums   -- the weight formula p**m - p**(m-1) - (1/2p) sum over u in GF(p)*
  of S(u alpha, u beta), with every constituent T evaluated through the
  quadratic-form fast path.  The per-case simplifications of the u-sum are
  deliberately not used, so this engine is uniform across all cases;
* closed -- the closed-form S value distribution (CaseA and both CaseB
  flavours) read through the same weight formula; the u-sum of an S value
  A + B sqrt(q*) is its Galois sum, which is (p - 1) A; there is no separate
  weight table.

All three must agree exactly; every produced distribution is self-checked
against the code size, the zero-word row and the first power moment
sum w * A_w = n (p-1) p**(2m-1) (valid since no coordinate functional
vanishes identically, which build_code asserts via h1(0), h2(0) != 0).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BudgetExceeded,
    DistinctnessViolated,
    InternalInconsistency,
    NonIntegralWeight,
    UnsupportedCase,
)
from .expsums import (
    SymbolicSumValue,
    joint_class_census,
    s_distribution_closed,
    s_fast,
    t_value,
)
from .gf import FiniteField, Polynomial, build_field
from .quadforms import CodeParams, classify_parameters


@dataclass(frozen=True)
class WeightDistribution:
    """Sorted (weight, frequency) rows plus the engine that produced them."""

    rows: tuple[tuple[int, int], ...]
    source: str

    @classmethod
    def from_counts(cls, counts, source: str) -> WeightDistribution:
        items = counts.items() if isinstance(counts, dict) else counts
        merged: dict[int, int] = {}
        for w, f in items:
            if f:
                merged[w] = merged.get(w, 0) + f
        return cls(rows=tuple(sorted(merged.items())), source=source)

    @property
    def total(self) -> int:
        return sum(f for _, f in self.rows)

    @property
    def min_distance(self) -> int:
        return min(w for w, _ in self.rows if w > 0)

    def first_moment(self) -> int:
        return sum(w * f for w, f in self.rows)

    def as_dict(self) -> dict[int, int]:
        return dict(self.rows)

    def same_rows(self, other: WeightDistribution) -> bool:
        return self.rows == other.rows

    def validate(self, params: CodeParams) -> WeightDistribution:
        """Self-checks: size, zero row, Pless first power moment."""
        p, m, n = params.p, params.m, params.n
        if self.total != params.pairs:
            raise InternalInconsistency(
                f"{self.source}: frequencies sum to {self.total}, not p^2m"
            )
        if self.rows[0] != (0, 1):
            raise InternalInconsistency(f"{self.source}: zero word row is {self.rows[0]}")
        expected = n * (p - 1) * p ** (2 * m - 1)
        if self.first_moment() != expected:
            raise InternalInconsistency(
                f"{self.source}: first moment {self.first_moment()} != {expected}"
            )
        return self


@dataclass(frozen=True)
class CyclicCode:
    """The code together with its field and precomputed coordinate data.

    The generator's n - 2m + 1 coefficients, ascending, are kept as one
    bytes object (m >= 3 under the field-table budget, so p <= 127);
    :attr:`generator` builds the Polynomial only when read.
    """

    params: CodeParams
    field: FiniteField
    h1: Polynomial
    h2: Polynomial
    generator_coefficients: bytes

    @property
    def generator(self) -> Polynomial:
        return Polynomial(self.params.p, self.generator_coefficients)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def dimension(self) -> int:
        return self.params.dimension

    def __repr__(self) -> str:
        pr = self.params
        return f"CyclicCode(p={pr.p}, m={pr.m}, k={pr.k}, n={self.n}, dim={self.dimension})"


def build_code(
    p: int,
    m: int,
    k: int,
    *,
    modulus_index: int = 0,
    primitive_index: int = 0,
) -> CyclicCode:
    """Construct the code for (p, m, k).

    h1 = minpoly(-pi**(-1)) and h2 = minpoly(pi**(-(p**k+1)/2)) must be
    distinct of degree m, their product must divide x**n - 1 exactly, and
    both must have nonzero constant term; all of this is verified.  The
    generator g = (x**n - 1)/(h1 h2) is read off the partial fractions of
    1/(h1 h2), with no polynomial division and no Python object per
    coefficient: two byte runs of the trace table, added as integers and
    reduced mod p by one bytes.translate.  The divisibility check is that
    g h1 h2 == x**n - 1, every coefficient compared, by one exact
    big-integer product (see _check_generator).
    """
    params = classify_parameters(p, m, k)
    field = build_field(p, m, modulus_index=modulus_index, primitive_index=primitive_index)
    pi = field.primitive_element
    n = field.n

    gammas = (field.neg(field.inv(pi)), field.inv(field.pow(pi, params.twist_exponent)))
    h1, h2 = (field.minimal_polynomial(gamma) for gamma in gammas)
    if h1.degree != m or h2.degree != m:
        raise InternalInconsistency(
            f"deg h1 = {h1.degree}, deg h2 = {h2.degree}; both must equal m = {m}"
        )
    if h1 == h2:
        raise DistinctnessViolated("h1 and h2 coincide")
    if h1(0) == 0 or h2(0) == 0:
        raise InternalInconsistency("h1, h2 must have nonzero constant term")

    # h = h1 h2 divides x**n - 1, so g is minus the power series 1/h cut at
    # degree n - 2m.  Partial fractions over the 2m distinct roots rho of h
    # give g_i = sum of rho**(-i) / (rho h'(rho)).  h' has GF(p) coefficients,
    # so the roots conjugate to gamma sum to Tr(c gamma**(-i)) with
    # c = 1/(gamma h'(gamma)): the trace of pi**j at j = log c - i log gamma.
    # A trace is below p <= 127, so the two runs add bytewise with no carry.
    h = h1 * h2
    derivative = [i * c % p for i, c in enumerate(h.coeffs)][1:]
    tr = field.subfield_index_tables(1).trace_of_power  # the value Tr(pi**j) at index j
    total = 0
    for gamma in gammas:
        value = 0  # h'(gamma), by Horner
        for c in reversed(derivative):
            value = field.add(field.mul(value, gamma), c)
        step = -field.log[gamma] % n  # log of 1/gamma
        start = (step - field.log[value]) % n  # log of c
        stop = start + step * (n - 2 * m + 1)
        run = bytes(map(tr.__getitem__, map(n.__rmod__, range(start, stop, step))))
        total += int.from_bytes(run, "little")
    generator = total.to_bytes(n - 2 * m + 1, "little").translate(_residues(p))
    _check_generator(generator, h, n)

    return CyclicCode(params=params, field=field, h1=h1, h2=h2, generator_coefficients=generator)


def _residues(p: int) -> bytes:
    """The bytes.translate table that reduces every byte mod p."""
    return bytes(c % p for c in range(256))


def _check_generator(generator: bytes, h: Polynomial, n: int) -> None:
    """Raise InternalInconsistency unless generator * h == x**n - 1 over GF(h.p).

    generator holds one coefficient per byte, ascending.  One Kronecker
    substitution: each polynomial becomes one integer with a coefficient
    per fixed-width field, wide enough that no coefficient of the integer
    product (at most min(len) (p-1)**2) carries into the next, and the
    product's fields, reduced mod p, are compared as bytes.  The bytes are
    widened from an iterator, since array(typecode, bytes) would read raw
    item bytes for a field wider than one byte.  The product of a long by a
    short integer takes linear time.
    """
    p = h.p
    bound = min(len(generator), len(h.coeffs)) * (p - 1) ** 2
    typecode = next(t for t in "BHIQ" if bound < 256 ** array(t).itemsize)
    a, b = (
        int.from_bytes(array(typecode, iter(coeffs)), sys.byteorder)
        for coeffs in (generator, h.coeffs)
    )
    product = array(typecode)
    size = len(generator) + len(h.coeffs) - 1
    product.frombytes((a * b).to_bytes(size * product.itemsize, sys.byteorder))
    reduced = bytes(map(p.__rmod__, product))
    if reduced != bytes([p - 1]) + bytes(n - 1) + b"\x01":
        raise InternalInconsistency("h1 h2 does not divide x^n - 1")


def codeword(code: CyclicCode, alpha: int, beta: int) -> list[int]:
    """The trace sequence of the pair, one value in [0, p) per coordinate."""
    f, n = code.field, code.n
    tr = f.subfield_index_tables(1).trace_of_power  # the value Tr(pi**j) at index j
    e_u, e_w = code.params.coordinate_exponents
    la, lb = f.log[alpha], f.log[beta]  # read only when nonzero: log[0] is -1
    return [
        ((tr[(la + e_u * i) % n] if alpha else 0) + (tr[(lb + e_w * i) % n] if beta else 0))
        % f.p
        for i in range(n)
    ]


def codeword_weight(code: CyclicCode, alpha: int, beta: int) -> int:
    """Number of nonzero coordinates (n minus the zero count)."""
    return code.n - codeword(code, alpha, beta).count(0)


def _weight_from_u_sum(params: CodeParams, a: int) -> int:
    """The weight p**m - p**(m-1) - a/(2p) of a pair.

    a is the exact sum over u in GF(p)* of S(u alpha, u beta), a rational
    integer.  It must be divisible by 2p, and the weight must lie in [0, n];
    a failure would falsify the weight formula itself.
    """
    p, m = params.p, params.m
    if a % (2 * p):
        raise NonIntegralWeight(f"u-sum {a} not divisible by 2p")
    w = p**m - p ** (m - 1) - a // (2 * p)
    if not 0 <= w <= params.n:
        raise NonIntegralWeight(f"weight {w} out of range [0, {params.n}]")
    return w


def codeword_weight_via_sums(code: CyclicCode, alpha: int, beta: int) -> int:
    """Weight through the character-sum formula, one literal T per (u, side).

    Evaluates all 2(p-1) constituent values T(u alpha, u beta) and
    T(u pi**e alpha, -u pi beta) through the fast path and reads the weight
    off their sum.
    """
    f, params = code.field, code.params
    usum = sum(
        (s_fast(f, params, f.mul(u, alpha), f.mul(u, beta)) for u in range(1, params.p)),
        SymbolicSumValue.from_parts(params.p, params.d, 0),
    )
    return _weight_from_u_sum(params, usum.rational_value())


def weight_distribution_brute(
    code: CyclicCode, *, budget: int | None = None
) -> WeightDistribution:
    """Exact census of codeword weights over all pairs (batch.brute_weight_histogram)."""
    from . import batch

    hist = batch.brute_weight_histogram(code, budget=budget)
    return WeightDistribution.from_counts(enumerate(hist), source="brute").validate(code.params)


def _u_sum_table(code: CyclicCode) -> dict[tuple[int, int], SymbolicSumValue]:
    """sum over u in GF(p)* of the T value of class (r, eps), for every r <= s.

    Scaling a pair by u multiplies the Gram matrix by u, so the rank is
    unchanged and the discriminant character picks up eta_d(u)**rank; the
    per-class u-sum is therefore well-defined.
    """
    f, params = code.field, code.params
    out = {}
    for r in range(params.s + 1):
        for eps in (1, -1):
            acc = SymbolicSumValue.from_parts(params.p, params.d, 0)
            for u in range(1, params.p):
                eta_u = f.quadratic_character(u, params.d)
                acc = acc + t_value(params, r, eps * (eta_u if r % 2 else 1))
            out[(r, eps)] = acc
    return out


def weight_distribution_sums(
    code: CyclicCode, *, budget: int | None = None
) -> WeightDistribution:
    """Weight distribution through the exponential-sum formula.

    Joins the (rank, sign) class of f at every pair with the class of its
    twisted companion, sums the 2(p-1) constituent T values per joint class,
    and reads the weight off the formula.  Uniform across all parameter
    cases.
    """
    joint = joint_class_census(code.field, code.params, budget=budget)
    usum = _u_sum_table(code)
    return WeightDistribution.from_counts(
        (
            (_weight_from_u_sum(code.params, (usum[cf] + usum[cg]).rational_value()), count)
            for (cf, cg), count in joint.items()
        ),
        source="sums",
    ).validate(code.params)


def weight_distribution_closed(params: CodeParams) -> WeightDistribution:
    """The closed-form S distribution read through the weight formula.

    Every row (value, frequency) of :func:`s_distribution_closed` stands for
    frequency pairs whose u-sum is the Galois sum over zeta -> zeta**u of
    value = A + B sqrt(q*), since S(u alpha, u beta) = sigma_u(S(alpha, beta)).
    That sum is (p - 1) A: sqrt(q*) is rational at even d, and at odd d it is
    g_p p**((d-1)/2) with sigma_u(g_p) = (u/p) g_p, whose u-sum is 0.  Rows
    whose weights collide are merged.  Only the parameters are read, so no
    field is built.  Cases without closed forms raise UnsupportedCase.
    """
    return WeightDistribution.from_counts(
        (
            (_weight_from_u_sum(params, (params.p - 1) * value.rational), freq)
            for value, freq in s_distribution_closed(params)
        ),
        source="closed",
    ).validate(params)


ENGINES = ("brute", "sums", "closed")


def run_engine(
    code: CyclicCode,
    engine: str,
    *,
    budget: int | None = None,
) -> WeightDistribution:
    if engine == "brute":
        return weight_distribution_brute(code, budget=budget)
    if engine == "sums":
        return weight_distribution_sums(code, budget=budget)
    if engine == "closed":
        return weight_distribution_closed(code.params)
    raise UnsupportedCase(f"unknown engine {engine!r}")


def engine_agreement(dists: dict[str, WeightDistribution]) -> dict[tuple[str, str], bool]:
    """For every pair (e1, e2), e1 < e2, of engines: whether their rows are equal."""
    return {(e1, e2): dists[e1].same_rows(dists[e2]) for e1, e2 in combinations(sorted(dists), 2)}


def code_header(code: CyclicCode) -> dict:
    """Parameters, derived constants, length, dimension and polynomials of a code."""
    params = code.params
    return {
        "p": params.p,
        "m": params.m,
        "k": params.k,
        "d": params.d,
        "s": params.s,
        "q": params.q,
        "q_star": params.q_star,
        "case": params.case.value,
        "n": code.n,
        "dimension": code.dimension,
        "h1": list(code.h1.coeffs),
        "h2": list(code.h2.coeffs),
        "generator": list(code.generator_coefficients),
    }


def code_report(code: CyclicCode, *, budget: int | None = None) -> dict:
    """Structured summary: parameters, polynomials, distributions, agreement.

    Every engine of :data:`ENGINES` runs; those that are out of budget or
    unsupported for the case are reported as unavailable rather than failing
    the whole report, and at least one must run.
    """
    dists: dict[str, WeightDistribution] = {}
    unavailable: dict[str, str] = {}
    for engine in ENGINES:
        try:
            dists[engine] = run_engine(code, engine, budget=budget)
        except (BudgetExceeded, UnsupportedCase) as exc:
            unavailable[engine] = str(exc)
    if not dists:
        raise BudgetExceeded("no weight-distribution engine within budget")
    agreement = {f"{e1}~{e2}": same for (e1, e2), same in engine_agreement(dists).items()}
    any_dist = dists[min(dists)]
    return {
        **code_header(code),
        "min_distance": any_dist.min_distance,
        "distributions": {e: list(d.rows) for e, d in dists.items()},
        "unavailable": unavailable,
        "agreement": agreement,
        "summary": f"[{code.n}, {code.dimension}, {any_dist.min_distance}]",
    }
