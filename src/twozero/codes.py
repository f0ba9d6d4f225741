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
* closed -- the per-case closed-form weight/frequency tables (merged on
  colliding weights), available for CaseA and both CaseB flavours.

All three must agree exactly; every produced distribution is self-checked
against the code size, the zero-word row and the first power moment
sum w * A_w = n (p-1) p**(2m-1) (valid since no coordinate functional
vanishes identically, which build_code asserts via h1(0), h2(0) != 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import (
    BudgetExceeded,
    DistinctnessViolated,
    InternalInconsistency,
    NonIntegralWeight,
    NonRationalSum,
    UnsupportedCase,
    check_budget,
)
from .expsums import _exact_div, joint_class_census, t_value
from .gf import FiniteField, Polynomial, build_field
from .quadforms import Case, CodeParams, classify_parameters

DEFAULT_BRUTE_BUDGET = 400_000_000   # coordinate checks, 3 p**m * n


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

    def validate(self, code: CyclicCode) -> WeightDistribution:
        """Self-checks: size, zero row, Pless first power moment."""
        p, m, n = code.params.p, code.params.m, code.n
        if self.total != p ** (2 * m):
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
    """The code together with its field and precomputed coordinate data."""

    params: CodeParams
    field: FiniteField
    n: int
    h1: Polynomial
    h2: Polynomial
    generator: Polynomial
    dimension: int
    u_codes: list[int] = dataclass_field(repr=False, default_factory=list)
    w_codes: list[int] = dataclass_field(repr=False, default_factory=list)

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
    both must have nonzero constant term; all of this is verified.
    """
    params = classify_parameters(p, m, k)
    field = build_field(p, m, modulus_index=modulus_index, primitive_index=primitive_index)
    pi = field.primitive_element
    n = field.n

    h1 = field.minimal_polynomial(field.neg(field.inv(pi)))
    h2 = field.minimal_polynomial(field.inv(field.pow(pi, params.twist_exponent)))
    if h1.degree != m or h2.degree != m:
        raise InternalInconsistency(
            f"deg h1 = {h1.degree}, deg h2 = {h2.degree}; both must equal m = {m}"
        )
    if h1 == h2:
        raise DistinctnessViolated("h1 and h2 coincide")
    if h1(0) == 0 or h2(0) == 0:
        raise InternalInconsistency("h1, h2 must have nonzero constant term")

    x_n_minus_1 = Polynomial(p, [-1] + [0] * (n - 1) + [1])
    quot, rem = divmod(x_n_minus_1, h1 * h2)
    if not rem.is_zero:
        raise InternalInconsistency("h1 h2 does not divide x^n - 1")

    # Coordinate sequences u_i = pi**(e i) and w_i = (-pi)**i, with the sign
    # folded into the exponent via -1 = pi**(n/2).
    e = params.twist_exponent % n
    neg_step = (n // 2 + 1) % n
    u_codes = [field.exp[(e * i) % n] for i in range(n)]
    w_codes = [field.exp[(neg_step * i) % n] for i in range(n)]

    return CyclicCode(
        params=params,
        field=field,
        n=n,
        h1=h1,
        h2=h2,
        generator=quot,
        dimension=2 * m,
        u_codes=u_codes,
        w_codes=w_codes,
    )


def codeword(code: CyclicCode, alpha: int, beta: int) -> list[int]:
    """The trace sequence of the pair, one value in [0, p) per coordinate."""
    f = code.field
    tr = f.trace_table
    p = f.p
    return [
        (tr[f.mul(alpha, u)] + tr[f.mul(beta, w)]) % p
        for u, w in zip(code.u_codes, code.w_codes)
    ]


def codeword_weight(code: CyclicCode, alpha: int, beta: int) -> int:
    """Number of nonzero coordinates (n minus the zero count)."""
    f = code.field
    tr = f.trace_table
    p = f.p
    zeros = 0
    for u, w in zip(code.u_codes, code.w_codes):
        if (tr[f.mul(alpha, u)] + tr[f.mul(beta, w)]) % p == 0:
            zeros += 1
    return code.n - zeros


def codeword_weight_via_sums(code: CyclicCode, alpha: int, beta: int) -> int:
    """Weight through the character-sum formula, one literal T per (u, side).

    Evaluates all 2(p-1) constituent values T(u alpha, u beta) and
    T(u pi**e alpha, -u pi beta) through the fast path, sums them, asserts
    the aggregate is rational, and applies
    weight = p**m - p**(m-1) - (sum)/(2p).
    """
    from .expsums import s_fast

    f, params = code.field, code.params
    p = params.p
    acc_a = acc_b = 0
    for u in range(1, p):
        va, vb = s_fast(f, params, f.mul(u, alpha), f.mul(u, beta)).expanded()
        acc_a += va
        acc_b += vb
    if acc_b:
        raise NonRationalSum(f"u-sum of S at ({alpha}, {beta}) is irrational")
    if acc_a % (2 * p):
        raise NonIntegralWeight(f"u-sum {acc_a} not divisible by 2p")
    w = p**params.m - p ** (params.m - 1) - acc_a // (2 * p)
    if not 0 <= w <= code.n:
        raise NonIntegralWeight(f"weight {w} out of range [0, {code.n}]")
    return w


def weight_distribution_brute(
    code: CyclicCode, *, budget: int | None = None
) -> WeightDistribution:
    """Exact census of codeword weights over all pairs (vectorized).

    The budget counts the n coordinate checks of each of the 3 p**m orbit
    representatives (see batch).
    """
    checks = 3 * code.field.order * code.n
    check_budget("brute enumeration", checks, "coordinate checks", budget, DEFAULT_BRUTE_BUDGET)
    from . import batch

    hist = batch.brute_weight_histogram(code)
    dist = WeightDistribution.from_counts(
        ((w, f) for w, f in enumerate(hist)), source="brute"
    )
    return dist.validate(code)


def _u_sum_table(code: CyclicCode) -> dict[tuple[int, int], tuple[int, int]]:
    """sum over u in GF(p)* of the T value of class (r, eps), for every r <= s.

    Scaling a pair by u multiplies the Gram matrix by u, so the rank is
    unchanged and the discriminant character picks up eta_d(u)**rank; the
    per-class u-sum is therefore well-defined.  Entries are expanded (A, B)
    integer pairs.
    """
    f, params = code.field, code.params
    out = {}
    for r in range(params.s + 1):
        for eps in (1, -1):
            acc_a = acc_b = 0
            for u in range(1, params.p):
                eta_u = f.quadratic_character(u, params.d)
                eps_u = eps * (eta_u if r % 2 else 1)
                va, vb = t_value(params, r, eps_u).expanded()
                acc_a += va
                acc_b += vb
            out[(r, eps)] = (acc_a, acc_b)
    return out


def weight_distribution_sums(
    code: CyclicCode, *, budget: int | None = None
) -> WeightDistribution:
    """Weight distribution through the exponential-sum formula.

    Joins the (rank, sign) class of f at every pair with the class of its
    twisted companion, sums the 2(p-1) constituent T values per joint class,
    and reads the weight off the formula.  Uniform across all parameter
    cases; rationality and integrality are asserted, since their failure
    would falsify the weight formula itself.
    """
    params = code.params
    joint = joint_class_census(code.field, params, budget=budget)
    usum = _u_sum_table(code)
    p = params.p
    base = p**params.m - p ** (params.m - 1)
    counts: dict[int, int] = {}
    for (cf, cg), count in joint.items():
        a = usum[cf][0] + usum[cg][0]
        b = usum[cf][1] + usum[cg][1]
        if b:
            raise NonRationalSum(f"u-sum of class pair ({cf}, {cg}) is irrational")
        if a % (2 * p):
            raise NonIntegralWeight(f"u-sum {a} of class pair ({cf}, {cg}) not divisible by 2p")
        w = base - a // (2 * p)
        if not 0 <= w <= code.n:
            raise NonIntegralWeight(f"weight {w} out of range [0, {code.n}]")
        counts[w] = counts.get(w, 0) + count
    return WeightDistribution.from_counts(counts, source="sums").validate(code)


def weight_distribution_closed(code: CyclicCode) -> WeightDistribution:
    """The closed-form weight table for the code's parameter case.

    Evaluates each table row with exact integer arithmetic (every division
    must be exact) and merges rows whose weights collide.
    """
    params = code.params
    if not params.has_closed_forms:
        raise UnsupportedCase(f"no closed weight table for case {params.case}")
    p, m, d = params.p, params.m, params.d
    pm = p**m
    base = p ** (m - 1) * (p - 1)
    half_p1 = (p - 1) // 2
    root = p ** (m // 2 - 1)  # p**(m/2 - 1); m is even in every supported case

    rows: list[tuple[int, int]] = [(0, 1)]
    zero_s_freq = _exact_div((p ** (m + d) - 3 * pm + p**d + 1) * (pm - 1), 2 * (p**d - 1))
    rows.append((base, zero_s_freq))

    if params.case is Case.CASE_A:
        off_edge = half_p1 * (p**d - 1) * root
        f_edge = _exact_div((p ** (m - d) - 1) * (pm - 1), p ** (2 * d) - 1)
        rows += [(base + off_edge, f_edge), (base - off_edge, f_edge)]
        h = p ** ((m - d) // 2)
        rt = p ** (d // 2)
        f_minus = _exact_div(h * (h - 1) * (pm - 1), 2)
        f_plus = _exact_div(h * (h + 1) * (pm - 1), 2)
        rows += [
            (base + half_p1 * (rt - 1) * root, f_minus),
            (base + half_p1 * (rt + 1) * root, f_minus),
            (base - half_p1 * (rt + 1) * root, f_plus),
            (base - half_p1 * (rt - 1) * root, f_plus),
        ]
        f_two = _exact_div((p**d - 1) * (pm * pm - 1), 4 * (p**d + 1))
        rows += [(base + (p - 1) * root, f_two), (base - (p - 1) * root, f_two)]
    else:
        half = p ** (m // 2 - d)
        mroot = p ** (m // 2)
        den = p ** (2 * d) - 1
        off_edge = half_p1 * (p**d - 1) * root
        rows += [
            (base - off_edge, _exact_div((half + 1) * (mroot - 1) * (pm - 1), den)),
            (base + off_edge, _exact_div((half - 1) * (mroot + 1) * (pm - 1), den)),
        ]
        if params.case is Case.CASE_B_ODD_K:
            rows += [
                (base + half_p1 * root, half * (mroot - 1) * (pm - 1)),
                (base - half_p1 * root, half * (mroot + 1) * (pm - 1)),
            ]
        else:
            rt = p ** (d // 2)
            f_lo = _exact_div(half * (mroot - 1) * (pm - 1), 2)
            f_hi = _exact_div(half * (mroot + 1) * (pm - 1), 2)
            rows += [
                (base - half_p1 * (rt - 1) * root, f_lo),
                (base + half_p1 * (rt + 1) * root, f_lo),
                (base - half_p1 * (rt + 1) * root, f_hi),
                (base + half_p1 * (rt - 1) * root, f_hi),
            ]
        rows += [
            (
                base + (p - 1) * root,
                _exact_div((mroot - 1) ** 2 * (p**d - 1) * (pm - 1), 4 * (p**d + 1)),
            ),
            (
                base - (p - 1) * root,
                _exact_div((mroot + 1) ** 2 * (p**d - 1) * (pm - 1), 4 * (p**d + 1)),
            ),
        ]
    return WeightDistribution.from_counts(rows, source="closed").validate(code)


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
        return weight_distribution_closed(code)
    raise UnsupportedCase(f"unknown engine {engine!r}")


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
        "generator": list(code.generator.coeffs),
    }


def code_report(
    code: CyclicCode,
    *,
    engines: tuple[str, ...] = ("brute", "sums", "closed"),
    budget: int | None = None,
) -> dict:
    """Structured summary: parameters, polynomials, distributions, agreement.

    Engines that are out of budget or unsupported for the case are reported
    as unavailable rather than failing the whole report; at least one must
    run.
    """
    dists: dict[str, WeightDistribution] = {}
    unavailable: dict[str, str] = {}
    for engine in engines:
        try:
            dists[engine] = run_engine(code, engine, budget=budget)
        except (BudgetExceeded, UnsupportedCase) as exc:
            unavailable[engine] = str(exc)
    if not dists:
        raise BudgetExceeded("no weight-distribution engine within budget")
    agreement = {}
    ran = sorted(dists)
    for i, e1 in enumerate(ran):
        for e2 in ran[i + 1 :]:
            agreement[f"{e1}~{e2}"] = dists[e1].same_rows(dists[e2])
    any_dist = dists[ran[0]]
    return {
        **code_header(code),
        "min_distance": any_dist.min_distance,
        "distributions": {e: list(d.rows) for e, d in dists.items()},
        "unavailable": unavailable,
        "agreement": agreement,
        "summary": f"[{code.n}, {code.dimension}, {any_dist.min_distance}]",
    }
