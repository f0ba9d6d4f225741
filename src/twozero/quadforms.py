"""Parameter classification and the pair of quadratic forms behind the code.

For parameters (p, m, k) write d = gcd(m, k), s = m/d, q = p**d.  The object
of study is the GF(q)-valued quadratic form

    f(x) = Tr_d^m(alpha * x**(p**k + 1) + beta * x**2)

on GF(p**m) viewed as an s-dimensional GF(q)-space, together with its
twisted companion g(x) = f with (alpha, beta) replaced by
(pi**((p**k+1)/2) * alpha, -pi * beta).  The rank of f is s minus the
GF(q)-dimension of the radical, which equals the kernel of the linearized
polynomial

    phi(x) = alpha**(p**k) x**(p**(2k)) + 2 beta**(p**k) x**(p**k) + alpha x.

Two independent rank routes are implemented: GF(p)-nullity of phi (no basis
choice) and the rank of the Gram matrix over GF(q).  The Gram route,
:func:`diagonalize`, returns the class (rank, eps) of f, eps the
discriminant character that the fast character-sum path needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    BothZero,
    InternalInconsistency,
    NotOddPrime,
    ParameterError,
    STooSmall,
    ZeroArgument,
    check_budget,
)
from .gf import FiniteField, is_prime, v2

# Default budget of the representative pair pass (Gram matrices) and of the
# phi rank census (pairs).
PAIR_BUDGET = 50_000_000


class Case(str, Enum):
    """Parameter case labels driving the closed-form tables."""

    CASE_A = "CaseA"                      # 1 <= v2(m) < v2(k); s odd, d even
    CASE_B_ODD_K = "CaseB-odd-k"          # v2(k) < v2(m), k odd; s even, d odd
    CASE_B_EVEN_K = "CaseB-even-k"        # v2(k) < v2(m), k even; s even, d even
    ODD_S_OUT_OF_SCOPE = "OddS-out-of-scope"  # v2(m) = v2(k), or v2(m) = 0 < v2(k)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


@dataclass(frozen=True)
class CodeParams:
    """Derived constants for one (p, m, k) instance."""

    p: int
    m: int
    k: int
    d: int
    s: int
    q: int
    case: Case

    @property
    def q_star(self) -> int:
        """Signed subfield size (-1)**((q-1)/2) * q."""
        return self.q if (self.q - 1) // 2 % 2 == 0 else -self.q

    @property
    def twist_exponent(self) -> int:
        """(p**k + 1) / 2, the exponent defining the companion form."""
        return (self.p**self.k + 1) // 2

    @property
    def pairs(self) -> int:
        """Number of (alpha, beta) pairs, p**(2m)."""
        return self.p ** (2 * self.m)

    @property
    def has_closed_forms(self) -> bool:
        return self.case is not Case.ODD_S_OUT_OF_SCOPE


def classify_parameters(p: int, m: int, k: int) -> CodeParams:
    """Validate (p, m, k) and assign the parameter case.

    Rejects p not an odd prime and s = m/gcd(m,k) < 3.  The case split
    compares the 2-adic valuations of m and k; the leftover combinations
    (equal valuations, or odd m with even k) have odd s and are outside the
    closed-form tables, though enumeration engines still accept them.
    """
    if not is_prime(p) or p == 2:
        raise NotOddPrime(f"p must be an odd prime, got {p}")
    if m < 1 or k < 1:
        raise ParameterError(f"m and k must be positive, got m={m}, k={k}")
    d = math.gcd(m, k)
    s = m // d
    if s < 3:
        raise STooSmall(f"m/gcd(m,k) = {s} < 3 for (p, m, k) = ({p}, {m}, {k})")
    a, b = v2(m), v2(k)
    if 1 <= a < b:
        case = Case.CASE_A
    elif b < a:
        case = Case.CASE_B_ODD_K if k % 2 else Case.CASE_B_EVEN_K
    else:
        case = Case.ODD_S_OUT_OF_SCOPE
    return CodeParams(p=p, m=m, k=k, d=d, s=s, q=p**d, case=case)


def phi(field: FiniteField, params: CodeParams, alpha: int, beta: int, x: int) -> int:
    """The linearized polynomial whose kernel is the radical of f."""
    p, k = params.p, params.k
    t1 = field.mul(field.frobenius(alpha, k), field.frobenius(x, 2 * k))
    bk = field.frobenius(beta, k)
    t2 = field.mul(field.add(bk, bk), field.frobenius(x, k))
    t3 = field.mul(alpha, x)
    return field.add(field.add(t1, t2), t3)


def psi(field: FiniteField, params: CodeParams, alpha: int, x: int) -> int:
    """The unique beta with phi_{alpha,beta}(x) = 0, for x != 0.

    psi(alpha, x) = -(1/2) x**(-1) (alpha x**(p**k) + alpha**(p**(m-k))
    x**(p**(m-k))); well-defined since p is odd.
    """
    if x == 0:
        raise ZeroArgument("psi requires x != 0")
    k, m = params.k, params.m
    inner = field.add(
        field.mul(alpha, field.frobenius(x, k)),
        field.mul(field.frobenius(alpha, m - k), field.frobenius(x, m - k)),
    )
    return field.neg(field.mul(field.half, field.mul(field.inv(x), inner)))


def twist_pair(field: FiniteField, params: CodeParams, alpha: int, beta: int) -> tuple[int, int]:
    """(alpha, beta) of the companion form g."""
    pi_e = field.pow(field.primitive_element, params.twist_exponent)
    return field.mul(pi_e, alpha), field.neg(field.mul(field.primitive_element, beta))


def phi_matrix(field: FiniteField, params: CodeParams, alpha: int, beta: int) -> list[list[int]]:
    """phi as an m x m matrix over GF(p) in the polynomial basis (columns = images)."""
    m = field.m
    cols = []
    for j in range(m):
        img = phi(field, params, alpha, beta, field.p**j)
        cols.append(field.coeffs(img))
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def nullity_mod_p(rows: list[list[int]], p: int) -> int:
    """Nullity of a matrix over GF(p) by Gaussian elimination."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [c * inv % p for c in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col] % p:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return ncols - rank


def rank(field: FiniteField, params: CodeParams, alpha: int, beta: int) -> int:
    """Rank of f via the GF(p)-nullity of phi.

    The nullity nu is always a multiple of d (the kernel is a GF(q)-space)
    and the rank s - nu/d always lands in {s-2, s-1, s}; violations abort.
    """
    if alpha == 0 and beta == 0:
        raise BothZero("rank is undefined at (0, 0)")
    nu = nullity_mod_p(phi_matrix(field, params, alpha, beta), params.p)
    if nu % params.d:
        raise InternalInconsistency(f"phi-nullity {nu} not divisible by d={params.d}")
    r = params.s - nu // params.d
    if r not in (params.s - 2, params.s - 1, params.s):
        raise InternalInconsistency(f"rank {r} outside the trichotomy at s={params.s}")
    return r


@dataclass(frozen=True)
class RankCensus:
    """Counts of nonzero pairs by rank: n0 <-> s, n1 <-> s-1, n2 <-> s-2."""

    n0: int
    n1: int
    n2: int

    @property
    def total(self) -> int:
        return self.n0 + self.n1 + self.n2


def closed_rank_census(params: CodeParams) -> RankCensus:
    """Closed-form rank census.

    n1 = p**(m-d) (p**m - 1) pairs of rank s-1 and
    n2 = (p**m - 1)(p**(m-d) - 1)/(p**(2d) - 1) of rank s-2; both follow
    from the fiber sizes of psi, which force the double-counting identity
    (q - 1) n1 + (q**2 - 1) n2 = (p**m - 1)**2 that pins the assignment.
    """
    p, m, d = params.p, params.m, params.d
    pm = p**m
    n1 = p ** (m - d) * (pm - 1)
    num = (pm - 1) * (p ** (m - d) - 1)
    den = p ** (2 * d) - 1
    if num % den:
        raise InternalInconsistency("rank census formula did not divide exactly")
    n2 = num // den
    if (params.q - 1) * n1 + (params.q**2 - 1) * n2 != (pm - 1) ** 2:
        raise InternalInconsistency("rank census failed the double-counting identity")
    return RankCensus(n0=pm * pm - 1 - n1 - n2, n1=n1, n2=n2)


def rank_census(
    field: FiniteField,
    params: CodeParams,
    *,
    budget: int | None = None,
    method: str = "gram",
) -> RankCensus:
    """Exhaustive rank census over all nonzero (alpha, beta).

    method="gram" counts the f ranks of the joint class census (the
    vectorized Gram-rank kernel on the orbit representatives, see batch),
    refusing a pass of more than budget Gram matrices; method="phi" takes
    the GF(p)-nullity of phi at every pair, in blocked batches of phi
    matrices (batch.phi_rank_histogram, with the checks of :func:`rank`),
    and refuses more than budget pairs.  None means :data:`PAIR_BUDGET`.
    Any other method is a ParameterError.  The caller (test suite, verify
    command) checks the result against :func:`closed_rank_census`.
    """
    counts = {params.s: 0, params.s - 1: 0, params.s - 2: 0}
    if method == "phi":
        check_budget("phi rank census", params.pairs, "pairs", budget, PAIR_BUDGET)
        from . import batch

        counts.update(batch.phi_rank_histogram(field, params))
    elif method == "gram":
        from .expsums import joint_class_census

        for ((r, _), _), pairs in joint_class_census(field, params, budget=budget).items():
            if r:
                counts[r] += pairs
    else:
        raise ParameterError(f"unknown method {method!r}")
    return RankCensus(n0=counts[params.s], n1=counts[params.s - 1], n2=counts[params.s - 2])


def gram_basis(field: FiniteField, params: CodeParams) -> list[int]:
    """The fixed GF(q)-basis {pi**0, ..., pi**(s-1)} of GF(p**m)."""
    return [field.exp[i] for i in range(params.s)]


def gram_matrix(field: FiniteField, params: CodeParams, alpha: int, beta: int) -> list[list[int]]:
    """Symmetric s x s Gram matrix of f over GF(q) (entries as field codes).

    A[i][j] = (f(e_i + e_j) - f(e_i) - f(e_j))/2 off the diagonal and
    A[i][i] = f(e_i), in the fixed basis from :func:`gram_basis`, so that
    X A X' reproduces f on every element.
    """
    d, k = params.d, params.k
    basis = gram_basis(field, params)
    tr = field.trace_to_table(d)

    def f_val(x: int) -> int:
        u = field.mul(alpha, field.mul(field.frobenius(x, k), x))
        w = field.mul(beta, field.mul(x, x))
        return tr[field.add(u, w)]

    s = params.s
    a = [[0] * s for _ in range(s)]
    for i in range(s):
        a[i][i] = f_val(basis[i])
    for i in range(s):
        for j in range(i + 1, s):
            pol = field.sub(
                f_val(field.add(basis[i], basis[j])),
                field.add(a[i][i], a[j][j]),
            )
            a[i][j] = a[j][i] = field.mul(field.half, pol)
    return a


def diagonalize(field: FiniteField, d: int, matrix: list[list[int]]) -> tuple[int, int]:
    """(rank, eps) of a symmetric matrix over GF(p**d) (char != 2).

    Symmetric Gaussian elimination, one column at a time.  When the pivot
    a[j][j] is zero, the first row t > j with a[t][j] != 0 is added c times
    to row j, then column t c times to column j, which plants
    2 c a[t][j] + a[t][t] on the diagonal: c = 1 unless that is zero, then
    c = -1 (both vanish only if 4 a[t][j] = 0, impossible in odd
    characteristic).  A column with no such t is zero and is skipped.  The
    rank counts the pivots and eps is eta_d of their product (+1 at rank 0);
    both are congruence invariants.  batch.batched_rank_disc runs the same
    rule on a batch of matrices.
    """
    a = [row[:] for row in matrix]
    s = len(a)
    r, eps = 0, 1
    for j in range(s):
        if a[j][j] == 0:
            t = next((t for t in range(j + 1, s) if a[t][j]), None)
            if t is None:
                continue  # column j is zero
            twice = field.add(a[t][j], a[t][j])
            op = field.sub if field.add(twice, a[t][t]) == 0 else field.add
            a[j] = [op(x, y) for x, y in zip(a[j], a[t])]
            for row in a:
                row[j] = op(row[j], row[t])
        piv = a[j][j]
        if piv == 0:
            raise InternalInconsistency("pivot fix-up failed")
        if not field.in_subfield(piv, d):
            raise InternalInconsistency("diagonal entry left the subfield")
        inv = field.inv(piv)
        for t in range(j + 1, s):
            c = field.mul(a[t][j], inv)
            if c:
                a[t] = [field.sub(x, field.mul(c, y)) for x, y in zip(a[t], a[j])]
        for t in range(j + 1, s):
            a[j][t] = 0
        r += 1
        eps *= field.quadratic_character(piv, d)
    return r, eps
