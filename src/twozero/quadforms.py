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
choice) and the rank of the Gram matrix over GF(q).  The Gram matrix is
linear in (alpha, beta): A[i][j] = Tr_d(alpha u_ij + beta v_ij) for field
constants (u_ij, v_ij) that depend on the basis only, and
:func:`gram_entries` is the one place they are derived; the scalar
:func:`gram_matrix` and the batch tables both read them.  The Gram route,
:func:`diagonalize`, returns the class (rank, eps) of f, eps the
discriminant character that the fast character-sum path needs.  Both scalar
functions run on the field's GF(q) index tables
(FiniteField.subfield_index_tables), which the batched kernel reads as numpy
copies, so there is one definition of subfield arithmetic.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import (
    BothZero,
    InternalInconsistency,
    NotOddPrime,
    ParameterError,
    STooSmall,
    ZeroArgument,
)
from .gf import FiniteField, Frozen, check_field_size, is_prime, v2


class Case(str, Enum):
    """Parameter case labels driving the closed-form tables."""

    CASE_A = "CaseA"                      # 1 <= v2(m) < v2(k); s odd, d even
    CASE_B_ODD_K = "CaseB-odd-k"          # v2(k) < v2(m), k odd; s even, d odd
    CASE_B_EVEN_K = "CaseB-even-k"        # v2(k) < v2(m), k even; s even, d even
    ODD_S_OUT_OF_SCOPE = "OddS-out-of-scope"  # v2(m) = v2(k), or v2(m) = 0 < v2(k)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


class CodeParams(Frozen):
    """Derived constants for one (p, m, k) instance.

    Equal, and hash equal, when p, m, k, d, s, q and case are.  gauss_sum,
    the pair (A, B) with G = A + B*sqrt(q*) the subfield Gauss sum, is
    derived once in __init__ and stored like the fields, but takes no part
    in equality, hash or repr.
    """

    __slots__ = ("p", "m", "k", "d", "s", "q", "case", "gauss_sum")

    def __init__(self, p: int, m: int, k: int, d: int, s: int, q: int, case: Case) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "gauss_sum", gauss_sum_parts(p, d))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.m, self.k, self.d, self.s, self.q, self.case) == (
            other.p, other.m, other.k, other.d, other.s, other.q, other.case
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.k, self.d, self.s, self.q, self.case))

    def __repr__(self) -> str:
        return (
            f"CodeParams(p={self.p!r}, m={self.m!r}, k={self.k!r}, d={self.d!r}, "
            f"s={self.s!r}, q={self.q!r}, case={self.case!r})"
        )

    @property
    def q_star(self) -> int:
        """Signed subfield size (-1)**((q-1)/2) * q."""
        return self.q if (self.q - 1) // 2 % 2 == 0 else -self.q

    @property
    def twist_exponent(self) -> int:
        """(p**k + 1) / 2 mod n, the companion form's exponent e: 2e = p**k + 1 mod n."""
        return (pow(self.p, self.k, 2 * self.n) + 1) // 2 % self.n

    @property
    def pairs(self) -> int:
        """Number of (alpha, beta) pairs, p**(2m)."""
        return self.p ** (2 * self.m)

    @property
    def n(self) -> int:
        """Code length p**m - 1."""
        return self.p**self.m - 1

    @property
    def dimension(self) -> int:
        """Code dimension 2m (h1, h2 distinct of degree m, checked by build_code)."""
        return 2 * self.m

    @property
    def coordinate_exponents(self) -> tuple[int, int]:
        """Logs of the coordinate steps u_i = pi**(e i) and w_i = (-pi)**i = pi**((n/2 + 1) i)."""
        return self.twist_exponent, (self.n // 2 + 1) % self.n

    @property
    def has_closed_forms(self) -> bool:
        return self.case is not Case.ODD_S_OUT_OF_SCOPE

    def check_field(self, field: FiniteField) -> None:
        """Refuse (ParameterError) a field that is not GF(p**m) of these parameters."""
        if (field.p, field.m) != (self.p, self.m):
            raise ParameterError(f"field GF({field.p}^{field.m}) is not GF({self.p}^{self.m})")


def gauss_sum_parts(p: int, d: int) -> tuple[int, int]:
    """(A, B) with A + B*sqrt(q*) the quadratic Gauss sum G of GF(q), q = p**d.

    G = sum over GF(q) of zeta_p**(Tr_1^d(x**2)) equals (-1)**(d-1) g_p**d
    (Davenport-Hasse), which reads sigma * sqrt(q*) for odd d and a signed
    power of p for even d.  G**2 = q* either way, but the sign sigma is not
    always +1: the fast path needs it to match the direct path exactly.
    """
    half_p = (p - 1) // 2
    if d % 2:
        return 0, -1 if (half_p * ((d - 1) // 2)) % 2 else 1
    return (-1 if (half_p * (d // 2)) % 2 == 0 else 1) * p ** (d // 2), 0


def classify_parameters(p: int, m: int, k: int) -> CodeParams:
    """Validate (p, m, k) and assign the parameter case.

    Rejects s = m/gcd(m,k) < 3, then p**m past gf.check_field_size, then p not
    an odd prime.  The case split compares the 2-adic valuations of m and k;
    the leftover combinations (equal valuations, or odd m with even k) have
    odd s and are outside the closed-form tables, though enumeration engines
    still accept them.
    """
    if m < 1 or k < 1:
        raise ParameterError(f"m and k must be positive, got m={m}, k={k}")
    d = math.gcd(m, k)
    s = m // d
    if s < 3:
        raise STooSmall(f"m/gcd(m,k) = {s} < 3 for (p, m, k) = ({p}, {m}, {k})")
    check_field_size(p, m)
    if not is_prime(p) or p == 2:
        raise NotOddPrime(f"p must be an odd prime, got {p}")
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
    params.check_field(field)
    k = params.k
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
    params.check_field(field)
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
    params.check_field(field)
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


class RankCensus(Frozen):
    """Counts of nonzero pairs by rank: n0 <-> s, n1 <-> s-1, n2 <-> s-2."""

    __slots__ = ("n0", "n1", "n2")

    def __init__(self, n0: int, n1: int, n2: int) -> None:
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n0, self.n1, self.n2) == (other.n0, other.n1, other.n2)

    def __hash__(self) -> int:
        return hash((self.n0, self.n1, self.n2))

    def __repr__(self) -> str:
        return f"RankCensus(n0={self.n0!r}, n1={self.n1!r}, n2={self.n2!r})"

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
    and refuses more than budget pairs.  None means batch.PAIR_BUDGET.
    Any other method is a ParameterError.  The caller (test suite, verify
    command) checks the result against :func:`closed_rank_census`.
    """
    counts = {params.s: 0, params.s - 1: 0, params.s - 2: 0}
    if method == "phi":
        from . import batch

        counts.update(batch.phi_rank_histogram(field, params, budget=budget))
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


def gram_entries(field: FiniteField, params: CodeParams) -> tuple[tuple[int, int, int, int], ...]:
    """The Gram entries of f as (i, j, u_ij, v_ij) for i <= j, memoized on the field per params.

    A[i][j](alpha, beta) = Tr_d(alpha u_ij + beta v_ij) in the basis e_i of
    :func:`gram_basis`, with u_ii = e_i**(p**k + 1), v_ii = e_i**2 and, for
    i < j, the half-polarized u_ij = (e_i**(p**k) e_j + e_i e_j**(p**k)) / 2,
    v_ij = e_i e_j, so that X A X' reproduces f on every element.  A field
    that does not match params is a ParameterError (CodeParams.check_field);
    a zero u_ij or v_ij (it has no exponent of pi) is an InternalInconsistency.
    """

    def compute() -> tuple[tuple[int, int, int, int], ...]:
        params.check_field(field)
        basis = gram_basis(field, params)
        frob = [field.frobenius(e, params.k) for e in basis]
        entries = []
        for i in range(params.s):
            entries.append((i, i, field.mul(frob[i], basis[i]), field.mul(basis[i], basis[i])))
            for j in range(i + 1, params.s):
                u = field.add(field.mul(frob[i], basis[j]), field.mul(basis[i], frob[j]))
                entries.append((i, j, field.mul(field.half, u), field.mul(basis[i], basis[j])))
        if any(0 in (u, v) for _, _, u, v in entries):
            raise InternalInconsistency("a Gram constant u_ij or v_ij is 0")
        return tuple(entries)

    # Keyed by the ints the entries depend on: hashing CodeParams costs a
    # Python-level __hash__ on every scalar gram_matrix call.
    return field.memoized(("gram_entries", params.p, params.m, params.k, params.s), compute)


def gram_matrix(field: FiniteField, params: CodeParams, alpha: int, beta: int) -> list[list[int]]:
    """Symmetric s x s Gram matrix of f over GF(q) (entries as field codes).

    A[i][j] = Tr_d(alpha u_ij) + Tr_d(beta v_ij), one pair of trace lookups
    per entry of :func:`gram_entries`: Tr_d(pi**e) is read by exponent from
    the field's GF(q) index tables (FiniteField.subfield_index_tables) and
    the two traces are added there.
    """
    entries = gram_entries(field, params)
    tabs = field.subfield_index_tables(params.d)
    trace_of_power, add, codes = tabs.trace_of_power, tabs.add, tabs.codes
    log, n = field.log, field.n
    la, lb = log[alpha], log[beta]  # log[0] is a -1 sentinel
    a = [[0] * params.s for _ in range(params.s)]
    for i, j, u, v in entries:
        tu = trace_of_power[(la + log[u]) % n] if alpha else 0
        tv = trace_of_power[(lb + log[v]) % n] if beta else 0
        a[i][j] = a[j][i] = codes[add[tu][tv]]
    return a


def diagonalize(field: FiniteField, d: int, matrix: list[list[int]]) -> tuple[int, int]:
    """(rank, eps) of a symmetric matrix over GF(p**d) (char != 2).

    The entries (field codes) are mapped once to the GF(q) indices of
    FiniteField.subfield_index_tables, which refuses any entry outside
    GF(p**d) (InternalInconsistency); the elimination then runs on the
    index tables.  Symmetric Gaussian elimination, one column at a time.
    When the pivot a[j][j] is zero, the first row t > j with a[t][j] != 0 is
    added c times to row j, then column t c times to column j, which plants
    2 c a[t][j] + a[t][t] on the diagonal: c = 1 unless that is zero, then
    c = -1 (both vanish only if 4 a[t][j] = 0, impossible in odd
    characteristic).  A column with no such t is zero and is skipped.  The
    rank counts the pivots and eps is eta_d of their product (+1 at rank 0);
    both are congruence invariants.  batch.batched_rank_disc runs the same
    rule on a batch of matrices.
    """
    tabs = field.subfield_index_tables(d)
    index = tabs.index
    try:
        a = [[index[x] for x in row] for row in matrix]
    except KeyError:
        raise InternalInconsistency(f"matrix entry outside GF({field.p}^{d})") from None
    add, sub, mul, inv, chi = tabs.add, tabs.sub, tabs.mul, tabs.inv, tabs.chi
    s = len(a)
    r, eps = 0, 1
    for j in range(s):
        if a[j][j] == 0:
            t = next((t for t in range(j + 1, s) if a[t][j]), None)
            if t is None:
                continue  # column j is zero
            twice = add[a[t][j]][a[t][j]]
            op = sub if add[twice][a[t][t]] == 0 else add
            a[j] = [op[x][y] for x, y in zip(a[j], a[t])]
            for row in a:
                row[j] = op[row[j]][row[t]]
        piv = a[j][j]
        if piv == 0:
            raise InternalInconsistency("pivot fix-up failed")
        by_inverse = mul[inv[piv]]
        for t in range(j + 1, s):
            c = by_inverse[a[t][j]]
            if c:
                by_c = mul[c]
                a[t] = [sub[x][by_c[y]] for x, y in zip(a[t], a[j])]
        for t in range(j + 1, s):
            a[j][t] = 0
        r += 1
        eps *= chi[piv]
    return r, eps
