"""Vectorized class and weight kernels over orbit representatives of the pairs.

Everything here is exact integer work in numpy: subfield arithmetic becomes
table gathers, the Gram matrix of every pair in a chunk is assembled from
per-entry trace tables of the constants (u_ij, v_ij) of
quadforms.gram_entries (A[i][j] = Tr_d(alpha u_ij) + Tr_d(beta v_ij), the
same entries the scalar quadforms.gram_matrix reads), and a batched
symmetric Gaussian elimination reads off rank and discriminant character
for the whole chunk at once, by the pivot rule of the scalar
quadforms.diagonalize and with the same (rank, eps) result.  Scalar
reference implementations of the same operations live in quadforms and
expsums; the test suite checks the two routes against each other
exhaustively on small fields.

Field tables.  The kernels read the field's int64 exp and log tables in
place (read-only views, :func:`field_table`) and take each multiplier of
the code, a power of pi, as its exponent: the coordinate steps and the
twist are shifts by (e, w) = CodeParams.coordinate_exponents.

Representatives.  The substitution x -> c x (c in GF(p**m)*) sends
(alpha, beta) to (alpha c**(p**k+1), beta c**2).  It keeps the class of f,
commutes with the twist (so keeps the class of g), and for c = pi**j it
shifts the codeword cyclically by 2j (so keeps the weight).  Every census
therefore runs over the 3 p**m representatives (alpha, beta0), alpha over
the whole field and beta0 in {0, 1, pi}, in that row order (index =
row * p**m + alpha_code, so (0, 0) is index 0):

* the beta0 = 0 row stands for itself, weight 1 per pair;
* a pair with beta != 0 goes to the row whose beta0 (1, or the nonsquare
  pi) has the quadratic character of beta, by exactly the two c = +-c0
  with c**2 = beta0 / beta; -1 acts trivially because p**k + 1 is even,
  so each representative of these rows stands for (p**m - 1) / 2 pairs.

The weights sum to p**m + p**m (p**m - 1) = p**(2m).  The twist of a
representative lies in the orbit of another one, so the class of g is read
off f there (:func:`twist_index`): one Gram matrix per representative.

Classes.  The pass stores the (rank, discriminant character eps) class of a
form as rank * 2 + (eps == -1) in a uint8; the zero pair is (0, +1).  Only
:func:`joint_histogram` unpacks it (through :func:`unpack_class`): every
consumer reads the census keyed by ((rank_f, eps_f), (rank_g, eps_g)).

Direct oracles.  The last section runs over *all* p**(2m) pairs, in blocks
of alpha rows, and shares neither the Gram matrices nor the representatives
above: T and S come from one exact additive Fourier transform over GF(p)**m
per block, the rank from the GF(p)-nullity of phi.  :func:`direct_census`
counts the pairs by the value of T or S, optionally joined with the phi
rank; the power-sum identities fold that (S, rank) census, so no per-pair
product is ever formed.  They are the independent check on everything the
orbit-reduced pass computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency, check_budget
from .gf import FiniteField
from .quadforms import CodeParams, gram_entries, phi_matrix

DEFAULT_CHUNK = 1 << 18   # pairs per Gram-elimination batch
BRUTE_CHUNK = 1 << 22     # trace entries per block of brute-force alpha rows
DIRECT_BLOCK = 1 << 16    # counts or phi-matrix entries per block of the direct passes
PAIR_BUDGET = 50_000_000            # Gram matrices of the pair pass; pairs of the phi census
DEFAULT_BRUTE_BUDGET = 400_000_000  # coordinate checks of the brute pass
DEFAULT_DIRECT_BUDGET = 20_000_000  # terms of a direct pass


@dataclass
class SubfieldTables:
    """GF(q) arithmetic on indices 0..q-1 (index 0 is the zero element)."""

    codes: np.ndarray      # subfield index -> field code
    add: np.ndarray        # (q, q) uint8
    sub: np.ndarray        # (q, q) uint8
    mul: np.ndarray        # (q, q) uint8
    inv: np.ndarray        # (q,) uint8, inv[0] = 0 sentinel
    chi: np.ndarray        # (q,) int8 quadratic character, chi[0] = 1 sentinel


def subfield_tables(field: FiniteField, d: int) -> SubfieldTables:
    """numpy copies of the field's GF(q) index tables (FiniteField.subfield_index_tables)."""
    tabs = field.subfield_index_tables(d)
    return SubfieldTables(
        codes=np.array(tabs.codes),
        add=np.array(tabs.add, np.uint8),
        sub=np.array(tabs.sub, np.uint8),
        mul=np.array(tabs.mul, np.uint8),
        inv=np.array(tabs.inv, np.uint8),
        chi=np.array(tabs.chi, np.int8),
    )


def batched_rank_disc(mats: np.ndarray, tabs: SubfieldTables) -> tuple[np.ndarray, np.ndarray]:
    """Rank and discriminant character of a batch of symmetric matrices.

    mats: (N, s, s) uint8 subfield indices, symmetric; consumed destructively
    on a copy.  Returns (rank uint8, disc int8), per matrix the (rank, eps)
    of the scalar quadforms.diagonalize, by the same pivot rule: a zero
    pivot over a nonzero column takes c times the first row t below it with
    a[t][j] != 0 (and then c times column t), c = -1 where
    2 a[t][j] + a[t][t] = 0 and c = 1 elsewhere; a zero column is skipped.
    """
    a = mats.copy()
    n, s, _ = a.shape
    rank = np.zeros(n, np.uint8)
    disc = np.ones(n, np.int8)
    add, sub, mul, inv, chi = tabs.add, tabs.sub, tabs.mul, tabs.inv, tabs.chi
    for j in range(s):
        below = a[:, j + 1 :, j] != 0
        column = below.any(axis=1)
        idx = np.nonzero((a[:, j, j] == 0) & column)[0]
        if idx.size:
            rows = np.arange(idx.size)
            t = j + 1 + below[idx].argmax(axis=1)
            block = a[idx]
            atj = block[rows, t, j]
            minus = (add[add[atj, atj], block[rows, t, t]] == 0)[:, None]
            # row j += c row t, then column j += c column t; entries before
            # column (row) j are already cleared, so only the rest is updated.
            line, other = block[:, j, j:], block[rows, t, j:]
            block[:, j, j:] = np.where(minus, sub[line, other], add[line, other])
            line, other = block[:, j:, j], block[rows, j:, t]
            block[:, j:, j] = np.where(minus, sub[line, other], add[line, other])
            a[idx] = block
        piv = a[:, j, j]
        active = piv != 0
        if (~active & column).any():
            raise InternalInconsistency("pivot fix-up failed")
        if j + 1 < s:
            # inv[0] = 0: a skipped zero column clears nothing.
            factors = mul[a[:, j + 1 :, j], inv[piv][:, None]]
            prod = mul[factors[:, :, None], a[:, None, j, j:]]
            a[:, j + 1 :, j:] = sub[a[:, j + 1 :, j:], prod]
            a[:, j, j + 1 :] = 0
        rank += active
        disc = np.where(active, disc * chi[piv], disc)
    return rank, disc


def field_table(field: FiniteField, name: str) -> np.ndarray:
    """The field's int64 exp, log or zech table as a read-only numpy view, not a copy."""
    view = np.frombuffer(getattr(field, name), np.int64)
    view.flags.writeable = False
    return view


def _log_gather(field: FiniteField, by_log: np.ndarray, alphas, exponents) -> np.ndarray:
    """by_log[log(a) + e mod n] for a in alphas (codes, rows) and e in exponents (columns).

    by_log[e] is the value at pi**e of a function that vanishes at 0; the
    exponent -1 stands for 0, so entries with a = 0 or e = -1 read 0.
    """
    la = field_table(field, "log")[np.asarray(alphas, np.int64)]
    le = np.asarray(exponents, np.int64)
    at = la[:, None] + le[None, :]
    at %= field.n
    out = by_log[at]
    out[la < 0] = 0  # log[0] is a -1 sentinel
    out[:, le < 0] = 0
    return out


def trace_of_powers(field: FiniteField, d: int) -> np.ndarray:
    """Subfield index of Tr_d(pi**e) for every exponent e, a read-only uint8 view.

    A view of FiniteField.subfield_index_tables(d).trace_of_power; indices
    are those of :func:`subfield_tables`.  At d = 1 the index is the trace
    value itself, since the codes of GF(p) are 0..p-1.
    """
    return np.frombuffer(field.subfield_index_tables(d).trace_of_power, np.uint8)


def _gram_entry_tables(field: FiniteField, params: CodeParams):
    """Per-(i, j) lookup tables turning (alpha, beta) codes into Gram entries.

    For each (i, j, u_ij, v_ij) of quadforms.gram_entries, tu[alpha] and
    tv[beta] are the subfield indices of Tr_d(alpha u_ij) and Tr_d(beta v_ij),
    so A[i][j](alpha, beta) = add[tu[alpha], tv[beta]].
    """
    entries = gram_entries(field, params)
    trace_of_power = trace_of_powers(field, params.d)
    every_code, log = np.arange(field.order), field_table(field, "log")
    return [
        (i, j, *_log_gather(field, trace_of_power, every_code, log[[u, v]]).T)
        for i, j, u, v in entries
    ]


def pair_classes(
    field: FiniteField, params: CodeParams, alphas: np.ndarray, betas: np.ndarray
) -> np.ndarray:
    """Packed class of f at each pair (alphas[i], betas[i]), as a uint8 array."""
    entries = _gram_entry_tables(field, params)
    tabs = subfield_tables(field, params.d)
    s = params.s
    out = np.empty(alphas.size, np.uint8)
    for lo in range(0, alphas.size, DEFAULT_CHUNK):
        a = alphas[lo : lo + DEFAULT_CHUNK]
        b = betas[lo : lo + DEFAULT_CHUNK]
        mats = np.empty((a.size, s, s), np.uint8)
        for i, j, tu, tv in entries:
            vals = tabs.add[tu[a], tv[b]]
            mats[:, i, j] = vals
            if i != j:
                mats[:, j, i] = vals
        rank, disc = batched_rank_disc(mats, tabs)
        out[lo : lo + a.size] = rank * 2 + (disc < 0)
    return out


def representative_rows(field: FiniteField) -> tuple[tuple[int, int], ...]:
    """(beta0, pairs per representative) of the three representative rows."""
    half = field.n // 2
    return ((0, 1), (1, half), (field.primitive_element, half))


@dataclass(frozen=True, eq=False)
class ClassData:
    """Classes of f and g at every representative, and the pairs each stands for."""

    f: np.ndarray       # (3 p**m,) uint8 packed class of f
    g: np.ndarray       # (3 p**m,) uint8 packed class of g: f at the twist's representative
    weight: np.ndarray  # (3 p**m,) int64 orbit size; sums to p**(2m)


def t_class_data(
    field: FiniteField, params: CodeParams, *, budget: int | None = None
) -> ClassData:
    """Classes of f and g at every representative pair, with orbit weights.

    The kernel runs on the representatives only; g is f read at
    :func:`twist_index`.  Rank 0 may occur only at the zero pair (index 0)
    and every other rank, of f and of g, must lie in the trichotomy
    {s-2, s-1, s}; any violation aborts.  A pass of more than budget Gram
    matrices (None: :data:`PAIR_BUDGET`) is refused, before any reuse.  The
    result is memoized on the field per params, since several censuses share
    the same pass.
    """
    rows = representative_rows(field)
    matrices = len(rows) * field.order  # f at every representative
    check_budget("pair pass", matrices, "Gram matrices", budget, PAIR_BUDGET)

    def compute() -> ClassData:
        order = field.order
        alphas = np.tile(np.arange(order, dtype=np.int64), len(rows))
        betas = np.repeat(np.array([b for b, _ in rows], np.int64), order)
        weight = np.repeat(np.array([w for _, w in rows], np.int64), order)
        f = pair_classes(field, params, alphas, betas)
        data = ClassData(f=f, g=f[twist_index(field, params)], weight=weight)
        for cls in (data.f, data.g):
            ranks = cls >> 1
            if ranks[0] != 0 or (ranks[1:] < params.s - 2).any():
                raise InternalInconsistency("rank trichotomy violated outside the zero pair")
        return data

    return field.memoized(("t_class_data", params), compute)


def twist_index(field: FiniteField, params: CodeParams) -> np.ndarray:
    """Index of the representative whose orbit holds the twist of each representative.

    The twist (quadforms.twist_pair) sends (alpha, beta0) to (pi**e alpha,
    beta'), beta' = -pi beta0 = pi**w beta0, (e, w) the coordinate_exponents.
    For beta0 = 0 that is a representative of row 0.  Otherwise its row is
    the beta0 in {1, pi} with the quadratic character of beta', the parity
    of log beta' (log 1 = 0, log pi = 1), reached by x -> c x with
    c**2 = beta0 / beta'; that scales alpha by c**(p**k + 1) = (c**2)**e, so
    the alpha there is pi**e (c**2)**e alpha: log arithmetic mod n only.
    """
    n, (e, w) = field.n, params.coordinate_exponents
    logs = field_table(field, "log")[[beta0 for beta0, _ in representative_rows(field)]].tolist()
    targets, shifts = [0], [e]  # beta0 = 0 (log -1) stays on row 0
    for lb in logs[1:]:
        lt = (lb + w) % n  # log beta'
        targets.append(1 + lt % 2)
        shifts.append(e * (1 + logs[targets[-1]] - lt) % n)
    alphas = _log_gather(field, field_table(field, "exp"), np.arange(field.order), shifts)
    return (alphas + field.order * np.array(targets)).T.ravel()


def unpack_class(cls: int) -> tuple[int, int]:
    """(rank, eps) of a packed class."""
    return cls >> 1, -1 if cls & 1 else 1


def joint_histogram(
    params: CodeParams, data: ClassData
) -> dict[tuple[tuple[int, int], tuple[int, int]], int]:
    """Pairs by ((rank_f, eps_f), (rank_g, eps_g)), as Python ints.

    data is the pass of :func:`t_class_data` for these params; its
    weights must account for all p**(2m) pairs.  Absent classes are omitted.
    """
    width = 2 * params.s + 2
    counts = np.zeros((width, width), np.int64)
    np.add.at(counts, (data.f, data.g), data.weight)
    if int(counts.sum()) != params.pairs:
        raise InternalInconsistency(f"class data covers {counts.sum()} of {params.pairs} pairs")
    rows, cols = np.nonzero(counts)
    return {
        (unpack_class(cf), unpack_class(cg)): int(counts[cf, cg])
        for cf, cg in zip(rows.tolist(), cols.tolist())
    }


# -- brute-force codeword weights --------------------------------------------


def trace_rows(field: FiniteField, alphas, exponents) -> np.ndarray:
    """(len(alphas), len(exponents)) uint8 Tr_1^m(alphas[i] pi**exponents[j]), pi**-1 = 0."""
    return _log_gather(field, trace_of_powers(field, 1), alphas, exponents)


def brute_weight_histogram(code, *, budget: int | None = None) -> list[int]:
    """Weight histogram over all pairs by direct coordinate counting.

    Distinct pairs give distinct codewords (the code has dimension 2m), so
    the pair census is the codeword census.  Each block of alpha rows of the
    trace matrix is compared against the broadcast row of every
    representative beta0, and each weight counts once per pair its
    representatives stand for.  A block holds about BRUTE_CHUNK trace
    entries, which bounds the memory of the pass.  A pass of more than
    budget coordinate checks (None: :data:`DEFAULT_BRUTE_BUDGET`) is refused.
    """
    field, n = code.field, code.n
    rows = representative_rows(field)
    checks = len(rows) * field.order * n
    check_budget("brute enumeration", checks, "coordinate checks", budget, DEFAULT_BRUTE_BUDGET)
    steps = np.arange(n, dtype=np.int64)
    u_steps, w_steps = (e * steps % n for e in code.params.coordinate_exponents)
    neg_rw = (field.p - trace_rows(field, [beta for beta, _ in rows], w_steps)) % field.p
    hist = np.zeros(n + 1, np.int64)
    step = max(1, BRUTE_CHUNK // n)
    for lo in range(0, field.order, step):
        ru = trace_rows(field, np.arange(lo, min(lo + step, field.order)), u_steps)
        for r, (_, weight) in enumerate(rows):
            zeros = (ru == neg_rw[r]).sum(axis=1)
            hist += weight * np.bincount(n - zeros, minlength=n + 1)
    return [int(h) for h in hist]


# -- direct oracles over all pairs -------------------------------------------


def alpha_blocks(order: int, per_pair: int):
    """Blocks of alpha rows with every beta, about DIRECT_BLOCK entries a block.

    A pair holds per_pair entries and a block at least one row.  Yields the
    rows and their pairs (alphas, betas) in the order alpha * order + beta.
    """
    step = max(1, DIRECT_BLOCK // (order * per_pair))
    every = np.arange(order, dtype=np.int64)
    for lo in range(0, order, step):
        rows = every[lo : lo + step]
        yield rows, (np.repeat(rows, order), np.tile(every, rows.size))


def _fourier(counts: np.ndarray, p: int, m: int) -> np.ndarray:
    """sum_z counts[z] zeta_p**(w . z) at every w in GF(p)**m, as zeta-power counts.

    counts is (power of zeta_p, rows, code of z); the digits of a code are
    its vector.  One digit axis at a time, innermost first, out[w] = sum_c
    in[c] zeta_p**(w c): a factor zeta_p**j moves the count at power s to
    s + j.  Each output digit goes in front of the rows, so the result is
    (power, code of w, rows).  Nothing is reduced mod the cyclotomic
    polynomial, so the counts stay exact term counts.
    """
    powers = np.arange(p)
    for _ in range(m):
        counts = counts.reshape(p, -1, p)
        out = np.empty((p, p, counts.shape[1]), counts.dtype)
        for w in range(p):
            out[:, w] = sum(counts[(powers - w * c) % p, :, c] for c in range(p))
        counts = out
    return counts.reshape(p, p**m, -1)


def direct_counts(
    field: FiniteField, params: CodeParams, alphas: np.ndarray, twisted: bool = False
) -> np.ndarray:
    """(len(alphas), p**m, p) counts c with T(alpha, beta) = sum c_j zeta_p**j.

    Entry [i, beta] is the pair (alphas[i], beta).  Row alpha is the Fourier
    transform of g(z) = sum of zeta_p**Tr(alpha x**(p**k+1)) over x**2 = z,
    read at w = M b, M_ij = Tr(x**i x**j), since Tr(beta z) = b . M z for
    digit vectors.  With twisted, the counts of S: T at the twist (pi**e alpha,
    pi**w beta) is added, its row x = pi**t at 2e t + e, beta shifted by w.
    """
    p, n, order = params.p, field.n, field.order
    exp, log = field_table(field, "exp"), field_table(field, "log")
    e, w = params.coordinate_exponents
    t = np.arange(n, dtype=np.int64)
    powers = p ** np.arange(field.m)
    counts = 0
    for shift, beta_shift in [(0, 0), (e, w)] if twisted else [(0, 0)]:
        read = trace_rows(field, np.arange(order), (log[powers] + beta_shift) % n) @ powers  # M b
        values = trace_rows(field, alphas, (2 * e * t + shift) % n).astype(np.int64)
        index = (values * alphas.size + np.arange(alphas.size)[:, None]) * order + exp[2 * t % n]
        g = np.bincount(index.ravel(), minlength=p * alphas.size * order).reshape(p, -1, order)
        g[0, :, 0] += 1  # x = 0
        counts = counts + _fourier(g, p, field.m)[:, read]
    return counts.transpose(2, 1, 0)


def direct_terms(field: FiniteField, twisted: bool) -> int:
    """Terms of a direct pass: p**m per pair and per T it takes."""
    return (2 if twisted else 1) * field.order**3


def direct_census(
    field: FiniteField,
    params: CodeParams,
    *,
    twisted: bool,
    ranked: bool = False,
    budget: int | None = None,
) -> dict[tuple[int, ...], int]:
    """Pairs by the counts vector of T (of S when twisted), over all pairs.

    Each key is the p counts of :func:`direct_counts`, one transform per
    block of alpha rows; with ranked, the :func:`phi_ranks` rank of f at the
    pair follows them as one more entry, so the census is joint in value and
    rank.  The pass touches no Gram matrix and no orbit representative, and
    refuses more than budget :func:`direct_terms` (None: :data:`DEFAULT_DIRECT_BUDGET`).
    """
    params.check_field(field)
    what = "direct identity check" if ranked else f"direct {'S' if twisted else 'T'} census"
    check_budget(what, direct_terms(field, twisted), "terms", budget, DEFAULT_DIRECT_BUDGET)
    per_pair = params.p * (2 if twisted else 1) + (field.m * field.m if ranked else 0)
    out: dict[tuple[int, ...], int] = {}
    for alphas, pairs in alpha_blocks(field.order, per_pair):
        rows = direct_counts(field, params, alphas, twisted).reshape(-1, params.p)
        if ranked:
            rows = np.column_stack([rows, phi_ranks(field, params, *pairs)])
        # One int64 key per row; re-ranked to 0..distinct-1 before an overflow.
        key, span = np.zeros(len(rows), np.int64), 1
        for column in rows.T:
            width = int(column.max()) + 1
            if span * width >= 1 << 62:
                _, key = np.unique(key, return_inverse=True)
                span = int(key.max()) + 1
            key, span = key * width + column, span * width
        _, first, freq = np.unique(key, return_index=True, return_counts=True)
        for row, f in zip(map(tuple, rows[first].tolist()), freq.tolist()):
            out[row] = out.get(row, 0) + f
    return out


def phi_tables(field: FiniteField, params: CodeParams) -> tuple[np.ndarray, np.ndarray]:
    """GF(p) matrices of phi at (alpha, 0) and at (0, beta), uint8 (p**m, m, m).

    phi is GF(p)-linear in alpha and in beta separately, so the matrix of a
    code is the digit-weighted sum of the matrices of the basis codes p**j,
    and the matrix at (alpha, beta) is row alpha of the first table plus row
    beta of the second, mod p.  Memoized on the field per params.
    """

    def compute() -> tuple[np.ndarray, np.ndarray]:
        params.check_field(field)
        p, m = field.p, field.m
        digits = np.arange(field.order)[:, None] // p ** np.arange(m) % p

        def tabulate(basis: list) -> np.ndarray:
            return (np.tensordot(digits, np.array(basis), axes=1) % p).astype(np.uint8)

        return (
            tabulate([phi_matrix(field, params, p**j, 0) for j in range(m)]),
            tabulate([phi_matrix(field, params, 0, p**j) for j in range(m)]),
        )

    return field.memoized(("phi_tables", params), compute)


def nullity_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """GF(p)-nullity of each matrix of an (N, r, c) batch with entries in [0, p).

    Row reduction column by column: each matrix takes its first row with a
    nonzero entry in the column among the rows not yet used as a pivot,
    and adds to every other row the multiple of it that clears the column.
    Only the later columns are updated, since no earlier one is read again,
    and entries are reduced mod p only where they are read: unreduced, they
    stay below p + c p**2, far inside uint32.
    """
    a = mats.astype(np.uint32)
    n, nrows, ncols = a.shape
    mod = np.uint32(p)
    inv = np.array([0] + [pow(c, -1, p) for c in range(1, p)], np.uint32)
    free = np.ones((n, nrows), bool)
    rank = np.zeros(n, np.int64)
    every = np.arange(n)
    for col in range(ncols):
        column = a[:, :, col] % mod
        candidates = (column != 0) & free
        found = candidates.any(axis=1)
        piv = candidates.argmax(axis=1)
        if col + 1 < ncols:
            # inv[0] = 0 clears the multipliers of a matrix without a pivot.
            clear = (mod - column * inv[column[every, piv] * found][:, None] % mod) % mod
            clear[every, piv] = 0
            pivot_row = a[every, piv, col + 1 :] % mod
            a[:, :, col + 1 :] += clear[:, :, None] * pivot_row[:, None, :]
        free[every[found], piv[found]] = False
        rank += found
    return ncols - rank


def phi_ranks(
    field: FiniteField, params: CodeParams, alphas: np.ndarray, betas: np.ndarray
) -> np.ndarray:
    """Rank of f at each pair: s - (GF(p)-nullity of phi) / d.

    Checked like quadforms.rank: every nullity is a multiple of d, and away
    from the zero pair (rank 0) every rank lies in {s-2, s-1, s}.
    """
    d, s = params.d, params.s
    ma, mb = phi_tables(field, params)
    mats = ma[alphas] + mb[betas]
    mats %= params.p
    nullity = nullity_batch(mats, params.p)
    if (nullity % d).any():
        bad = int(nullity[np.argmax(nullity % d != 0)])
        raise InternalInconsistency(f"phi-nullity {bad} not divisible by d={d}")
    ranks = s - nullity // d
    low = (ranks < s - 2) & ((alphas != 0) | (betas != 0))
    if low.any():
        bad = int(ranks[np.argmax(low)])
        raise InternalInconsistency(f"rank {bad} outside the trichotomy at s={s}")
    return ranks


def phi_rank_histogram(
    field: FiniteField, params: CodeParams, *, budget: int | None = None
) -> dict[int, int]:
    """Nonzero pairs by phi rank, over all pairs; more than budget pairs is refused."""
    check_budget("phi rank census", field.order**2, "pairs", budget, PAIR_BUDGET)
    counts = np.zeros(params.s + 1, np.int64)
    for _, pairs in alpha_blocks(field.order, field.m * field.m):
        counts += np.bincount(phi_ranks(field, params, *pairs), minlength=params.s + 1)
    counts[0] -= 1  # the zero pair
    return {r: int(c) for r, c in enumerate(counts.tolist()) if c}

