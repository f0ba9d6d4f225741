"""Vectorized class and weight kernels over orbit representatives of the pairs.

Everything here is exact integer work in numpy: subfield arithmetic becomes
table gathers, the Gram matrix of every pair in a block is read by exponent
off Tr_d(pi**e) (A[i][j] = Tr_d(pi**(a + log u_ij)) + Tr_d(pi**(b + log v_ij))
at (pi**a, pi**b), u_ij and v_ij of quadforms.gram_entries as in the scalar
quadforms.gram_matrix), and a batched symmetric Gaussian elimination reads
off rank and discriminant character for the whole block at once, by the
pivot rule of the scalar quadforms.diagonalize and with the same (rank,
eps) result.  Scalar reference implementations of the same operations live
in quadforms and expsums; the test suite checks the two routes against each
other exhaustively on small fields.

Field tables.  The kernels read the field's int64 exp and log tables in
place (read-only views, :func:`field_table`) and take each multiplier of
the code, a power of pi, as its exponent: the representatives, the Gram
constants, the coordinate steps and the twist, (e, w) = coordinate_exponents.
Every trace is read one way, off the 3n-byte :func:`read_table` at a + e for
a multiplier pi**a (a = -1 for 0) and 0 <= e < n: no read reduces mod n.

Representatives.  x -> c x (c in GF(p**m)*) sends (alpha, beta) to
(alpha c**(p**k+1), beta c**2) and shifts the codeword cyclically; the
Frobenius (alpha, beta) -> (alpha**p, beta**p) permutes its coordinates.
Both keep the weight and the classes of f and of g (they commute with the
twist up to an x -> c x).  :func:`representatives` lists one pair (pi**a,
pi**b) per orbit, -1 for 0, with the number of pairs it stands for:

* b = -1: alpha = 0 (1 pair) and pi**j for j < g = gcd(p**k + 1, n) (n/g);
* b = 0 and 1, beta0 = 1 and the nonsquare pi (a beta != 0 reaches the
  beta0 of its character by c = +-c0, and -1 fixes alpha): alpha = 0 (n/2)
  and each a least in its cycle under a -> p a + (1 - p) e b mod n, the
  Frobenius and then the c that brings pi**(p b) back to pi**b (n/2 times
  the cycle length, a divisor of m).

The zero pair is index 0; the sizes sum to p**m + p**m n = p**(2m).  The
class and brute passes take their pairs only from this list, and g is f
at the twist (pi**(a + e), pi**(b + w)), (e, w) = coordinate_exponents, by
its own elimination.

Classes.  The pass stores the (rank, discriminant character eps) class of a
form as rank * 2 + (eps == -1) in a uint8; the zero pair is (0, +1).  Only
:func:`joint_histogram` unpacks it (through :func:`unpack_class`), as it
weights the classes of f and g at each representative by its size.  The
pass keeps nothing but that census, keyed by ((rank_f, eps_f), (rank_g,
eps_g)): :func:`t_class_data` memoizes it, and every consumer reads it.

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

import math

import numpy as np

from .errors import InternalInconsistency, check_budget
from .gf import FiniteField
from .quadforms import CodeParams, gram_entries, phi_matrix

BLOCK_BYTES = 1 << 19  # working set of one block of every blocked pass
PAIR_BUDGET = 50_000_000            # Gram matrices of the pair pass; pairs of the phi census
DEFAULT_BRUTE_BUDGET = 400_000_000  # coordinate checks of the brute pass
DEFAULT_DIRECT_BUDGET = 20_000_000  # terms of a direct pass


class SubfieldTables:
    """GF(q) arithmetic on indices 0..q-1 (index 0 is the zero element)."""

    __slots__ = ("codes", "add", "sub", "mul", "inv", "chi")

    def __init__(
        self,
        codes: np.ndarray,      # subfield index -> field code
        add: np.ndarray,        # (q, q) uint8
        sub: np.ndarray,        # (q, q) uint8
        mul: np.ndarray,        # (q, q) uint8
        inv: np.ndarray,        # (q,) uint8, inv[0] = 0 sentinel
        chi: np.ndarray,        # (q,) int8 quadratic character, chi[0] = 1 sentinel
    ) -> None:
        self.codes = codes
        self.add = add
        self.sub = sub
        self.mul = mul
        self.inv = inv
        self.chi = chi


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


def block_size(unit_bytes: int) -> int:
    """Rows or pairs per block when each takes unit_bytes: about BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // unit_bytes)


def batched_rank_disc(mats: np.ndarray, tabs: SubfieldTables) -> tuple[np.ndarray, np.ndarray]:
    """Rank and discriminant character of a batch of symmetric matrices.

    mats: (N, s, s) uint8 subfield indices, symmetric; the elimination runs
    in place and overwrites them.  Returns (rank uint8, disc int8), per
    matrix the (rank, eps) of the scalar quadforms.diagonalize, by the same
    pivot rule: a zero pivot over a nonzero column takes c times the first
    row t below it with a[t][j] != 0 (and then c times column t), c = -1
    where 2 a[t][j] + a[t][t] = 0 and c = 1 elsewhere; a zero column is
    skipped.
    """
    a = mats
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


def read_table(field: FiniteField, d: int) -> np.ndarray:
    """Subfield index of Tr_d(pi**e) at e and at n + e (0 <= e < n), then n zeros: 3n uint8.

    A zero multiplier (log -1) is read at 2n.  Indices are those of
    :func:`subfield_tables`; at d = 1 the index is the trace value itself.
    """
    trace = np.frombuffer(field.subfield_index_tables(d).trace_of_power, np.uint8)
    return np.concatenate([trace, trace, np.zeros(field.n, np.uint8)])


def pair_classes(
    field: FiniteField, params: CodeParams, alphas: np.ndarray, betas: np.ndarray
) -> np.ndarray:
    """Packed class of f at each pair (alphas[i], betas[i]) of codes, as a uint8 array."""
    log = field_table(field, "log")
    return _block_classes(field, params, log[alphas], log[betas])[0]


def _block_classes(
    field: FiniteField, params: CodeParams, a: np.ndarray, b: np.ndarray, shifts=((0, 0),)
) -> np.ndarray:
    """Packed class of f at (pi**(a[i] + t), pi**(b[i] + u)), row per shift (t, u) of shifts.

    a and b are exponents, -1 for 0 as in field.log, and a shift keeps -1 at
    -1; each block is eliminated once per shift, off one read table.  A[i][j]
    = add[Tr_d(pi**(a + log u_ij)), Tr_d(pi**(b + log v_ij))] is read off
    :func:`read_table`, the -1 of alpha or beta = 0 moved to 2n.

    A pair takes 4 s**2 + 64 bytes of a block (tracemalloc: 244, 300, 366
    and 435 at s = 8..11, with its int64 exponents and pivot indices): the
    uint8 matrix and the uint8 products of its elimination.  numpy casts the
    uint8 index arrays of the gathers to intp in fixed-size buffers, so
    those cost a block a constant; the pass adds its 3n-byte read table.
    """
    n, s, log = field.n, params.s, field.log
    entries = [(i, j, log[u], log[v]) for i, j, u, v in gram_entries(field, params)]
    read = read_table(field, params.d)
    tabs = subfield_tables(field, params.d)
    step = block_size(4 * s * s + 64)
    out = np.empty((len(shifts), a.size), np.uint8)
    for lo in range(0, a.size, step):
        # int64, like every index here: int32 loops add 0.4 MiB of numpy code to the RSS.
        ab = (a[lo : lo + step].astype(np.int64), b[lo : lo + step].astype(np.int64))
        for classes, shift in zip(out, shifts):
            ea, eb = (np.where(x < 0, 2 * n, (x + t) % n) for x, t in zip(ab, shift))
            mats = np.empty((ea.size, s, s), np.uint8)
            for i, j, lu, lv in entries:
                vals = tabs.add[read[ea + lu], read[eb + lv]]
                mats[:, i, j] = vals
                if i != j:
                    mats[:, j, i] = vals
            rank, disc = batched_rank_disc(mats, tabs)
            classes[lo : lo + ea.size] = rank * 2 + (disc < 0)
    return out


def representatives(
    field: FiniteField, params: CodeParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbit representatives (pi**a, pi**b) of all pairs: int32 a, b (-1 for 0), int64 sizes.

    size[i] is the number of pairs representative i stands for, the zero
    pair first; see the module docstring for the orbits.
    """
    params.check_field(field)
    n, p, m, e = field.n, field.p, field.m, params.twist_exponent
    g, half = math.gcd(2 * e, n), n // 2  # g = gcd(p**k + 1, n)

    def run(row, a, sizes):  # int32 exponents are kept: n < 2**21 under the table budget
        return np.asarray(a, np.int32), np.full(len(a), row, np.int32), np.asarray(sizes, np.int64)

    parts = [run(-1, range(-1, g), [1] + [n // g] * g)]
    # Pairs per cycle minimum by its r returns in m steps: n/2 times the cycle
    # length m / r, looked up; numpy's integer division adds 0.4 MiB to the RSS.
    cycle_sizes = np.array([0] + [half * (m // r) for r in range(1, m + 1)])
    # An exponent takes 40 bytes of a block of the walk, int64 steps and counts
    # (tracemalloc: 37.9 to 39.4 at p**m = 3**8, 3**10, 5**6 and 7**5).
    step = block_size(40)
    for row in (0, 1):
        shift = (1 - p) * e * row % n  # Frobenius on alpha at beta0 = pi**row
        parts.append(run(row, [-1], [half]))
        for lo in range(0, n, step):
            first = np.arange(lo, min(lo + step, n))
            x, least, returns = first, np.ones(first.size, bool), np.zeros_like(first)
            for _ in range(m):  # the cycle length divides m
                x = (p * x + shift) % n
                least &= x >= first  # no step of the cycle lands below a
                returns += x == first
            parts.append(run(row, first[least], cycle_sizes[returns[least]]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def t_class_data(
    field: FiniteField, params: CodeParams, *, budget: int | None = None
) -> dict[tuple[tuple[int, int], tuple[int, int]], int]:
    """Joint class census of all pairs: :func:`joint_histogram` of :func:`representative_classes`.

    The pass eliminates two Gram matrices per representative, f and g, and
    more than budget of them (None: :data:`PAIR_BUDGET`) is refused, before
    any reuse.  The census and that count are memoized on the field per
    params; every consumer of the pass reads that one dict, unchanged.
    """
    walked = []  # the list, if this call walked it to count the matrices

    def matrices() -> int:
        walked.extend(representatives(field, params))
        return 2 * walked[0].size

    needed = field.memoized(("pair pass matrices", params), matrices)
    check_budget("pair pass", needed, "Gram matrices", budget, PAIR_BUDGET)

    def census() -> dict:
        a, b, sizes = walked or representatives(field, params)
        return joint_histogram(params, *representative_classes(field, params, a, b), sizes)

    return field.memoized(("t_class_data", params), census)


def representative_classes(
    field: FiniteField, params: CodeParams, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Packed classes of f and of g at the representatives (pi**a, pi**b), two uint8 arrays.

    g is f at the twist (pi**(a + e), pi**(b + w)), by its own elimination.
    Rank 0 may occur only at the zero pair, index 0, and every other rank
    must lie in the trichotomy {s-2, s-1, s}; any violation aborts.
    Unbudgeted and unmemoized, unlike :func:`t_class_data`.
    """
    f, g = _block_classes(field, params, a, b, ((0, 0), params.coordinate_exponents))
    for cls in (f, g):
        # A packed class 2 rank + eps bit has rank < s - 2 iff it is below
        # 2 (s - 2), so a minimum checks with no temporary.
        if cls[0] >> 1 != 0 or cls[1:].min() < 2 * (params.s - 2):
            raise InternalInconsistency("rank trichotomy violated outside the zero pair")
    return f, g


def unpack_class(cls: int) -> tuple[int, int]:
    """(rank, eps) of a packed class."""
    return cls >> 1, -1 if cls & 1 else 1


def joint_histogram(
    params: CodeParams, f: np.ndarray, g: np.ndarray, weights: np.ndarray
) -> dict[tuple[tuple[int, int], tuple[int, int]], int]:
    """Pairs by ((rank_f, eps_f), (rank_g, eps_g)), as Python ints.

    f and g are packed classes (:func:`representative_classes`), entry i
    standing for weights[i] pairs; together they must account for all
    p**(2m) pairs.  Absent classes are omitted.
    """
    width = 2 * params.s + 2
    counts = np.zeros((width, width), np.int64)
    np.add.at(counts, (f, g), weights)
    if int(counts.sum()) != params.pairs:
        raise InternalInconsistency(f"class data covers {counts.sum()} of {params.pairs} pairs")
    rows, cols = np.nonzero(counts)
    return {
        (unpack_class(cf), unpack_class(cg)): int(counts[cf, cg])
        for cf, cg in zip(rows.tolist(), cols.tolist())
    }


# -- brute-force codeword weights --------------------------------------------


def trace_rows(read: np.ndarray, alpha_logs, exponents) -> np.ndarray:
    """(len(alpha_logs), len(exponents)) uint8 Tr(pi**(alpha_logs[i] + exponents[j])).

    read is :func:`read_table` at d = 1, each exponent lies in 0..n-1 and an
    alpha log of -1 (alpha = 0) reads 0 at 2n.
    """
    la = np.asarray(alpha_logs, np.int64)
    la = np.where(la < 0, 2 * read.size // 3, la)
    return read[la[:, None] + np.asarray(exponents, np.int64)]


def brute_weight_histogram(code, *, budget: int | None = None) -> list[int]:
    """Weight histogram over all pairs by direct coordinate counting.

    Distinct pairs give distinct codewords (the code has dimension 2m), so
    the pair census is the codeword census.  Each of the
    :func:`representatives` reads Tr(alpha u_i) and -Tr(beta w_i) at every
    coordinate i, and its weight counts once per pair it stands for.  It
    takes 10 n bytes of a block (tracemalloc: 9.0 to 9.5 per coordinate at
    n = 2186, 10.0 at 6560): the int64 gather index of a :func:`trace_rows`
    and the uint8 traces.  More than budget coordinate checks (None:
    :data:`DEFAULT_BRUTE_BUDGET`) is refused.
    """
    field, n = code.field, code.n
    a, b, sizes = representatives(field, code.params)
    checks = a.size * n
    check_budget("brute enumeration", checks, "coordinate checks", budget, DEFAULT_BRUTE_BUDGET)
    read, steps = read_table(field, 1), np.arange(n, dtype=np.int64)
    u_steps, w_steps = (e * steps % n for e in code.params.coordinate_exponents)
    hist = np.zeros(n + 1, np.int64)
    step = block_size(10 * n)
    for lo in range(0, a.size, step):
        neg = (field.p - trace_rows(read, b[lo : lo + step], w_steps)) % field.p
        zeros = (trace_rows(read, a[lo : lo + step], u_steps) == neg).sum(axis=1)
        np.add.at(hist, n - zeros, sizes[lo : lo + step])
    return [int(h) for h in hist]


# -- direct oracles over all pairs -------------------------------------------


def alpha_blocks(order: int, pair_bytes: int):
    """Blocks of alpha rows with every beta, about BLOCK_BYTES a block.

    A pair takes pair_bytes of temporaries and a block at least one row.
    Yields the rows and their pairs (alphas, betas) in the order
    alpha * order + beta.
    """
    step = block_size(order * pair_bytes)
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
            # (power, c, rows) gather of counts[power - w c, :, c], summed over c.
            out[:, w] = counts[(powers[:, None] - w * powers) % p, :, powers].sum(axis=1)
        counts = out
    return counts.reshape(p, p**m, -1)


def direct_reads(field: FiniteField, params: CodeParams, twisted: bool = False) -> tuple:
    """(read table, [(alpha shift, read-out) of each T]) of a direct pass, computed once a pass.

    The read table is :func:`read_table` at d = 1.  The read-out is the code
    of w = M b at each beta = b, M_ij = Tr(x**i x**j), since Tr(beta z) =
    b . M z for digit vectors.  With twisted, T at the twist (pi**e alpha,
    pi**w beta) follows T: alpha shifted by e, beta by w.
    """
    n, log, powers = field.n, field_table(field, "log"), params.p ** np.arange(field.m)
    (e, w), read = params.coordinate_exponents, read_table(field, 1)
    return read, [
        (shift, trace_rows(read, log, (log[powers] + b_shift) % n) @ powers)
        for shift, b_shift in ([(0, 0), (e, w)] if twisted else [(0, 0)])
    ]


def direct_counts(
    field: FiniteField, params: CodeParams, alphas: np.ndarray, reads: tuple
) -> np.ndarray:
    """(len(alphas), p**m, p) counts c with T(alpha, beta) = sum c_j zeta_p**j.

    Entry [i, beta] is the pair (alphas[i], beta) of codes; one T is added
    per read-out of reads (:func:`direct_reads`), so twisted reads give S.
    Row alpha is the Fourier transform of g(z) = sum of zeta_p**Tr(alpha
    x**(p**k+1)) over x**2 = z; with an alpha shift, its row x = pi**t is
    at 2e t + shift.
    """
    p, n, order, e = params.p, field.n, field.order, params.twist_exponent
    exp, log, (read, terms) = field_table(field, "exp"), field_table(field, "log"), reads
    t, counts = np.arange(n, dtype=np.int64), 0
    for shift, readout in terms:
        values = trace_rows(read, log[alphas], (2 * e * t + shift) % n).astype(np.int64)
        index = (values * alphas.size + np.arange(alphas.size)[:, None]) * order + exp[2 * t % n]
        g = np.bincount(index.ravel(), minlength=p * alphas.size * order).reshape(p, -1, order)
        g[0, :, 0] += 1  # x = 0
        counts = counts + _fourier(g, p, field.m)[:, readout]
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
    # tracemalloc per pair: 155 (T) and 176 (S) bytes at p = 3, 224 and 265
    # at p = 5, 306 (T) at p = 7: the int64 counts and their transform.
    pair_bytes = (44 if twisted else 36) * params.p + 64
    if ranked:
        pair_bytes += phi_pair_bytes(field.m)
    out: dict[tuple[int, ...], int] = {}
    reads = direct_reads(field, params, twisted)
    for alphas, pairs in alpha_blocks(field.order, pair_bytes):
        rows = direct_counts(field, params, alphas, reads).reshape(-1, params.p)
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


def phi_pair_bytes(m: int) -> int:
    """Bytes a pair takes of a :func:`phi_ranks` block.

    Its m x m matrix, uint8 and then uint32 in :func:`nullity_batch`, and
    its int64 codes; tracemalloc reads 167, 299 and 395 at m = 3, 5 and 6.
    """
    return 12 * m * m + 64


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
    for _, pairs in alpha_blocks(field.order, phi_pair_bytes(field.m)):
        counts += np.bincount(phi_ranks(field, params, *pairs), minlength=params.s + 1)
    counts[0] -= 1  # the zero pair
    return {r: int(c) for r, c in enumerate(counts.tolist()) if c}

