"""Vectorized enumeration kernels over the full (alpha, beta) pair space.

Everything here is exact integer work in numpy: subfield arithmetic becomes
table gathers, the Gram matrix of every pair in a chunk is assembled from
per-basis-entry trace tables, and a batched symmetric Gaussian elimination
reads off rank and discriminant character for the whole chunk at once.
Scalar reference implementations of the same operations live in quadforms
and expsums; the test suite checks the two routes against each other
exhaustively on small fields.

Pair indexing convention: pair_index = alpha_code * p**m + beta_code.
Class codes: cls = (s - rank) * 2 + (0 if eps == +1 else 1) for nonzero
pairs (so 0..5 by the rank trichotomy) and 6 for the zero pair.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InternalInconsistency
from .gf import FiniteField
from .quadforms import CodeParams, gram_basis

DEFAULT_CHUNK = 1 << 18


@dataclass
class SubfieldTables:
    """GF(q) arithmetic on indices 0..q-1 (index 0 is the zero element)."""

    q: int
    codes: np.ndarray      # subfield index -> field code
    add: np.ndarray        # (q, q) uint8
    sub: np.ndarray        # (q, q) uint8
    mul: np.ndarray        # (q, q) uint8
    inv: np.ndarray        # (q,) uint8, inv[0] = 0 sentinel
    chi: np.ndarray        # (q,) int8 quadratic character, chi[0] = 1 sentinel


def subfield_tables(field: FiniteField, d: int) -> SubfieldTables:
    codes = list(field.subfield(d))
    q = len(codes)
    index = {c: i for i, c in enumerate(codes)}
    add = np.zeros((q, q), np.uint8)
    sub = np.zeros((q, q), np.uint8)
    mul = np.zeros((q, q), np.uint8)
    inv = np.zeros(q, np.uint8)
    chi = np.ones(q, np.int8)
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            add[i, j] = index[field.add(a, b)]
            sub[i, j] = index[field.sub(a, b)]
            mul[i, j] = index[field.mul(a, b)]
        if a:
            inv[i] = index[field.inv(a)]
            chi[i] = field.quadratic_character(a, d)
    return SubfieldTables(q=q, codes=np.array(codes), add=add, sub=sub, mul=mul, inv=inv, chi=chi)


def batched_rank_disc(mats: np.ndarray, tabs: SubfieldTables) -> tuple[np.ndarray, np.ndarray]:
    """Rank and discriminant character of a batch of symmetric matrices.

    mats: (N, s, s) uint8 subfield indices, symmetric; consumed destructively
    on a copy.  Returns (rank uint8, disc int8).  Mirrors the scalar
    diagonalizer in quadforms: diagonal swap first, then the char != 2
    row+column-add fix-up when the whole trailing diagonal vanishes.
    """
    a = mats.copy()
    n, s, _ = a.shape
    rank = np.zeros(n, np.uint8)
    disc = np.ones(n, np.int8)
    add, sub, mul, inv, chi = tabs.add, tabs.sub, tabs.mul, tabs.inv, tabs.chi
    for j in range(s):
        # Bring a nonzero diagonal entry to (j, j) where one exists.
        for t in range(j + 1, s):
            idx = np.nonzero((a[:, j, j] == 0) & (a[:, t, t] != 0))[0]
            if idx.size:
                block = a[idx]
                block[:, [j, t], :] = block[:, [t, j], :]
                block[:, :, [j, t]] = block[:, :, [t, j]]
                a[idx] = block
        # Trailing diagonal all zero but block nonzero: plant 2*A[t][u].
        zero_diag = a[:, j, j] == 0
        if zero_diag.any():
            nonzero_block = a[:, j:, j:].reshape(n, -1).any(axis=1)
            idx = np.nonzero(zero_diag & nonzero_block)[0]
            if idx.size:
                flat = a[idx][:, j:, j:].reshape(idx.size, -1)
                first = np.argmax(flat != 0, axis=1)
                width = s - j
                # Row-major first nonzero of a symmetric zero-diagonal block
                # always sits strictly above the diagonal.
                trow = j + first // width
                ucol = j + first % width
                if not (trow < ucol).all():
                    raise InternalInconsistency("fix-up pivot not above the diagonal")
                rows = np.arange(idx.size)
                block = a[idx]
                block[rows, trow, :] = add[block[rows, trow, :], block[rows, ucol, :]]
                block[rows, :, trow] = add[block[rows, :, trow], block[rows, :, ucol]]
                a[idx] = block
                moved = np.nonzero(trow != j)[0]
                if moved.size:
                    sel = idx[moved]
                    tr = trow[moved]
                    rows2 = np.arange(sel.size)
                    blk = a[sel]
                    tmp = blk[rows2, j, :].copy()
                    blk[rows2, j, :] = blk[rows2, tr, :]
                    blk[rows2, tr, :] = tmp
                    tmp = blk[rows2, :, j].copy()
                    blk[rows2, :, j] = blk[rows2, :, tr]
                    blk[rows2, :, tr] = tmp
                    a[sel] = blk
        piv = a[:, j, j]
        active = piv != 0
        if j + 1 < s:
            # factors vanish automatically for inactive matrices: their whole
            # trailing block (hence the column below the pivot) is zero.
            factors = mul[a[:, j + 1 :, j], inv[piv][:, None]]
            prod = mul[factors[:, :, None], a[:, None, j, j:]]
            a[:, j + 1 :, j:] = sub[a[:, j + 1 :, j:], prod]
            a[:, j, j + 1 :] = 0
        rank += active
        disc = np.where(active, disc * chi[piv], disc)
    return rank, disc


def _gram_entry_tables(field: FiniteField, params: CodeParams, tabs: SubfieldTables):
    """Per-(i, j) lookup tables turning (alpha, beta) codes into Gram entries.

    A[i][j](alpha, beta) = Tr_d(alpha * u_ij) + Tr_d(beta * v_ij) with
    u_ii = e_i**(p**k + 1), v_ii = e_i**2, and for i < j the half-polarized
    u_ij = (e_i**(p**k) e_j + e_i e_j**(p**k)) / 2, v_ij = e_i e_j.
    """
    k = params.k
    basis = gram_basis(field, params)
    tr = field.trace_to_table(params.d)
    index = {int(c): i for i, c in enumerate(tabs.codes)}
    entries = []
    for i in range(params.s):
        for j in range(i, params.s):
            if i == j:
                u = field.mul(field.frobenius(basis[i], k), basis[i])
                v = field.mul(basis[i], basis[i])
            else:
                u = field.mul(
                    field.half,
                    field.add(
                        field.mul(field.frobenius(basis[i], k), basis[j]),
                        field.mul(basis[i], field.frobenius(basis[j], k)),
                    ),
                )
                v = field.mul(basis[i], basis[j])
            tu = np.empty(field.order, np.uint8)
            tv = np.empty(field.order, np.uint8)
            for code in range(field.order):
                tu[code] = index[tr[field.mul(code, u)]]
                tv[code] = index[tr[field.mul(code, v)]]
            entries.append((i, j, tu, tv))
    return entries


def _class_range(
    field: FiniteField, params: CodeParams, start: int, stop: int, chunk: int
) -> np.ndarray:
    """Class codes for pair indices [start, stop)."""
    tabs = subfield_tables(field, params.d)
    entries = _gram_entry_tables(field, params, tabs)
    s = params.s
    order = field.order
    out = np.empty(stop - start, np.uint8)
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        idx = np.arange(lo, hi, dtype=np.int64)
        alphas = (idx // order).astype(np.int64)
        betas = (idx % order).astype(np.int64)
        mats = np.empty((hi - lo, s, s), np.uint8)
        for i, j, tu, tv in entries:
            vals = tabs.add[tu[alphas], tv[betas]]
            mats[:, i, j] = vals
            if i != j:
                mats[:, j, i] = vals
        rank, disc = batched_rank_disc(mats, tabs)
        deficiency = s - rank.astype(np.int16)
        cls = (np.minimum(deficiency, 3) * 2 + (disc < 0)).astype(np.uint8)
        out[lo - start : hi - start] = cls
    return out


def t_class_data(
    field: FiniteField,
    params: CodeParams,
    *,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
    budget: int | None = None,
) -> np.ndarray:
    """(rank, sign) class code of T for every pair, as a uint8 array.

    The only pair allowed outside the rank trichotomy is (0, 0), whose zero
    form gets the dedicated class 6; any other violation aborts.  More than
    budget pairs (None: the default pair budget) is refused, before any
    reuse.  The array is memoized on the field per params, since several
    censuses share the same pass; with workers > 1 the pair range is split
    over a process pool that receives the field itself.
    """
    params.check_pair_budget(budget)

    def compute() -> np.ndarray:
        if workers > 1:
            bounds = [params.pairs * w // workers for w in range(workers + 1)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = pool.map(
                    _class_range,
                    repeat(field), repeat(params), bounds[:-1], bounds[1:], repeat(chunk),
                )
                cls = np.concatenate(list(parts))
        else:
            cls = _class_range(field, params, 0, params.pairs, chunk)
        bad = np.nonzero(cls >= 6)[0]
        if bad.size != 1 or bad[0] != 0 or cls[0] != 6:
            raise InternalInconsistency("rank trichotomy violated outside the zero pair")
        return cls

    return field.memoized(("t_class_data", params), compute)


def class_histogram(cls: np.ndarray) -> list[int]:
    """Counts per class code, as Python ints (length 8)."""
    return [int(c) for c in np.bincount(cls, minlength=8)]


def twist_permutations(field: FiniteField, params: CodeParams) -> tuple[np.ndarray, np.ndarray]:
    """Code permutations alpha -> pi**((p**k+1)/2) alpha and beta -> -pi beta."""
    pi = field.primitive_element
    pi_e = field.pow(pi, params.twist_exponent)
    neg_pi = field.neg(pi)
    pa = np.array([field.mul(a, pi_e) for a in range(field.order)], np.int64)
    pb = np.array([field.mul(b, neg_pi) for b in range(field.order)], np.int64)
    return pa, pb


def joint_histogram(
    field: FiniteField,
    params: CodeParams,
    cls: np.ndarray,
    *,
    chunk: int = DEFAULT_CHUNK,
) -> list[int]:
    """Counts of pairs by (class of f, class of g), flattened 7x7.

    The class of g at (alpha, beta) is the class of f at the twisted pair,
    so this is a gather of cls at a permuted index.
    """
    pa, pb = twist_permutations(field, params)
    order = field.order
    counts = np.zeros(49, np.int64)
    for lo in range(0, params.pairs, chunk):
        hi = min(lo + chunk, params.pairs)
        idx = np.arange(lo, hi, dtype=np.int64)
        alphas = idx // order
        betas = idx % order
        tw = pa[alphas] * order + pb[betas]
        joint = cls[lo:hi].astype(np.int64) * 7 + cls[tw]
        counts += np.bincount(joint, minlength=49)
    return [int(c) for c in counts]


# -- brute-force codeword weights --------------------------------------------


def _mul_column(field: FiniteField, c: int) -> np.ndarray:
    """mul(a, c) for every code a, vectorized through the log/exp tables."""
    out = np.zeros(field.order, np.int64)
    if c:
        log = np.array(field.log, np.int64)
        exp = np.array(field.exp, np.int64)
        lc = field.log[c]
        nz = np.arange(1, field.order)
        out[nz] = exp[(log[nz] + lc) % field.n]
    return out


def trace_rows(field: FiniteField, codes: list[int]) -> np.ndarray:
    """(order, len(codes)) uint8 matrix of Tr_1^m(a * codes[i])."""
    tr = np.array(field.trace_table, np.uint8)
    out = np.empty((field.order, len(codes)), np.uint8)
    for i, c in enumerate(codes):
        out[:, i] = tr[_mul_column(field, c)]
    return out


def _weight_hist_range(field: FiniteField, us, ws, beta_lo: int, beta_hi: int) -> np.ndarray:
    n = len(us)
    ru = trace_rows(field, us)
    rw = trace_rows(field, ws)
    neg_rw = (field.p - rw) % field.p
    hist = np.zeros(n + 1, np.int64)
    for beta in range(beta_lo, beta_hi):
        zeros = (ru == neg_rw[beta][None, :]).sum(axis=1)
        hist += np.bincount(n - zeros, minlength=n + 1)
    return hist


def brute_weight_histogram(code, *, workers: int = 1) -> list[int]:
    """Weight histogram over all pairs by direct coordinate counting.

    Distinct pairs give distinct codewords (the code has dimension 2m), so
    the pair census is the codeword census.  Work is split over beta; each
    beta row compares the alpha trace matrix against one broadcast row.
    """
    field = code.field
    if workers > 1:
        bounds = [field.order * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                _weight_hist_range,
                repeat(field), repeat(code.u_codes), repeat(code.w_codes), bounds[:-1], bounds[1:],
            )
            hist = sum(parts)
    else:
        hist = _weight_hist_range(field, code.u_codes, code.w_codes, 0, field.order)
    return [int(h) for h in hist]
