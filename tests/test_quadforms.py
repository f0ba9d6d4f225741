from __future__ import annotations

import random

import numpy as np
import pytest

from twozero import batch, build_field, classify_parameters, quadforms
from twozero.errors import (
    BothZero,
    InternalInconsistency,
    NotOddPrime,
    ParameterError,
    STooSmall,
    ZeroArgument,
)
from twozero.quadforms import (
    Case,
    closed_rank_census,
    diagonalize,
    gram_basis,
    gram_entries,
    gram_matrix,
    nullity_mod_p,
    phi,
    psi,
    rank,
    rank_census,
    twist_pair,
)


class TestClassify:
    def test_case_a(self):
        pr = classify_parameters(3, 6, 4)
        assert pr.case is Case.CASE_A and (pr.d, pr.s, pr.q) == (2, 3, 9)
        assert pr.q_star == 9

    def test_case_b_odd_k(self):
        pr = classify_parameters(3, 6, 1)
        assert pr.case is Case.CASE_B_ODD_K and (pr.d, pr.s) == (1, 6)
        assert pr.q_star == -3

    def test_case_b_even_k(self):
        pr = classify_parameters(3, 8, 2)
        assert pr.case is Case.CASE_B_EVEN_K and (pr.d, pr.s) == (2, 4)

    def test_out_of_scope_cases(self):
        assert classify_parameters(3, 3, 1).case is Case.ODD_S_OUT_OF_SCOPE
        assert classify_parameters(3, 5, 2).case is Case.ODD_S_OUT_OF_SCOPE

    def test_s_too_small(self):
        with pytest.raises(STooSmall):
            classify_parameters(3, 2, 1)
        with pytest.raises(STooSmall):
            classify_parameters(3, 4, 2)

    def test_p_validation(self):
        with pytest.raises(NotOddPrime):
            classify_parameters(2, 6, 1)
        with pytest.raises(NotOddPrime):
            classify_parameters(9, 6, 1)

    def test_twist_exponent_is_half_of_p_k_plus_1_mod_n(self):
        checked = 0
        for p in (3, 5, 7):
            for m in range(3, 7):
                for k in range(1, 3 * m + 1):
                    try:
                        pr = classify_parameters(p, m, k)
                    except STooSmall:
                        continue
                    e, n = pr.twist_exponent, pr.n
                    assert 0 <= e < n, (p, m, k)
                    assert e == (p**k + 1) // 2 % n, (p, m, k)
                    assert 2 * e % n == (p**k + 1) % n, (p, m, k)
                    checked += 1
        assert checked > 100


class TestPhiPsi:
    def test_phi_zero_pair_vanishes(self, field341, params341):
        for x in range(0, 81, 5):
            assert phi(field341, params341, 0, 0, x) == 0

    def test_phi_alpha_zero_kernel_trivial(self, field341, params341):
        for beta in (1, 17, 80):
            zeros = [x for x in range(81) if phi(field341, params341, 0, beta, x) == 0]
            assert zeros == [0]

    def test_kernel_sizes_exhaustive(self, field341, params341):
        # DERIVED: exhaustive kernel enumeration over all 6560 nonzero pairs.
        sizes = set()
        for a in range(81):
            for b in range(81):
                if a == 0 and b == 0:
                    continue
                sizes.add(sum(1 for x in range(81) if phi(field341, params341, a, b, x) == 0))
        assert sizes == {1, 3, 9}

    def test_psi_zero_alpha(self, field341, params341):
        for x in range(1, 81, 7):
            assert psi(field341, params341, 0, x) == 0

    def test_psi_rejects_zero_x(self, field341, params341):
        with pytest.raises(ZeroArgument):
            psi(field341, params341, 1, 0)

    def test_psi_defining_identity_exhaustive(self, field341, params341):
        for alpha in range(81):
            for x in range(1, 81):
                beta = psi(field341, params341, alpha, x)
                assert phi(field341, params341, alpha, beta, x) == 0

    def test_psi_fiber_trichotomy_exhaustive(self, field341, params341):
        # The fiber size over (alpha, beta) is 0, p^d - 1 or p^(2d) - 1 and
        # determines the rank class.
        f, pr = field341, params341
        fibers: dict[tuple[int, int], int] = {}
        for alpha in range(1, 81):
            for x in range(1, 81):
                key = (alpha, psi(f, pr, alpha, x))
                fibers[key] = fibers.get(key, 0) + 1
        assert set(fibers.values()) <= {2, 8}
        for (alpha, beta), count in fibers.items():
            r = rank(f, pr, alpha, beta)
            assert (count, r) in {(2, pr.s - 1), (8, pr.s - 2)}


class TestRank:
    def test_alpha_zero_full_rank(self, field341, params341):
        for beta in (1, 9, 44):
            assert rank(field341, params341, 0, beta) == params341.s

    def test_rejects_zero_pair(self, field341, params341):
        with pytest.raises(BothZero):
            rank(field341, params341, 0, 0)

    def test_phi_rank_equals_gram_rank_exhaustive(self, field341, params341):
        f, pr = field341, params341
        for a in range(81):
            for b in range(81):
                if a == 0 and b == 0:
                    continue
                r, _ = diagonalize(f, pr.d, gram_matrix(f, pr, a, b))
                assert r == rank(f, pr, a, b)

    def test_census_both_methods_match_closed(self, field341, params341):
        census_gram = rank_census(field341, params341, method="gram")
        census_phi = rank_census(field341, params341, method="phi")
        closed = closed_rank_census(params341)
        assert census_gram == census_phi == closed
        # The three counts of the rank trichotomy at (3, 4, 1): 4140 pairs
        # of rank s, 2160 of rank s-1, 260 of rank s-2.
        assert (closed.n0, closed.n1, closed.n2) == (4140, 2160, 260)

    def test_census_unknown_method_rejected(self, field341, params341):
        # Like the modes of count_e1 and power_moments: no silent fallback
        # to the Gram route.
        with pytest.raises(ParameterError, match="unknown method 'bogus'"):
            rank_census(field341, params341, method="bogus")

    def test_closed_census_double_counting(self):
        # (q-1) n1 + (q^2-1) n2 = (p^m-1)^2: each nonzero x contributes one
        # beta = psi(alpha, x) for every alpha != 0.
        for args in [(3, 4, 1), (3, 6, 4), (3, 6, 1), (3, 8, 2), (5, 4, 1)]:
            pr = classify_parameters(*args)
            c = closed_rank_census(pr)
            pm = pr.p**pr.m
            assert (pr.q - 1) * c.n1 + (pr.q**2 - 1) * c.n2 == (pm - 1) ** 2
            assert c.total == pm * pm - 1

    def test_batched_phi_ranks_equal_scalar_rank(self, direct_point):
        f, pr = direct_point
        alphas = np.repeat(np.arange(f.order), f.order)
        betas = np.tile(np.arange(f.order), f.order)
        ranks = batch.phi_ranks(f, pr, alphas, betas).tolist()
        assert ranks[0] == 0  # the zero pair: phi vanishes
        for a, b, r in zip(alphas.tolist()[1:], betas.tolist()[1:], ranks[1:]):
            assert r == rank(f, pr, a, b)

    def test_phi_census_364(self):
        # CaseA with d = 2: 531441 pairs, each through the phi nullity.
        f = build_field(3, 6)
        pr = classify_parameters(3, 6, 4)
        assert rank_census(f, pr, method="phi") == closed_rank_census(pr)

    def test_closed_census_364(self):
        c = closed_rank_census(classify_parameters(3, 6, 4))
        assert (c.n0, c.n1, c.n2) == (471744, 58968, 728)


class TestGram:
    def test_zero_pair_gives_zero_matrix(self, field341, params341):
        a = gram_matrix(field341, params341, 0, 0)
        assert all(all(c == 0 for c in row) for row in a)

    @pytest.mark.parametrize(
        ("pmk", "pairs"),
        [((3, 4, 1), 100), ((7, 3, 1), 50), ((3, 6, 4), 30), ((3, 8, 2), 6)],
        ids=["341", "731", "364", "382"],
    )
    def test_reproduces_form_on_random_pairs(self, pmk, pairs):
        # X A X' must equal Tr_d^m(alpha x^(p^k+1) + beta x^2) for every x.
        # The scalar and the batched assembler read the same gram_entries,
        # so this is the one check of the entries against f itself; the
        # points cover d = 1 and d = 2, s = 3 and s = 4.
        f, pr = build_field(*pmk[:2]), classify_parameters(*pmk)
        coords_of = _coordinate_map(f, gram_basis(f, pr), f.subfield(pr.d))
        rng = random.Random(1234)
        for _ in range(pairs):
            alpha, beta = rng.randrange(f.order), rng.randrange(f.order)
            a = gram_matrix(f, pr, alpha, beta)
            for x, coords in coords_of.items():
                acc = 0
                for i in range(pr.s):
                    for j in range(pr.s):
                        acc = f.add(acc, f.mul(coords[i], f.mul(a[i][j], coords[j])))
                direct = f.trace(
                    f.add(
                        f.mul(alpha, f.mul(f.frobenius(x, pr.k), x)),
                        f.mul(beta, f.mul(x, x)),
                    ),
                    pr.d,
                )
                assert acc == direct, (alpha, beta, x)

    def test_no_gram_constant_is_zero(self):
        # The batch pass reads every u_ij and v_ij as an exponent of pi and
        # has no branch for a zero constant; gram_entries refuses one.  No
        # valid point with p**m <= 3**7 and k <= 2m (every twist of each
        # field) has one.
        checked = 0
        for p in (3, 5, 7, 11, 13):
            for m in range(3, 8):
                if p**m > 3**7:
                    break
                field = build_field(p, m)
                for k in range(1, 2 * m + 1):
                    try:
                        params = classify_parameters(p, m, k)
                    except STooSmall:
                        continue
                    assert all(u and v for _, _, u, v in gram_entries(field, params))
                    checked += 1
        assert checked == 52

    def test_zero_gram_constant_is_refused(self, monkeypatch):
        monkeypatch.setattr(quadforms, "gram_basis", lambda field, params: [0] * params.s)
        with pytest.raises(InternalInconsistency, match="Gram constant"):
            gram_entries(build_field(3, 4), classify_parameters(3, 4, 1))


def _coordinate_map(f, basis, sub):
    """x -> coordinates in the GF(q)-basis, by expanding all combinations."""
    import itertools

    out = {}
    for coords in itertools.product(sub, repeat=len(basis)):
        acc = 0
        for c, e in zip(coords, basis):
            acc = f.add(acc, f.mul(c, e))
        out[acc] = coords
    assert len(out) == f.order
    return out


class TestDiagonalize:
    def test_zero_matrix(self, field341):
        assert diagonalize(field341, 1, [[0, 0], [0, 0]]) == (0, 1)

    def test_diagonal_passthrough(self, field341):
        assert diagonalize(field341, 1, [[2, 0], [0, 1]]) == (2, -1)
        assert diagonalize(field341, 1, [[2, 0], [0, 2]]) == (2, 1)

    def test_hyperbolic_plane(self, field341):
        # All-zero diagonal forces the row+column-add fix-up.
        assert diagonalize(field341, 1, [[0, 1], [1, 0]]) == (2, -1)  # disc -1 mod 3

    def test_refuses_an_off_diagonal_entry_outside_the_subfield(self, field341):
        # i = pi**(n/4) has i**2 = -1, so it lies in GF(9) but not in GF(3).
        # Eliminating [[1, i], [i, 1]] leaves the pivot 1 - i**2 = 2, which is
        # in GF(3): only a check of every entry, not of the pivots, sees i.
        i = field341.exp[field341.n // 4]
        assert i >= 3 and field341.mul(i, i) == field341.neg_one
        with pytest.raises(InternalInconsistency, match=r"matrix entry outside GF\(3\^1\)"):
            diagonalize(field341, 1, [[1, i], [i, 1]])

    def test_rank_matches_nullity_exhaustive_3x3(self, field341):
        # Every symmetric 3x3 matrix over GF(3): rank from the diagonalizer
        # equals rank from plain Gaussian elimination.
        f = field341
        for packed in range(3**6):
            vals, t = [], packed
            for _ in range(6):
                t, r = divmod(t, 3)
                vals.append(r)
            a, b, c, d, e, g = vals
            mat = [[a, b, c], [b, d, e], [c, e, g]]
            r, _ = diagonalize(f, 1, [row[:] for row in mat])
            assert r == 3 - nullity_mod_p(mat, 3)

    def test_disc_invariant_under_permutation(self):
        # eta_d(prod of diagonal) is a congruence invariant: permuting rows
        # and columns must not change it.  Random symmetric 4x4 over GF(9).
        f = build_field(3, 4)
        sub = f.subfield(2)
        rng = random.Random(777)
        for _ in range(60):
            mat = [[0] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    mat[i][j] = mat[j][i] = sub[rng.randrange(9)]
            perm = list(range(4))
            rng.shuffle(perm)
            shuffled = [[mat[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
            assert diagonalize(f, 2, shuffled) == diagonalize(f, 2, mat)


class TestRankLemma:
    def test_max_rank_is_s_exhaustive_341(self, field341, params341):
        f, pr = field341, params341
        for a in range(81):
            for b in range(81):
                if a == 0 and b == 0:
                    continue
                a2, b2 = twist_pair(f, pr, a, b)
                assert max(rank(f, pr, a, b), rank(f, pr, a2, b2)) == pr.s
