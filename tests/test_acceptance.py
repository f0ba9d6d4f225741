"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 3 is the long one (tens of seconds: 3^16 pairs); it is marked
`extended` so CI can deselect it with `-m "not extended"`, but it runs by
default and is mandatory before a release.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from twozero import build_code, build_field, classify_parameters, gauss_sum
from twozero.codes import weight_distribution_closed, weight_distribution_sums
from twozero.expsums import (
    count_e1,
    count_e2,
    s_census_direct,
    s_census_fast,
    s_distribution_closed,
    t_census_direct,
    t_direct,
    t_distribution_closed,
    t_fast,
    joint_class_census,
    verify_power_identities,
)
from twozero.quadforms import closed_rank_census, rank_census

from test_codes import ENUMERATOR_361, ENUMERATOR_364


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_table1_example(dists364):
    ok = all(dists364[e].as_dict() == ENUMERATOR_364 for e in ("brute", "sums", "closed"))
    _verdict(
        "1",
        ok,
        "(3,6,4): brute, sums and closed all equal the reference "
        "[728,12,414] enumerator, exactly",
    )


def test_criterion_2_table2_example(dists361):
    ok = all(dists361[e].as_dict() == ENUMERATOR_361 for e in ("brute", "sums", "closed"))
    _verdict(
        "2",
        ok,
        "(3,6,1): brute, sums and closed all equal the reference "
        "[728,12,468] enumerator, exactly",
    )


@pytest.mark.extended
def test_criterion_3_table3_beyond_example():
    # Cross-validates the even-k closed table against the enumeration-backed
    # sums engine.  Exact multiset equality over 3^16 pairs.
    code = build_code(3, 8, 2)
    sums = weight_distribution_sums(code)
    closed = weight_distribution_closed(code.params)
    _verdict(
        "3",
        sums.same_rows(closed),
        f"(3,8,2): sums engine equals the closed even-k table on all "
        f"{code.params.pairs} pairs ({len(closed.rows)} weight rows)",
    )


def test_criterion_4_small_field_exhaustive(field341, params341, code341, dists341):
    f, pr = field341, params341
    details = []

    census = rank_census(f, pr, method="phi")
    closed = closed_rank_census(pr)
    ok_a = census == closed and (census.n0, census.n1, census.n2) == (4140, 2160, 260)
    details.append(f"4a rank census (4140, 2160, 260): {ok_a}")

    ok_b = t_census_direct(f, pr) == t_distribution_closed(pr).cyclotomic_counts()
    details.append(f"4b T census == even-s table: {ok_b}")

    ok_c = s_census_direct(f, pr) == s_distribution_closed(pr).cyclotomic_counts()
    details.append(f"4c S census == CaseB table: {ok_c}")

    e1b, e1c = count_e1(f, pr, "brute"), count_e1(f, pr, "closed")
    e2b, e2c = count_e2(f, pr, "brute"), count_e2(f, pr, "closed")
    ok_d = e1b == e1c == 1 and e2b == e2c == 1
    details.append(f"4d E1 = E2 = 1 (brute == closed): {ok_d}")

    checks = verify_power_identities(f, pr, "direct")
    ok_e = len(checks) == 4 and all(c.passed for c in checks)
    details.append(f"4e four power-sum identities: {ok_e}")

    ok_f = all(
        t_fast(f, pr, a, b).cyclotomic() == t_direct(f, pr, a, b)
        for a in range(81)
        for b in range(81)
    )
    details.append(f"4f fast == direct on all 6561 pairs: {ok_f}")

    ok_g = dists341["brute"].same_rows(dists341["sums"]) and dists341["brute"].same_rows(
        dists341["closed"]
    )
    details.append(f"4g three-way engine agreement: {ok_g}")

    ok = ok_a and ok_b and ok_c and ok_d and ok_e and ok_f and ok_g
    _verdict("4", ok, "; ".join(details))


def test_criterion_5_case_a_identity_suite():
    f = build_field(3, 6)
    pr = classify_parameters(3, 6, 4)
    checks = verify_power_identities(f, pr, "fast")
    ok_ids = len(checks) == 2 and all(c.passed for c in checks)
    ok_census = s_census_fast(f, pr) == s_distribution_closed(pr)
    _verdict(
        "5",
        ok_ids and ok_census,
        f"(3,6,4): both identities hold ({ok_ids}) and the S census matches "
        f"the CaseA table ({ok_census})",
    )


def test_criterion_6_property_suite(code341, dists341, dists364, dists361):
    details = []

    ok_gauss = all(
        (gauss_sum(p) * gauss_sum(p)).rational_value() == (p if p % 4 == 1 else -p)
        for p in (3, 5, 7, 11)
    )
    details.append(f"gauss sums squared: {ok_gauss}")

    ok_closed_totals = True
    for args in [(3, 4, 1), (3, 6, 4), (3, 6, 1), (3, 8, 2), (5, 4, 1)]:
        pr = classify_parameters(*args)
        ok_closed_totals &= t_distribution_closed(pr).total == pr.pairs
        ok_closed_totals &= s_distribution_closed(pr).total == pr.pairs
        ok_closed_totals &= weight_distribution_closed(pr).total == pr.pairs
    details.append(f"closed distributions sum to p^2m: {ok_closed_totals}")

    ok_pless = True
    for dists, n, m in ((dists341, 80, 4), (dists364, 728, 6), (dists361, 728, 6)):
        for dist in dists.values():
            ok_pless &= dist.first_moment() == n * 2 * 3 ** (2 * m - 1)
    details.append(f"Pless first moment: {ok_pless}")

    from twozero.codes import weight_distribution_brute

    alt_mod = build_code(3, 4, 1, modulus_index=1)
    alt_pi = build_code(3, 4, 1, primitive_index=1)
    ok_indep = weight_distribution_brute(alt_mod).same_rows(dists341["brute"])
    ok_indep &= weight_distribution_brute(alt_pi).same_rows(dists341["brute"])
    details.append(f"modulus/primitive independence: {ok_indep}")

    from twozero.codes import codeword

    f = code341.field
    e_inv = f.inv(f.pow(f.primitive_element, code341.params.twist_exponent))
    pi_inv = f.inv(f.primitive_element)
    ok_shift = all(
        [codeword(code341, a, b)[-1]] + codeword(code341, a, b)[:-1]
        == codeword(code341, f.mul(a, e_inv), f.neg(f.mul(b, pi_inv)))
        for a in range(81)
        for b in range(81)
    )
    details.append(f"shift closure: {ok_shift}")

    ok_max_rank = True
    for args in [(3, 4, 1), (3, 6, 4)]:
        fld = build_field(args[0], args[1])
        pr = classify_parameters(*args)
        joint = joint_class_census(fld, pr)
        bad = sum(
            c for ((rf, _), (rg, _)), c in joint.items() if 0 < rf < pr.s and 0 < rg < pr.s
        )
        ok_max_rank &= bad == 0
    details.append(f"max-rank property max(r_f, r_g) = s: {ok_max_rank}")

    ok = ok_gauss and ok_closed_totals and ok_pless and ok_indep and ok_shift and ok_max_rank
    _verdict("6", ok, "; ".join(details))


def test_criterion_7_cli_contract(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "twozero", *[str(a) for a in args]],
            capture_output=True,
            text=True,
            timeout=600,
        )

    details = []
    ok_verify = (
        run("verify", 3, 4, 1).returncode == 0
        and run("verify", 3, 6, 4, "--checks", "example").returncode == 0
        and run("verify", 3, 6, 1, "--checks", "example").returncode == 0
    )
    details.append(f"three verify invocations exit 0: {ok_verify}")

    ok_invalid = run("analyze", 3, 2, 1).returncode == 2
    details.append(f"analyze 3 2 1 exits 2: {ok_invalid}")

    ok_budget = run("weights", 3, 9, 3, "--engines", "brute").returncode == 3
    details.append(f"budget-refused brute run exits 3: {ok_budget}")

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run("weights", 3, 4, 1, "--engines", "brute,sums,closed", "-o", out1)
    run("weights", 3, 4, 1, "--engines", "brute,sums,closed", "-o", out2)
    ok_bytes = out1.read_bytes() == out2.read_bytes() and out1.stat().st_size > 0
    details.append(f"repeated runs byte-identical: {ok_bytes}")

    ok = ok_verify and ok_invalid and ok_budget and ok_bytes
    _verdict("7", ok, "; ".join(details))
