from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from twozero import cli, codes, gf
from twozero.codes import WeightDistribution


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "twozero", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestAnalyze:
    def test_case_a_example(self):
        proc = run_cli("analyze", 3, 6, 4)
        assert proc.returncode == 0
        assert "CaseA" in proc.stdout
        assert "[728, 12]" in proc.stdout

    def test_case_b_example(self):
        proc = run_cli("analyze", 3, 6, 1)
        assert proc.returncode == 0
        assert "CaseB-odd-k" in proc.stdout

    def test_small_s_exits_2(self):
        proc = run_cli("analyze", 3, 2, 1)
        assert proc.returncode == 2
        assert "< 3" in proc.stderr

    def test_bad_prime_exits_2(self):
        assert run_cli("analyze", 4, 6, 1).returncode == 2

    def test_oversized_field_exits_3(self):
        proc = run_cli("analyze", 3, 15, 1, timeout=30)
        assert proc.returncode == 3
        assert "field tables needs 14348907 elements > budget 2097152" in proc.stderr

    @pytest.mark.parametrize(
        "p, m, shown",
        [
            (3, 10**7, "3^10000000"),  # p^m has more decimal digits than str() prints
            (3, 10**8, "3^100000000"),  # forming p^m alone takes tens of seconds
            (10**18 + 3, 3, "1000000000000000003^3"),  # trial division of p takes minutes
        ],
        ids=["digits", "power", "primality"],
    )
    def test_size_gate_refuses_before_any_large_computation(self, p, m, shown):
        proc = run_cli("analyze", p, m, 1, timeout=10)
        assert proc.returncode == 3
        assert f"refused: p^m = {shown} is not below 2^128" in proc.stderr

    def test_generator_coefficients_are_separated_from_p_11(self):
        # A coefficient 10 must not read as 1 followed by 0; below 10 every
        # coefficient is one digit, and the digits stay unseparated.
        def shown(p):
            return run_cli("analyze", p, 3, 1).stdout.splitlines()[-1].rsplit(" ", 1)[-1]

        header = json.loads(run_cli("analyze", 11, 3, 1, "--format", "json").stdout)
        assert [int(c) for c in shown(11).split(",")] == header["generator"]
        assert shown(7).isdigit()

    def test_small_s_is_rejected_before_the_primality_test(self):
        proc = run_cli("analyze", 10**18 + 3, 2, 1, timeout=10)
        assert proc.returncode == 2
        assert "< 3" in proc.stderr

    def test_json_format(self):
        proc = run_cli("analyze", 3, 4, 1, "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["case"] == "CaseB-odd-k"
        assert doc["n"] == 80 and doc["dimension"] == 8
        assert len(doc["generator"]) == 73  # degree n - 2m


class TestWeights:
    def test_three_way_agreement_exit_0(self):
        proc = run_cli("weights", 3, 4, 1, "--engines", "brute,sums,closed")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["agreement"]["all_equal"] is True
        assert len(doc["documents"]) == 3

    def test_document_schema(self):
        proc = run_cli("weights", 3, 4, 1, "--engines", "closed")
        doc = json.loads(proc.stdout)["documents"][0]
        assert list(doc.keys()) == [
            "p", "m", "k", "d", "s", "case", "n", "dimension", "engine", "rows",
        ]
        assert doc["rows"][0] == {"weight": 0, "frequency": 1}

    def test_budget_refusal_exits_3(self):
        proc = run_cli("weights", 3, 10, 2, "--engines", "brute")
        assert proc.returncode == 3
        assert "needs 700958808 coordinate checks > budget 400000000" in proc.stderr

    def test_brute_within_budget_382(self):
        proc = run_cli("weights", 3, 8, 2, "--engines", "brute,closed")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["agreement"]["all_equal"] is True

    def test_closed_runs_past_the_field_budget(self):
        proc = run_cli("weights", 3, 16, 2, "--engines", "closed", timeout=30)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)["documents"][0]
        assert (doc["n"], doc["dimension"]) == (3**16 - 1, 32)
        assert sum(row["frequency"] for row in doc["rows"]) == 3**32

    def test_closed_with_a_field_engine_keeps_the_field_budget(self):
        proc = run_cli("weights", 3, 16, 2, "--engines", "closed,sums", timeout=30)
        assert proc.returncode == 3
        assert "field tables needs 43046721 elements > budget 2097152" in proc.stderr

    def test_closed_runs_at_any_p_below_the_size_gate(self):
        # The closed u-sum is (p - 1) A, a few integer operations a row.
        proc = run_cli("weights", 100003, 4, 1, "--engines", "closed", timeout=10)
        assert proc.returncode == 0, proc.stderr
        (doc,) = json.loads(proc.stdout)["documents"]
        assert sum(row["frequency"] for row in doc["rows"]) == 100003**8

    def test_unsupported_closed_exits_3(self):
        proc = run_cli("weights", 3, 3, 1, "--engines", "closed")
        assert proc.returncode == 3

    def test_unknown_engine_exits_2(self):
        assert run_cli("weights", 3, 4, 1, "--engines", "magic").returncode == 2

    def test_repeated_engine_runs_once(self):
        proc = run_cli("weights", 3, 4, 1, "--engines", "sums,closed,sums")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert [d["engine"] for d in doc["documents"]] == ["sums", "closed"]
        assert doc["agreement"]["engines"] == ["sums", "closed"]

    def test_csv_format(self):
        proc = run_cli("weights", 3, 4, 1, "--engines", "closed", "--format", "csv")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "weight,frequency"
        assert lines[1] == "0,1"

    def test_markdown_format(self):
        proc = run_cli("weights", 3, 4, 1, "--engines", "closed", "--format", "markdown")
        assert "| Weight | Frequency |" in proc.stdout

    def test_repeated_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("weights", 3, 4, 1, "--engines", "sums,closed", "-o", out1)
        run_cli("weights", 3, 4, 1, "--engines", "sums,closed", "-o", out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestLargeK:
    # k enters only through gcd(m, k), v2(k), p**k mod 4 and p**k mod 2n, so
    # k = 8 10**30 + 1 is (3, 4, 1) in disguise; no route may take time in k.
    K = 8 * 10**30 + 1

    @pytest.mark.parametrize(
        "command",
        [("analyze",), ("weights", "--engines", "brute,sums,closed"), ("verify",)],
        ids=["analyze", "weights", "verify"],
    )
    def test_huge_k_prints_the_k_1_output(self, command):
        name, *rest = command
        big = run_cli(name, 3, 4, self.K, *rest, timeout=10)
        small = run_cli(name, 3, 4, 1, *rest)
        assert big.returncode == small.returncode == 0, big.stderr
        assert big.stdout.replace(str(self.K), "1") == small.stdout


class TestSums:
    @pytest.mark.parametrize("engine", ["direct", "fast", "closed"])
    def test_s_census_engines(self, engine):
        proc = run_cli("sums", 3, 4, 1, "--sum", "S", "--engine", engine)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["sum"] == "S" and doc["engine"] == engine
        assert sum(r["frequency"] for r in doc["rows"]) == 3**8

    def test_t_closed_rows(self):
        proc = run_cli("sums", 3, 6, 4, "--sum", "T", "--engine", "closed")
        doc = json.loads(proc.stdout)
        by_value = {r["value"]["rational"]: r["frequency"] for r in doc["rows"]}
        assert by_value[81] == 32760
        assert by_value[729] == 1

    def test_direct_budget_refusal(self):
        proc = run_cli("sums", 3, 6, 4, "--sum", "T", "--engine", "direct")
        assert proc.returncode == 3


class TestCensus:
    def test_rank_census_341(self):
        proc = run_cli("census", 3, 4, 1)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["census"] == {"n0": 4140, "n1": 2160, "n2": 260}
        assert doc["match"] is True

    def test_census_builds_no_code(self, monkeypatch, capsys):
        # The census reads only the field and the parameters.
        def refuse(*args, **kwargs):
            raise AssertionError("census built a code")

        for module in (codes, cli):
            monkeypatch.setattr(module, "build_code", refuse)
        assert cli.main(["census", "3", "4", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["match"] is True

    @pytest.mark.parametrize(
        "args",
        [
            ["3", "2", "1"],
            ["4", "6", "1"],
            ["3", "15", "1"],
            ["3", "10000000", "1"],
            ["3", "4", "1", "--modulus-index", "100000"],
        ],
        ids=["s-too-small", "not-prime", "field-budget", "size-gate", "modulus-index"],
    )
    def test_census_refuses_as_analyze_does(self, args, capsys):
        # analyze builds the code, so its refusals set the precedence.
        refusals = []
        for command in ("census", "analyze"):
            status = cli.main([command, *args])
            refusals.append((status, capsys.readouterr()))
        assert refusals[0] == refusals[1]
        assert refusals[0][0] in (cli.EXIT_INVALID, cli.EXIT_REFUSED)


# Runs ``python -m twozero ARGS`` in this interpreter and reports, at exit, the
# OS threads of the process, the OpenBLAS setting it ran with and whether it
# imported numpy.
_THREADS_AT_EXIT = """
import atexit, os, runpy, sys

def report():
    threads = len(os.listdir("/proc/self/task"))
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    sys.stderr.write(f"threads={threads} blas={blas} numpy={'numpy' in sys.modules}\\n")

atexit.register(report)
runpy.run_module("twozero", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
class TestBlasThreads:
    @staticmethod
    def report(blas: str | None) -> str:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_AT_EXIT, "census", "3", "4", "1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stderr.splitlines()[-1]

    def test_cli_runs_numpy_in_one_thread(self):
        # numpy starts OpenBLAS's workers at import (one per further CPU);
        # twozero calls no BLAS routine, so the CLI asks for none.
        assert self.report(None) == "threads=1 blas=1 numpy=True"

    def test_explicit_setting_survives(self):
        assert self.report("2").endswith(" blas=2 numpy=True")


class TestVerify:
    def test_full_suite_341(self):
        proc = run_cli("verify", 3, 4, 1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout
        for fragment in ("rank-census", "t-census", "s-census", "e1", "e2", "identity"):
            assert fragment in proc.stdout

    def test_example_364(self):
        proc = run_cli("verify", 3, 6, 4, "--checks", "example")
        assert proc.returncode == 0
        assert "PASS example" in proc.stdout
        assert "[728, 12, 414]" in proc.stdout

    def test_example_361(self):
        proc = run_cli("verify", 3, 6, 1, "--checks", "example")
        assert proc.returncode == 0
        assert "[728, 12, 468]" in proc.stdout

    def test_explicit_unsupported_check_exits_3(self):
        # e2 has no closed form under CaseA, so asking for it is a refusal.
        proc = run_cli("verify", 3, 6, 4, "--checks", "e2")
        assert proc.returncode == 3

    def test_default_skips_unsupported(self):
        proc = run_cli("verify", 3, 6, 4, "--checks", "rank-census,e1")
        assert proc.returncode == 0

    def test_unknown_check_exits_2(self):
        assert run_cli("verify", 3, 4, 1, "--checks", "nonsense").returncode == 2

    def test_repeated_check_runs_once(self):
        proc = run_cli("verify", 3, 4, 1, "--checks", "e1,e1,rank-census,e1")
        assert proc.returncode == 0, proc.stderr
        assert [line.split(":")[0] for line in proc.stdout.splitlines()] == [
            "PASS e1",
            "PASS rank-census",
        ]

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_empty_check_list_exits_2(self, checks):
        proc = run_cli("verify", 3, 4, 1, "--checks", checks)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "at least one check must be selected" in proc.stderr

    def test_identities_take_fast_mode_within_a_small_budget(self):
        args = ("verify", 3, 4, 1, "--checks", "identities")
        base = run_cli(*args)
        small = run_cli(*args, "--budget", 10000)
        assert base.returncode == small.returncode == 0, small.stderr
        assert small.stdout == base.stdout
        assert small.stdout.count("PASS identity") == 4

    def test_every_check_skipped_exits_3(self):
        proc = run_cli("verify", 3, 4, 1, "--budget", 0)
        assert proc.returncode == 3
        assert proc.stdout == ""
        *skips, refusal = proc.stderr.splitlines()
        assert [line.split(":")[0] for line in skips] == [f"SKIP {c}" for c in cli.CHECK_NAMES]
        assert refusal == "refused: every check was skipped; nothing was verified"

    def test_max_rank_respects_budget(self):
        proc = run_cli("verify", 3, 6, 4, "--checks", "max-rank", "--budget", 500)
        assert proc.returncode == 3
        assert "refused: pair pass needs 526 Gram matrices > budget 500" in proc.stderr


class TestModulusAndWorkers:
    """Output must not depend on the modulus or on how the pair space is split."""

    @pytest.mark.parametrize(
        "args",
        [
            ("sums", 3, 4, 1, "--sum", "S", "--engine", "fast"),
            ("sums", 3, 4, 1, "--sum", "T", "--engine", "fast"),
            ("weights", 3, 4, 1, "--engines", "brute,sums"),
            ("census", 3, 4, 1),
            ("verify", 3, 4, 1),
        ],
        ids=lambda args: "-".join(str(a) for a in args),
    )
    def test_index_1_two_workers_prints_index_0_output(self, args):
        base = run_cli(*args, "--modulus-index", 0, "--workers", 1)
        other = run_cli(*args, "--modulus-index", 1, "--workers", 2)
        assert base.returncode == other.returncode == 0, base.stderr + other.stderr
        assert other.stdout == base.stdout

    def test_workers_below_1_exits_2(self):
        proc = run_cli("census", 3, 4, 1, "--workers", 0)
        assert proc.returncode == 2
        assert not proc.stdout

    def test_negative_budget_exits_2(self):
        proc = run_cli("census", 3, 4, 1, "--budget", -5)
        assert proc.returncode == 2
        assert "budget must be nonnegative, got -5" in proc.stderr
        assert not proc.stdout

    def test_negative_modulus_index_exits_2(self):
        proc = run_cli("analyze", 3, 4, 1, "--modulus-index", -1)
        assert proc.returncode == 2
        assert "modulus_index must be nonnegative, got -1" in proc.stderr
        assert not proc.stdout

    def test_too_large_modulus_index_exits_2(self):
        proc = run_cli("analyze", 3, 8, 1, "--modulus-index", 100000)
        assert proc.returncode == 2
        assert "fewer than 100001 irreducibles of degree 8" in proc.stderr
        assert not proc.stdout

    @pytest.mark.parametrize(
        "args",
        [("weights", 3, 4, 1, "--engines", "closed"), ("sums", 3, 4, 1, "--engine", "closed")],
        ids=["weights", "sums"],
    )
    def test_closed_routes_check_the_modulus_index(self, args):
        proc = run_cli(*args, "--modulus-index", 100000)
        assert proc.returncode == 2
        assert "fewer than 100001 irreducibles of degree 4" in proc.stderr
        assert not proc.stdout


class TestInProcess:
    @pytest.mark.parametrize(
        "argv",
        [
            ["weights", "3", "4", "1", "--engines", "closed"],
            ["sums", "3", "4", "1", "--sum", "S", "--engine", "closed"],
            ["sums", "3", "6", "4", "--sum", "T", "--engine", "closed"],
        ],
        ids=["weights", "sums-S", "sums-T"],
    )
    def test_closed_routes_build_no_field(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a closed route built a field")

        for module in (gf, codes, cli):
            monkeypatch.setattr(module, "build_field", refuse)
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)

    def test_engine_disagreement_exits_1_with_the_differing_rows(self, monkeypatch, capsys):
        real = cli.run_engine

        def skewed(code, engine, **kwargs):
            # One sums word moves from weight 51 to weight 52.
            dist = real(code, engine, **kwargs)
            if engine != "sums":
                return dist
            counts = dist.as_dict()
            counts[51] -= 1
            counts[52] = 1
            return WeightDistribution.from_counts(counts, source="sums")

        monkeypatch.setattr(cli, "run_engine", skewed)  # weights
        monkeypatch.setattr(codes, "run_engine", skewed)  # verify's example, via code_report
        assert cli.main(["weights", "3", "4", "1", "--engines", "brute,sums,closed"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "engines brute and sums disagree:\n"
            "  weight 51: brute=2400 sums=2399\n"
            "  weight 52: brute=0 sums=1\n"
            "engines closed and sums disagree:\n"
            "  weight 51: closed=2400 sums=2399\n"
            "  weight 52: closed=0 sums=1\n"
        )
        assert cli.main(["verify", "3", "4", "1", "--checks", "example"]) == 1
        assert capsys.readouterr().out == (
            "FAIL example: engines brute+closed+sums on [80, 8, 48]: 6 weight rows\n"
        )

    @pytest.mark.parametrize(
        ("target", "strerror"),
        [
            ("missing/out", "No such file or directory"),
            ("adir", "Is a directory"),
            ("afile/out", "Not a directory"),
        ],
        ids=["missing-dir", "a-dir", "under-a-file"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["weights", "3", "4", "1"], ["weights", "3", "4", "1", "--engines", "brute"]],
        ids=["closed", "brute"],
    )
    def test_unwritable_output_is_refused_before_any_work(
        self, argv, target, strerror, monkeypatch, capsys, tmp_path
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an engine ran for an unwritable --output")

        monkeypatch.setattr(cli, "weight_distribution_closed", refuse)
        monkeypatch.setattr(cli, "run_engine", refuse)
        monkeypatch.setattr(codes, "run_engine", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("kept")
        assert cli.main([*argv, "-o", target]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {target}: {strerror}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
        assert list((tmp_path / "adir").iterdir()) == []
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_refused_verify_writes_no_output(self, existing, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / "f").write_text("kept")
        assert cli.main(["verify", "3", "4", "1", "--budget", "0", "-o", "f"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("refused: every check was skipped; nothing was verified\n")
        assert [p.name for p in tmp_path.iterdir()] == (["f"] if existing else [])
        if existing:
            assert (tmp_path / "f").read_text() == "kept"


class TestFormats:
    @pytest.mark.parametrize(
        "command, fmt",
        [("verify", "json"), ("verify", "csv"), ("census", "csv"), ("analyze", "csv")],
    )
    def test_unsupported_format_exits_2(self, command, fmt):
        proc = run_cli(command, 3, 4, 1, "--format", fmt)
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr
        assert not proc.stdout

    @pytest.mark.parametrize("command", [("weights",), ("verify", "--checks", "e1")])
    def test_unwritable_output_exits_2(self, command, tmp_path):
        path = tmp_path / "missing" / "out"
        proc = run_cli(command[0], 3, 4, 1, *command[1:], "-o", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: cannot write {path}: No such file or directory\n"
        )

    def test_verify_text_layout_is_its_default(self):
        args = ("verify", 3, 4, 1, "--checks", "e1")
        proc = run_cli(*args, "--format", "markdown")
        assert proc.returncode == 0
        assert proc.stdout == run_cli(*args).stdout
