from __future__ import annotations

import json
import subprocess
import sys

import pytest


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
        proc = run_cli("weights", 3, 9, 3, "--engines", "brute")
        assert proc.returncode == 3
        assert "needs 1162202418 coordinate checks > budget 400000000" in proc.stderr

    def test_brute_within_budget_382(self):
        proc = run_cli("weights", 3, 8, 2, "--engines", "brute,closed")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["agreement"]["all_equal"] is True

    def test_unsupported_closed_exits_3(self):
        proc = run_cli("weights", 3, 3, 1, "--engines", "closed")
        assert proc.returncode == 3

    def test_unknown_engine_exits_2(self):
        assert run_cli("weights", 3, 4, 1, "--engines", "magic").returncode == 2

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

    def test_max_rank_respects_budget(self):
        proc = run_cli("verify", 3, 6, 4, "--checks", "max-rank", "--budget", 1000)
        assert proc.returncode == 3
        assert "refused: pair pass needs 2187 Gram matrices > budget 1000" in proc.stderr


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

    def test_verify_text_layout_is_its_default(self):
        args = ("verify", 3, 4, 1, "--checks", "e1")
        proc = run_cli(*args, "--format", "markdown")
        assert proc.returncode == 0
        assert proc.stdout == run_cli(*args).stdout
