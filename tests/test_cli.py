"""CLI envelope contract: payloads, exit codes, determinism."""

from __future__ import annotations

import json
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap
import time

import pytest

from g2cm import cli, frobenius, oracle, primes, sylow
from g2cm.cli import SCAN_MAX_CURVES, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFieldCommand:
    def test_cyclic(self, capsys):
        code, env = run_cli(capsys, "field", "-D", "2", "-a", "2", "-b", "1")
        assert code == 0
        assert env["status"] == "ok"
        assert env["results"]["galois_type"] == "Cyclic"
        assert env["results"]["primitive"] is True

    def test_biquadratic(self, capsys):
        code, env = run_cli(capsys, "field", "-D", "2", "-a", "1", "-b", "0")
        assert code == 0
        assert env["results"]["galois_type"] == "Biquadratic"
        assert env["results"]["primitive"] is False

    def test_invalid_discriminant(self, capsys):
        code, env = run_cli(capsys, "field", "-D", "4", "-a", "1", "-b", "1")
        assert code == 2
        assert env["status"] == "error"
        assert env["error"]["code"] == "invalid-discriminant"

    def test_huge_discriminant_rejected_at_once(self, capsys):
        start = time.perf_counter()
        code, env = run_cli(capsys, "field", "-D",
                            "100000000000000000000000000007", "-a", "1", "-b", "1")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert env["error"]["code"] == "invalid-discriminant"


class TestAnalyzeCommand:
    def test_anchor(self, capsys):
        code, env = run_cli(capsys, "analyze", "-D", "2", "-a", "2", "-b", "1",
                            "-c", "1,1,2,-1")
        assert code == 0
        r = env["results"]
        assert r["p"] == "7"
        assert r["N"] == "28"
        assert r["sylow_order"] == "7"
        assert r["forms_agree"] is True
        assert r["char_poly_closed"]["coeffs_low_first"] == [
            "49", "-28", "10", "-4", "1"]

    def test_c2_zero(self, capsys):
        code, env = run_cli(capsys, "analyze", "-D", "2", "-a", "2", "-b", "1",
                            "-c", "1,0,1,0")
        assert code == 2
        assert env["error"]["code"] == "c2-zero"

    def test_not_primitive(self, capsys):
        code, env = run_cli(capsys, "analyze", "-D", "2", "-a", "1", "-b", "0",
                            "-c", "1,1,1,1")
        assert code == 2
        assert env["error"]["code"] == "not-primitive"

    def test_one_char_poly_product(self, capsys, monkeypatch):
        calls = []

        def counting(w):
            calls.append(w)
            return frobenius.char_poly_product(w)

        monkeypatch.setattr(cli, "char_poly_product", counting)
        monkeypatch.setattr(sylow, "char_poly_product", counting)
        code, env = run_cli(capsys, "analyze", "-D", "2", "-a", "2", "-b", "1",
                            "-c", "1,1,2,-1")
        assert code == 0 and len(calls) == 1
        assert env["results"]["char_poly_product"]["coeffs_low_first"] == [
            "49", "-28", "10", "-4", "1"]


@pytest.mark.parametrize("command", ["analyze", "charpoly"])
def test_tests_p_once(capsys, monkeypatch, command):
    tested = []

    def counting(n):
        tested.append(n)
        return primes.is_prime(n)

    for module in (frobenius, oracle, sylow):
        monkeypatch.setattr(module, "is_prime", counting)
    code, _ = run_cli(capsys, command, "-D", "2", "-a", "2", "-b", "1",
                      "-c", "1,1,2,-1")
    assert code == 0 and tested == [7]


class TestCharpolyCommand:
    def test_anchor(self, capsys):
        code, env = run_cli(capsys, "charpoly", "-D", "2", "-a", "2", "-b", "1",
                            "-c", "1,1,2,-1")
        assert code == 0
        r = env["results"]
        assert r["forms_agree"] is True
        assert r["weil"]["functional_equation_ok"] is True
        assert r["N"] == "28"

    def test_repeated_roots_are_on_the_circle(self, capsys):
        # ω = ξ = √2 gives P = (X² − 2)², roots ±√2 twice each
        code, env = run_cli(capsys, "charpoly", "-D", "2", "-a", "2", "-b", "1",
                            "-c", "0,1,0,0")
        assert code == 0
        r = env["results"]
        assert r["char_poly_product"]["display"] == "X^4+0X^3-4X^2+0X+4"
        assert r["weil"] == {"constant_term_ok": True,
                             "functional_equation_ok": True,
                             "root_moduli_ok": True}


class TestLemma2Command:
    def test_summary(self, capsys):
        code, env = run_cli(capsys, "lemma2")
        assert code == 0
        assert env["results"]["counterexample_count"] == 0
        assert env["results"]["row_count"] == env["results"]["expected_row_count"]

    def test_rows_contains_known_case(self, capsys):
        code, env = run_cli(capsys, "lemma2", "--rows")
        assert code == 0
        rows = env["results"]["rows"]
        match = [r for r in rows
                 if (r["p"], r["D"], r["c1"], r["c2"]) == (3, 2, -1, 0)]
        assert match and match[0]["N"] == "36"
        assert match[0]["excluded_nonprimitive"] is True
        keys = [(r["p"], r["D"], r["c1"], r["c2"]) for r in rows]
        assert keys == sorted(keys)


class TestOracleCommand:
    def test_enumerate(self, capsys):
        code, env = run_cli(capsys, "oracle", "-p", "3",
                            "--coeffs", "1,0,0,0,0,1", "--mode", "enumerate")
        assert code == 0
        r = env["results"]
        assert r["order"] == "10"
        assert r["invariant_factors"] == ["10"]
        assert r["p_sylow_factors"] == []
        assert r["cross_check_order_equals_P1"] is True

    def test_count_sextic(self, capsys):
        code, env = run_cli(capsys, "oracle", "-p", "3",
                            "--coeffs", "1,1,0,0,0,0,1", "--mode", "count")
        assert code == 0
        assert env["results"]["N1"] == "7"

    def test_non_squarefree_rejected(self, capsys):
        # x³(x + 1)² over F₃
        code, env = run_cli(capsys, "oracle", "-p", "3",
                            "--coeffs", "0,0,0,1,2,1", "--mode", "enumerate")
        assert code == 2
        assert env["error"]["code"] == "invalid-curve"

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CM2_BUDGET", "10")
        code, env = run_cli(capsys, "oracle", "-p", "3",
                            "--coeffs", "1,0,0,0,0,1", "--mode", "enumerate")
        assert code == 2
        assert env["error"]["code"] == "budget-exceeded"

    @pytest.mark.parametrize("mode", ["count", "enumerate"])
    def test_large_p_rejected_at_once(self, capsys, mode):
        start = time.perf_counter()
        code, env = run_cli(capsys, "oracle", "-p", "100003",
                            "--coeffs", "1,0,0,0,0,1", "--mode", mode)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert env["error"]["code"] == "budget-exceeded"

    @pytest.mark.parametrize("argv", [
        ["oracle", "-p", "1009", "--coeffs", "1,2,3,4,5,1"],
        ["scan", "-p", "1009", "--count", "1"],
    ])
    def test_large_p_rejected_at_once_with_a_large_budget(
            self, capsys, monkeypatch, argv):
        # the budget admits p = 1009, the point count does not
        monkeypatch.setenv("CM2_BUDGET", "2000000")
        start = time.perf_counter()
        code, env = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert env["error"]["code"] == "budget-exceeded"
        assert "point-counting limit" in env["error"]["message"]

    def test_count_below_the_cap(self, capsys):
        # x ↦ x⁵ permutes F_997 and F_997², so y² = x⁵ + 1 has p^k + 1 points
        code, env = run_cli(capsys, "oracle", "-p", "997",
                            "--coeffs", "1,0,0,0,0,1", "--mode", "count")
        assert code == 0
        r = env["results"]
        assert (r["N1"], r["N2"]) == ("998", "994010")
        assert r["char_poly"]["coeffs_low_first"] == ["994009", "0", "0", "0", "1"]

    @pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
    @pytest.mark.parametrize("command", ["oracle", "scan"])
    def test_invalid_budget_env(self, capsys, monkeypatch, raw, command):
        monkeypatch.setenv("CM2_BUDGET", raw)
        argv = (["oracle", "-p", "3", "--coeffs", "1,0,0,0,0,1"]
                if command == "oracle" else ["scan", "-p", "3", "--count", "1"])
        code, env = run_cli(capsys, *argv)
        assert code == 2
        assert env["status"] == "error"
        assert env["error"]["code"] == "invalid-argument"


class TestScanCommand:
    def test_small_scan(self, capsys):
        code, env = run_cli(capsys, "scan", "-p", "3", "--count", "5")
        assert code == 0
        r = env["results"]
        assert r["curves_checked"] == 5
        assert r["all_match"] is True

    @pytest.mark.parametrize("p", ["1", "4", "9", "2", "-7"])
    def test_p_not_an_odd_prime(self, capsys, p):
        code, env = run_cli(capsys, "scan", "-p", p)
        assert code == 2
        assert env["error"]["code"] == "invalid-curve"

    @pytest.mark.parametrize("count", ["1000", "325", "0", "-1"])
    def test_count_out_of_range(self, capsys, count):
        # (p − 1)(p⁵ − p⁴) = 324 squarefree quintics exist at p = 3
        code, env = run_cli(capsys, "scan", "-p", "3", "--count", count)
        assert code == 2
        assert env["error"]["code"] == "invalid-argument"
        assert env["error"]["message"] == (
            "--count must be between 1 and 324, the number of squarefree "
            f"quintics at p = 3, got {count}")

    def test_count_up_to_every_curve(self, capsys):
        code, env = run_cli(capsys, "scan", "-p", "3", "--count", "324")
        assert code == 0
        assert env["results"]["curves_checked"] == 324

    def test_all_above_the_cap(self, capsys):
        # 1,464,100 squarefree quintics at p = 11, beyond SCAN_MAX_CURVES
        start = time.perf_counter()
        code, env = run_cli(capsys, "scan", "-p", "11", "--all")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert env["error"]["code"] == "invalid-argument"
        assert str(SCAN_MAX_CURVES) in env["error"]["message"]

    def test_count_above_the_cap(self, capsys):
        code, env = run_cli(capsys, "scan", "-p", "47", "--count",
                            str(SCAN_MAX_CURVES + 1))
        assert code == 2
        assert env["error"]["code"] == "invalid-argument"
        assert str(SCAN_MAX_CURVES) in env["error"]["message"]


class TestArgumentErrors:
    """argparse errors give the error envelope, with exit 2."""

    @pytest.mark.parametrize("argv, command", [
        (["oracle", "-p", "3", "--coeffs", "1,x"], "oracle"),
        (["oracle", "-p", "x", "--coeffs", "1,0,0,0,0,1"], "oracle"),
        (["analyze", "-D", "2", "-a", "2", "-b", "1", "-c", "1,2,3"], "analyze"),
        (["charpoly", "-D", "2", "-a", "2", "-b", "1", "-c", "-1,1,2,-1"],
         "charpoly"),
        (["scan"], "scan"),
        ([], None),
        (["nosuchcommand"], None),
    ])
    def test_envelope(self, capsys, argv, command):
        code, env = run_cli(capsys, *argv)
        assert code == 2
        assert env == {
            "command": command,
            "inputs": None,
            "results": None,
            "status": "error",
            "error": {"code": "invalid-argument",
                      "message": env["error"]["message"]},
        }

    def test_negative_c1_with_equals_sign(self, capsys):
        code, env = run_cli(capsys, "analyze", "-D", "2", "-a", "2", "-b", "1",
                            "-c=-1,1,2,-1")
        assert env["inputs"]["c"] == [-1, 1, 2, -1]
        assert env["error"]["code"] == "norm-not-prime"

    def test_help_keeps_its_text(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--help"])
        assert exc.value.code == 0
        assert "usage: g2cm oracle" in capsys.readouterr().out


class TestEnvelopeContract:
    def test_deterministic_output(self, capsys):
        argv = ["analyze", "-D", "2", "-a", "2", "-b", "1", "-c", "1,1,2,-1"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_round_trip(self, capsys):
        code, env = run_cli(capsys, "lemma2", "--rows")
        assert json.loads(json.dumps(env)) == env

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["--out", str(target), "field", "-D", "2", "-a", "2",
                     "-b", "1"])
        assert code == 0
        on_disk = json.loads(target.read_text())
        printed = json.loads(capsys.readouterr().out)
        assert on_disk == printed

    def test_unwritable_out_is_invalid_argument(self, capsys, tmp_path):
        # a missing parent directory, a directory, and an empty path
        for target in (tmp_path / "missing" / "x.json", tmp_path, ""):
            code, env = run_cli(capsys, f"--out={target}", "field", "-D", "2",
                                "-a", "2", "-b", "1")
            assert code == 2, target
            assert env["status"] == "error"
            assert env["results"] is None
            assert env["error"]["code"] == "invalid-argument"
            assert list(env) == ["command", "inputs", "results", "status", "error"]

    def test_pretty_is_human_readable(self, capsys):
        code = main(["--pretty", "field", "-D", "2", "-a", "2", "-b", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "galois_type: Cyclic" in out

    def test_no_subcommand_imports_numpy(self):
        # sympy is blocked outright: any import of it fails
        script = textwrap.dedent("""
            import contextlib, io, sys
            sys.modules["sympy"] = None
            from g2cm.cli import main
            for argv in (
                ["field", "-D", "2", "-a", "2", "-b", "1"],
                ["analyze", "-D", "2", "-a", "2", "-b", "1", "-c", "1,1,2,-1"],
                ["charpoly", "-D", "2", "-a", "2", "-b", "1", "-c", "0,1,0,0"],
                ["lemma2", "--rows"],
                ["oracle", "-p", "3", "--coeffs", "1,0,0,0,0,1"],
                ["oracle", "-p", "3", "--coeffs", "1,0,0,0,0,1", "--mode", "count"],
                ["scan", "-p", "3", "--count", "3"],
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0, argv
            print("numpy" in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "g2cm.cli", "field", "-D", "2", "-a", "2",
             "-b", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "ok"

    def test_closed_stdout_is_input_error(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "g2cm.cli", "oracle", "-p", "3",
                 "--coeffs", "1,0,0,0,0,1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == ""


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_lines() -> list[list[str]]:
    """The argv of each line of the README's CLI code block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(line[0] == "g2cm" for line in lines)
    return [line[1:] for line in lines]


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_cli_line_succeeds(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()


FIELD = ["field", "-D", "2", "-a", "2", "-b", "1"]
ORACLE = ["oracle", "-p", "3", "--coeffs", "1,0,0,0,0,1"]

#: One in-process sequence: (argv, CM2_BUDGET or None).  "OUT" is
#: replaced by a path in the test's directory.
SEQUENCE = [
    (["oracle", "-p", "3", "--coeffs", "1,x"], None),
    (["oracle", "--help"], None),
    (["--out", "OUT"] + FIELD, None),
    (["--pretty"] + FIELD, None),
    (FIELD, None),
    (["analyze", "-D", "2", "-a", "2", "-b", "1", "-c", "1,1,2,-1"], None),
    (["analyze", "-D", "2", "-a", "2", "-b", "1", "-c", "1,0,1,0"], None),
    (["charpoly", "-D", "2", "-a", "2", "-b", "1", "-c", "0,1,0,0"], None),
    (["lemma2", "--rows"], None),
    (ORACLE, None),
    (ORACLE, "10"),
    (["scan", "-p", "3", "--count", "2"], "x"),
    (["scan", "-p", "3", "--all"], None),
    ([], None),
    (["--pretty", "nosuchcommand"], None),
]


def in_process(argv, budget, out, monkeypatch, capsys):
    """(exit code, stdout, --out file) of main(argv) in this process."""
    if budget is None:
        monkeypatch.delenv("CM2_BUDGET", raising=False)
    else:
        monkeypatch.setenv("CM2_BUDGET", budget)
    out.unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    written = out.read_text() if out.exists() else None
    return code, capsys.readouterr().out, written


def in_subprocess(argv, budget, out):
    env = {k: v for k, v in os.environ.items() if k != "CM2_BUDGET"}
    if budget is not None:
        env["CM2_BUDGET"] = budget
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "g2cm.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.stderr == ""
    written = out.read_text() if out.exists() else None
    return proc.returncode, proc.stdout, written


class TestParserReuse:
    """main reuses one parser; each report is what a fresh parser gives."""

    def test_sequence_matches_fresh_parsers_and_processes(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the width
        out = tmp_path / "report.json"
        runs = [([str(out) if a == "OUT" else a for a in argv], budget)
                for argv, budget in SEQUENCE]
        reused = [in_process(argv, budget, out, monkeypatch, capsys)
                  for argv, budget in runs]
        assert [r[0] for r in reused] == [2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 2,
                                          0, 2, 2]
        assert reused[2][2] == reused[4][1]  # --out holds the printed report
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [in_process(argv, budget, out, monkeypatch, capsys)
                 for argv, budget in runs]
        assert reused == fresh
        assert reused == [in_subprocess(argv, budget, out)
                          for argv, budget in runs]

    def test_fifty_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        cli.build_parser.__wrapped__()
        per_build = len(built)  # the top parser and one per subcommand
        built.clear()
        cli.build_parser.cache_clear()
        for _ in range(50):
            assert main(FIELD) == 0
        capsys.readouterr()
        assert len(built) == per_build == 7
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 49)
