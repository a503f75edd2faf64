import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqfpairs import lambdasums
from sqfpairs.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, build_parser, main
from sqfpairs.counting import DEFAULT_MEMORY_BUDGET
from sqfpairs.expsums import RESIDUE_BYTES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run(capsys, "count", "--H", "2")
        assert code == EXIT_OK
        assert out.count("S(2) = 3") == 2
        assert "value-sieve" in out and "mobius-identity" in out

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "count", "--H", "3", "--method", "value-sieve")
        assert code == EXIT_OK
        assert "S(3) = 8" in out and "mobius" not in out

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "count", "--H", "10", "--output-format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for row in rows:
            assert int(row["H"]) == 10
            assert int(row["S"]) == 78
            assert row["method"] in ("value-sieve", "mobius-identity")
            assert float(row["elapsed_seconds"]) >= 0

    def test_json_mirrors_report(self, capsys):
        code, out, _ = run(capsys, "count", "--H", "5", "--output-format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [r["S"] for r in payload] == [20, 20]
        assert {r["method"] for r in payload} == {"value-sieve", "mobius-identity"}
        assert all(set(r) == {"H", "S", "method", "elapsed"} for r in payload)

    def test_invalid_H(self, capsys):
        # 6,000,000 needs a probe window of 2^32 bits or more
        for H in ("0", "6000000"):
            code, _, err = run(capsys, "count", "--H", H)
            assert code == EXIT_USAGE
            assert "error" in err

    def test_budget_exit(self, capsys):
        code, _, err = run(capsys, "count", "--H", "100000", "--memory-budget", "1000")
        assert code == EXIT_BUDGET
        assert "budget" in err


class TestLambda:
    def test_evaluators_agree(self, capsys):
        code, out, _ = run(capsys, "lambda", "--q", "15", "--n", "0", "--m", "0")
        assert code == EXIT_OK
        assert "16.000000000" in out
        assert "direct" in out and "fast-odd" in out and "any" in out
        assert "agreement: yes" in out

    def test_even_modulus_skips_fast_odd(self, capsys):
        code, out, _ = run(capsys, "lambda", "--q", "50", "--n", "3", "--m", "4")
        assert code == EXIT_OK
        assert "fast-odd" not in out and "any" in out

    def test_text_prints_one_sign_per_imaginary_part(self, capsys):
        # two of the imaginary parts here round to -0.000000000
        code, out, _ = run(capsys, "lambda", "--q", "7", "--n", "1", "--m", "2")
        assert code == EXIT_OK
        assert out.count(" + 0.000000000i") == 3
        assert not any("+ -" in line for line in out.splitlines())

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "lambda", "--q", "9", "--n", "1", "--m", "2",
                           "--output-format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "evaluator,re,im"
        assert lines[-1] == "# agree=true"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "lambda", "--q", "3", "--n", "0", "--m", "0",
                           "--output-format", "json")
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["q"] == 3
        names = {e["evaluator"] for e in payload["evaluations"]}
        assert names == {"direct", "fast-odd", "any"}
        assert all(abs(e["re"] - 4.0) < 1e-6 for e in payload["evaluations"])

    @pytest.mark.parametrize("q", [lambdasums.DEFAULT_SOLVE_CEILING + 1, 99999989])
    def test_budget_exit_above_the_solve_ceiling(self, capsys, traced_peak, q):
        # every table is refused before it is allocated
        with traced_peak() as traced:
            code, _, err = run(capsys, "lambda", "--q", str(q), "--n", "0", "--m", "0")
        assert code == EXIT_BUDGET
        assert "ceiling" in err
        assert traced.peak < 2**20

    def test_budget_exit_under_a_given_budget(self, capsys, traced_peak):
        # q = 999983 needs ~128 MB at 128 bytes per residue; nothing is built
        with traced_peak() as traced:
            code, _, err = run(capsys, "lambda", "--q", "999983", "--n", "0", "--m", "0",
                               "--memory-budget", "1000000")
        assert code == EXIT_BUDGET
        assert "budget" in err
        assert traced.peak < 2**20

    @pytest.mark.parametrize("budget,code", [(128 * 101, EXIT_OK), (128 * 101 - 1, EXIT_BUDGET)])
    def test_budget_admits_128_bytes_per_residue(self, capsys, budget, code):
        assert run(capsys, "lambda", "--q", "101", "--n", "1", "--m", "2",
                   "--memory-budget", str(budget))[0] == code

    def test_default_budget_ceiling_is_the_solve_ceiling(self):
        assert DEFAULT_MEMORY_BUDGET // RESIDUE_BYTES == lambdasums.DEFAULT_SOLVE_CEILING == 2**24

    @pytest.mark.parametrize("q", [1, 15, 999, 2, 10, 12, 16])
    def test_any_evaluated_only_for_even_q(self, capsys, monkeypatch, q):
        # for odd q, lambda_any is lambda_fast_odd, whose value is reported twice
        calls = []
        evaluate = lambdasums.lambda_any

        def spy(*args):
            calls.append(args)
            if q % 2:
                raise AssertionError(f"lambda_any evaluated for odd q = {q}")
            return evaluate(*args)

        monkeypatch.setattr(lambdasums, "lambda_any", spy)
        code, out, _ = run(capsys, "lambda", "--q", str(q), "--n", "3", "--m", "4",
                           "--output-format", "csv")
        assert code == EXIT_OK
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:-1])
        assert ("any" in rows) == (q % 8 != 0)
        assert calls == ([(q, 3, 4)] if q % 2 == 0 and q % 8 else [])
        if q % 2:
            assert rows["any"] == rows["fast-odd"]

    def test_solve_ceiling_keeps_the_command_within_the_budget(self, capsys, traced_peak):
        # The ceiling allows DEFAULT_MEMORY_BUDGET // DEFAULT_SOLVE_CEILING
        # bytes per residue.  q is a prime no other test solves, so every
        # table is built inside the traced run.
        q = 200017
        with traced_peak() as traced:
            code = run(capsys, "lambda", "--q", str(q), "--n", "0", "--m", "0")[0]
        assert code == EXIT_OK
        assert traced.peak <= DEFAULT_MEMORY_BUDGET // lambdasums.DEFAULT_SOLVE_CEILING * q


class TestConstant:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "constant", "--P", "3")
        assert code == EXIT_OK
        assert "0.780492778" in out

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "constant", "--P", "100", "--output-format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        from sqfpairs.asymptotic import constant_c
        est = constant_c(100)
        assert int(rows[0]["cutoff"]) == 100
        assert float(rows[0]["value"]) == est.value
        assert float(rows[0]["tail_bound"]) == est.tail_bound

    def test_rejects_bad_cutoff(self, capsys):
        code, _, err = run(capsys, "constant", "--P", "1")
        assert code == EXIT_USAGE

    def test_budget_exit_before_prime_sieve(self, capsys):
        # primes_upto(P) would need 1 GB; it must refuse before allocating
        code, _, err = run(capsys, "constant", "--P", "1000000000")
        assert code == EXIT_BUDGET
        assert "budget" in err


class TestScan:
    def test_csv_schema_and_round_trip(self, capsys):
        code, out, _ = run(capsys, "scan", "--H-ladder", "50,100,200,400", "--P", "1000",
                           "--output-format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "H,S,E,elapsed_seconds"
        assert lines[-1].startswith("# alpha=")
        body = list(csv.DictReader(io.StringIO("\n".join(lines[:-1]))))
        assert [int(r["H"]) for r in body] == [50, 100, 200, 400]
        from sqfpairs.asymptotic import error_scan
        want = error_scan([50, 100, 200, 400], 1000)
        for row, expect in zip(body, want.rows):
            assert int(row["S"]) == expect.S
            assert float(row["E"]) == expect.E
        footer = dict(part.split("=") for part in lines[-1][2:].split(","))
        assert float(footer["alpha"]) == want.alpha
        assert float(footer["c"]) == want.c
        assert int(footer["P"]) == 1000

    def test_json(self, capsys):
        code, out, _ = run(capsys, "scan", "--H-ladder", "20,40", "--P", "100",
                           "--output-format", "json")
        payload = json.loads(out)
        assert [r["H"] for r in payload["rows"]] == [20, 40]
        assert payload["P"] == 100
        assert payload["alpha"] is None  # two rows cannot support a fit
        assert payload["alpha_stderr"] is None
        assert payload["sieve_seconds"] >= 0

    def test_json_carries_the_bound_of_c(self, capsys):
        from sqfpairs.asymptotic import constant_c
        code, out, _ = run(capsys, "scan", "--H-ladder", "20,40", "--P", "1000",
                           "--output-format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        est = constant_c(1000)
        assert payload["c"] == est.value
        assert payload["c_tail_bound"] == est.tail_bound

    def test_json_carries_the_standard_error_of_alpha(self, capsys):
        from sqfpairs.asymptotic import error_scan
        code, out, _ = run(capsys, "scan", "--H-ladder", "50,100,200,400", "--P", "1000",
                           "--output-format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        want = error_scan([50, 100, 200, 400], 1000)
        assert (payload["alpha"], payload["alpha_stderr"]) == (want.alpha, want.alpha_stderr)
        assert payload["alpha_stderr"] > 0

    def test_sieve_seconds_are_part_of_the_elapsed_time(self, capsys):
        # the segments are built inside the probe, so their summed build
        # time is part of the last row's elapsed time
        code, out, _ = run(capsys, "scan", "--H-ladder", "500,1000,3000", "--P", "100",
                           "--output-format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert 0 < payload["sieve_seconds"] <= payload["rows"][-1]["elapsed"]

    def test_text_reports_sieve_build(self, capsys):
        code, out, _ = run(capsys, "scan", "--H-ladder", "20,40", "--P", "100")
        assert code == EXIT_OK
        assert out.startswith("sieve build ")

    def test_budget_exit_before_constant(self, capsys, monkeypatch):
        from sqfpairs import asymptotic

        def refuse(P):
            raise AssertionError("constant_c called before the budget check")

        monkeypatch.setattr(asymptotic, "constant_c", refuse)
        code, _, err = run(capsys, "scan", "--H-ladder", "100000", "--P", "1000",
                           "--memory-budget", "1000")
        assert code == EXIT_BUDGET
        assert "budget" in err

    @pytest.mark.parametrize("P,want", [("1", EXIT_USAGE), ("1000000000", EXIT_BUDGET)])
    def test_bad_cutoff_exits_before_the_sieve(self, capsys, monkeypatch, P, want):
        # the constant comes after the sieve, so P is checked before the build
        from sqfpairs import asymptotic

        def refuse(*args, **kwargs):
            raise AssertionError("the sieve was probed before P was checked")

        monkeypatch.setattr(asymptotic, "_probe_ladder", refuse)
        code, _, err = run(capsys, "scan", "--H-ladder", "100,200", "--P", P)
        assert code == want
        assert ("cutoff" if want == EXIT_USAGE else "budget") in err

    def test_bad_ladder(self, capsys):
        code, _, err = run(capsys, "scan", "--H-ladder", "100,50")
        assert code == EXIT_USAGE


class TestVerify:
    def test_selected_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "residue-count")
        assert code == EXIT_OK
        assert "residue-count: PASS" in out
        assert "1/1 suites passed" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == EXIT_USAGE

    def test_list(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == EXIT_OK
        assert "weil-bound" in out.splitlines()

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "inverse-involution",
                           "--output-format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["suite"] == "inverse-involution"
        assert rows[0]["ok"] == "true"

    def test_json_records_peak_rss_per_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "residue-count", "--suite",
                           "squarefree-density", "--output-format", "json")
        assert code == EXIT_OK
        records = json.loads(out)
        peaks = [r["peak_rss_mb"] for r in records]
        assert [r["name"] for r in records] == ["residue-count", "squarefree-density"]
        # ru_maxrss after each suite: positive and never falling
        assert 0 < peaks[0] <= peaks[1]
        code, out, _ = run(capsys, "verify", "--suite", "residue-count", "--output-format", "csv")
        assert out.splitlines()[0] == "suite,ok,checked,elapsed_seconds"
        code, out, _ = run(capsys, "verify", "--suite", "residue-count")
        assert "rss" not in out.lower()

    @pytest.mark.parametrize("suite", ["scan-envelope", "squarefree-density",
                                       "count-oracle-equivalence"])
    def test_budget_applies_to_sieve_suites(self, capsys, suite):
        code, _, err = run(capsys, "verify", "--suite", suite, "--memory-budget", "1000")
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_seed_changes_nothing_for_deterministic_suite(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "residue-count", "--seed", "1",
                             "--output-format", "csv")
        code2, out2, _ = run(capsys, "verify", "--suite", "residue-count", "--seed", "2",
                             "--output-format", "csv")
        assert code1 == code2 == EXIT_OK

    @pytest.mark.parametrize("argv, seed", [((), 12345), (("--seed", "7"), 7)])
    def test_seed_reaches_the_suites(self, capsys, monkeypatch, argv, seed):
        from sqfpairs import verify
        seeds = []
        monkeypatch.setattr(verify, "run_suites", lambda names, seed: seeds.append(seed) or [])
        assert run(capsys, "verify", *argv)[0] == EXIT_OK
        assert seeds == [seed] and verify.DEFAULT_SEED == 12345


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["count"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_env_thread_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SQFPAIRS_THREADS", "2")
        code, out, _ = run(capsys, "count", "--H", "5", "--method", "value-sieve")
        assert code == EXIT_OK and "S(5) = 20" in out

    @pytest.mark.parametrize("value", ["2.5", "True"])
    def test_non_integer_env_threads_names_the_variable(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SQFPAIRS_THREADS", value)
        code, _, err = run(capsys, "count", "--H", "10", "--method", "value-sieve")
        assert code == EXIT_USAGE
        assert f"SQFPAIRS_THREADS must be an integer, got '{value}'" in err

    def test_empty_env_threads_counts_as_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("SQFPAIRS_THREADS", "")
        code, out, _ = run(capsys, "count", "--H", "5", "--method", "value-sieve")
        assert code == EXIT_OK and "S(5) = 20" in out

    def test_threads_only_where_pairs_are_probed(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        takes = {name for name, p in sub.choices.items()
                 if any("--threads" in a.option_strings for a in p._actions)}
        assert set(sub.choices) == {"count", "lambda", "constant", "scan", "verify"}
        assert takes == {"count", "scan"}

    @pytest.mark.parametrize("argv", [
        ("lambda", "--q", "15", "--n", "0", "--m", "0"),
        ("constant", "--P", "100"),
        ("verify", "--suite", "residue-count"),
    ])
    def test_threads_is_a_usage_error_elsewhere(self, capsys, argv):
        assert main([*argv, "--threads", "2"]) == EXIT_USAGE
        assert "--threads" in capsys.readouterr().err

    def test_threads_is_a_usage_error_for_the_identity_route(self, capsys, monkeypatch):
        # the flag sets the value sieve's workers: the identity route alone
        # refuses it, but reads SQFPAIRS_THREADS as the other methods do
        code, _, err = run(capsys, "count", "--H", "5", "--method", "mobius-identity",
                           "--threads", "2")
        assert code == EXIT_USAGE and "--threads" in err
        for method in ("value-sieve", "both"):
            code, out, _ = run(capsys, "count", "--H", "5", "--method", method, "--threads", "2")
            assert code == EXIT_OK and "S(5) = 20" in out
        monkeypatch.setenv("SQFPAIRS_THREADS", "2")
        code, out, _ = run(capsys, "count", "--H", "5", "--method", "mobius-identity")
        assert code == EXIT_OK and "S(5) = 20" in out

    @pytest.mark.parametrize("argv", [("count", "--H", "5", "--method", "value-sieve"),
                                      ("scan", "--H-ladder", "20,40", "--P", "100")])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_non_positive_threads_is_usage_error(self, capsys, argv, threads):
        code, _, err = run(capsys, *argv, "--threads", threads)
        assert code == EXIT_USAGE
        assert "threads must be a positive integer" in err

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SQFPAIRS_MEMORY_BUDGET", "1000")
        code, _, err = run(capsys, "count", "--H", "100000", "--method", "value-sieve")
        assert code == EXIT_BUDGET

    def test_non_positive_budget_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "--H", "10", "--memory-budget", "0")
        assert code == EXIT_USAGE
        assert "memory budget must be positive" in err

    @pytest.mark.parametrize("argv", [
        ("count", "--H", "10", "--method", "mobius-identity", "--memory-budget", "0"),
        ("verify", "--suite", "squarefree-density", "--memory-budget", "0"),
        ("constant", "--P", "100", "--memory-budget", "-3"),
        ("lambda", "--q", "15", "--n", "0", "--m", "0", "--memory-budget", "0"),
    ])
    def test_budget_checked_by_every_command(self, capsys, argv):
        # also where no value sieve is built
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "memory budget must be positive" in err

    @pytest.mark.parametrize("argv", [
        ("constant", "--P", "100", "--memory-budget", "1"),
        ("verify", "--suite", "lambda-growth", "--memory-budget", "1000"),
        ("count", "--H", "200", "--method", "mobius-identity", "--memory-budget", "1000"),
    ])
    def test_budget_flag_reaches_every_allocator(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_budget_flag_reaches_the_probe_threads(self, capsys, monkeypatch):
        # the pool's threads run under the flag's budget, not the environment's
        from sqfpairs import counting
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("SQFPAIRS_MEMORY_BUDGET", "500")
        code, out, err = run(capsys, "count", "--H", "300", "--method", "value-sieve",
                             "--threads", "2", "--memory-budget", "100000000")
        assert (code, err) == (EXIT_OK, "")
        assert "S(300) = 70263" in out

    def test_env_budget_leaves_import_alone(self):
        # the import-time prime table must not be refused by a small budget
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, SQFPAIRS_MEMORY_BUDGET="1000",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "sqfpairs.cli", "count", "--H", "100000",
                               "--method", "value-sieve"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_BUDGET
        assert "budget" in proc.stderr

    def test_non_integer_env_budget_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("SQFPAIRS_MEMORY_BUDGET", "5e3")
        code, _, err = run(capsys, "count", "--H", "10", "--method", "value-sieve")
        assert code == EXIT_USAGE
        assert "SQFPAIRS_MEMORY_BUDGET" in err and "'5e3'" in err

    def test_non_positive_env_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SQFPAIRS_MEMORY_BUDGET", "-5")
        code, _, err = run(capsys, "count", "--H", "10", "--method", "value-sieve")
        assert code == EXIT_USAGE
        assert "memory budget must be positive" in err
