"""Command-line interface, driven through cli.main(argv) with captured
output: exit codes, output formats, and cross-format number agreement."""

import ast
import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tcpsolve
from tcpsolve import (builtin, classify, cli, generate_ks_instance, multistart_sparse,
                      parse_problem)
from tcpsolve.problems import serialize_problem, serialize_tensor

INFEASIBLE = "tcp v1 order=3 dim=2\na 1 1 1 1\na 2 1 1 1\nq 0 1\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:

    def test_solve_success(self, capsys):
        code, out, err = run(capsys, "solve", "--builtin", "ex5_1", "--starts", "2")
        assert code == 0
        assert err == ""

    def test_unknown_builtin(self, capsys):
        code, out, err = run(capsys, "solve", "--builtin", "ex9_9")
        assert code == 2
        assert "available" in err

    def test_classification_fixture_not_solvable(self, capsys):
        code, out, err = run(capsys, "solve", "--builtin", "ex2_1")
        assert code == 2
        assert "classification fixture" in err
        assert "ex5_1" in err

    def test_missing_problem_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "--problem", str(tmp_path / "nope.tcp"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_problem_file(self, capsys, tmp_path):
        path = tmp_path / "bad.tcp"
        path.write_text("tcp v1 order=3 dim=2\na 1 1 1\n")
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("header", ["order=3 dim=36893488147419103232",
                                        "order=1000000000000000000000000000000 dim=2",
                                        "order=1000000 dim=2"],
                             ids=["dim", "order", "order-1e6"])
    @pytest.mark.parametrize("command, option", [("classify", "--tensor"),
                                                 ("solve", "--problem")])
    def test_header_the_tensor_rejects(self, capsys, tmp_path, header, command, option):
        path = tmp_path / "huge.tcp"
        path.write_text(f"tcp v1 {header}\n")
        code, out, err = run(capsys, command, option, str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: line 1: ")

    @pytest.mark.parametrize("command, option", [("classify", "--tensor"),
                                                 ("solve", "--problem")])
    def test_undecodable_file(self, capsys, tmp_path, command, option):
        # a 0xff byte in an entry value is not UTF-8: a read error, not a traceback
        path = tmp_path / "bytes.tcp"
        path.write_bytes(b"tcp v1 order=2 dim=1\na 1 1 1\xff\nq 1\n")
        code, out, err = run(capsys, command, option, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert "utf-8" in err

    def test_dimension_too_large_for_memory(self, tmp_path):
        # the header admits dim = 2**45, but the classifier's dense vectors of
        # that length take 256 TiB each: under a 4 GB address space their
        # allocation fails, which is an error line and exit 2, not a traceback
        path = tmp_path / "wide.tcp"
        path.write_text("tcp v1 order=2 dim=35184372088832\n")
        limit = 4 * 10 ** 9
        src = str(Path(tcpsolve.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "tcpsolve.cli", "classify", "--tensor", str(path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: cannot classify {path}: ")
        assert "Traceback" not in done.stderr

    def test_infeasible_problem_reports_failure(self, capsys, tmp_path):
        path = tmp_path / "infeasible.tcp"
        path.write_text(INFEASIBLE)
        code, out, err = run(capsys, "solve", "--problem", str(path),
                             "--starts", "2", "--max-iter", "30")
        assert code == 1
        assert "no start converged" in out

    @pytest.mark.parametrize("starts", ["0", "-1"])
    def test_solve_without_starts_is_usage_error(self, capsys, starts):
        code, out, err = run(capsys, "solve", "--builtin", "ex5_1",
                             "--starts", starts)
        assert code == 2
        assert "--starts must be >= 1" in err

    @pytest.mark.parametrize("option, value, field", [
        ("--max-iter", "-3", "max_iter"), ("--tol-feas", "nan", "eps2"),
        ("--tol-feas", "-1", "eps2"), ("--tol-d", "nan", "eps1"),
        ("--tol-d", "0", "eps1"), ("--tol-d", "inf", "eps1")])
    def test_solve_bad_solver_setting_is_usage_error(self, capsys, option, value, field):
        code, out, err = run(capsys, "solve", "--builtin", "ex5_1", "--starts", "2",
                             option, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be")

    def test_solve_zero_iterations_runs_the_support_solve(self, capsys):
        code, out, err = run(capsys, "solve", "--builtin", "ex5_1", "--starts", "2",
                             "--max-iter", "0", "--format", "json")
        assert code == 0
        best = json.loads(out)["best"]
        assert best["iterations"] == 0 and best["solved_by"] == "support"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_classify_without_samples_is_usage_error(self, capsys, samples):
        code, out, err = run(capsys, "classify", "--builtin", "ex5_5",
                             "--samples", samples)
        assert code == 2
        assert out == ""
        assert "--samples must be >= 1" in err

    def test_bench_without_starts_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "bench", "--out", str(tmp_path),
                             "--starts", "0")
        assert code == 2
        assert "--starts must be >= 1" in err

    def test_gen_bad_density(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "--order", "3", "--dim", "2",
                             "--density", "1.5", "--out", str(tmp_path / "g.tcp"))
        assert code == 2
        assert "density" in err

    def test_gen_bad_order(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "--order", "1", "--dim", "2",
                             "--out", str(tmp_path / "g.tcp"))
        assert code == 2

    def test_gen_over_entry_cap(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "--order", "10", "--dim", "9",
                             "--out", str(tmp_path / "g.tcp"))
        assert code == 2
        assert "MAX_ENTRIES" in err
        assert not (tmp_path / "g.tcp").exists()

    def test_bench_unwritable_out(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, out, err = run(capsys, "bench", "--out", str(blocker))
        assert code == 2
        assert "not writable" in err

    @pytest.mark.parametrize("argv, message", [
        (("solve", "--builtin", "ex5_1", "--starts", "0"), "--starts must be >= 1"),
        (("classify", "--builtin", "ex5_1", "--samples", "0"), "--samples must be >= 1"),
        (("bench", "--out", "{tmp}", "--starts", "0"), "--starts must be >= 1")])
    def test_usage_error_message_exact(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        assert (out, err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("solve", "--builtin", "ex5_1", "--starts", "2"),
        ("classify", "--builtin", "ex5_1"),
        ("bench", "--out", "{tmp}", "--starts", "2"),
        ("gen", "--order", "3", "--dim", "2", "--out", "{tmp}/g.tcp")])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([a.format(tmp=tmp_path) for a in argv] + ["--seed", "-1"])
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert "argument --seed: must be an integer >= 0, got '-1'" in err
        assert "Traceback" not in err and not (tmp_path / "g.tcp").exists()

    def test_seed_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["classify", "--builtin", "ex5_1", "--seed", "1.5"])
        assert excinfo.value.code == 2
        assert "argument --seed: must be an integer >= 0, got '1.5'" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_solve_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--builtin", "ex5_1", "--problem", "x.tcp"])
        assert excinfo.value.code == 2


class TestSolveOutput:

    def test_json_payload(self, capsys):
        code, out, err = run(capsys, "solve", "--builtin", "ex5_1",
                             "--starts", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["problem"] == "ex5_1"
        assert payload["order"] == 4
        assert payload["dim"] == 2
        assert payload["starts"] == 3
        assert payload["seed"] == 42
        assert payload["success_rate"] > 0.0
        best = payload["best"]
        assert best["status"] == "kkt"
        assert best["solved_by"] == "identified"
        assert best["l0"] == 1
        np.testing.assert_allclose(best["x"], [0.0, 0.5], atol=1e-5)

    def test_csv_header_and_rows(self, capsys):
        code, out, err = run(capsys, "solve", "--builtin", "ex5_1",
                             "--starts", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("start,status,solved_by,iterations,l0,objective,"
                            "equation_residual,tcp_residual,feasibility,x1,x2")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "kkt"

    def test_csv_shows_solved_by_of_every_start(self, capsys):
        # ex5_3 at seed 42: ten starts are completed by the support solve
        code, out, err = run(capsys, "solve", "--builtin", "ex5_3", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        result = multistart_sparse(builtin("ex5_3"), n_starts=20, seed=42)
        assert [row["solved_by"] for row in rows] == [r.solved_by for r in result.reports]
        assert [int(row["start"]) for row in rows if row["solved_by"] == "support"] == [
            0, 1, 3, 5, 6, 10, 11, 14, 18, 19]

    @pytest.mark.parametrize("name, starts, loop_count, support_count", [
        ("ex5_1", 20, 20, 0), ("ex5_2", 20, 20, 0), ("ex5_3", 20, 10, 10),
        ("ex5_4", 50, 31, 19), ("ex5_5", 20, 15, 5), ("ex3_1", 20, 17, 3)])
    def test_json_counts_solved_by_over_all_starts(self, capsys, name, starts,
                                                   loop_count, support_count):
        # the gate's six runs at seed 42: the loop finishes loop_count
        # starts, all on the identified support but four of ex5_1's, which
        # end on its own KKT test
        sqp_count = 4 if name == "ex5_1" else 0
        code, out, err = run(capsys, "solve", "--builtin", name, "--starts", str(starts),
                             "--format", "json")
        assert code == 0
        assert json.loads(out)["solved_by_counts"] == {
            "sqp": sqp_count, "identified": loop_count - sqp_count,
            "support": support_count, "none": 0}

    def test_json_counts_runs_that_nothing_solved(self, capsys, tmp_path):
        path = tmp_path / "infeasible.tcp"
        path.write_text(INFEASIBLE)
        code, out, err = run(capsys, "solve", "--problem", str(path), "--starts", "3",
                             "--format", "json")
        assert code == 1
        assert json.loads(out)["solved_by_counts"] == {
            "sqp": 0, "identified": 0, "support": 0, "none": 3}

    def test_table_and_json_agree_exactly(self, capsys):
        # the table's full-precision block must re-parse to the JSON numbers
        code, table, _ = run(capsys, "solve", "--builtin", "ex5_2", "--starts", "2")
        assert code == 0
        code, raw, _ = run(capsys, "solve", "--builtin", "ex5_2", "--starts", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(raw)

        values = {}
        for line in table.splitlines():
            if "=" in line and (line.startswith("  ") or line.startswith("success_rate")):
                key, _, rhs = line.partition("=")
                values[key.strip()] = ast.literal_eval(rhs.strip())
        best = payload["best"]
        assert list(values["x*"]) == best["x"]
        assert values["objective"] == best["objective"]
        assert values["equation_residual"] == best["equation_residual"]
        assert values["tcp_residual"] == best["tcp_residual"]
        assert values["feasibility"] == best["feasibility"]
        assert values["success_rate"] == payload["success_rate"]

    def test_table_shows_every_start(self, capsys):
        code, out, err = run(capsys, "solve", "--builtin", "ex5_1", "--starts", "4")
        assert code == 0
        assert "best (l0 = 1, status kkt):" in out
        table_rows = [line for line in out.splitlines()
                      if line and line.split()[0].isdigit()]
        assert len(table_rows) == 4

    def test_problem_file_solves(self, capsys, tmp_path):
        path = tmp_path / "copy.tcp"
        path.write_text(serialize_problem(builtin("ex5_1")))
        code, out, err = run(capsys, "solve", "--problem", str(path), "--starts", "2")
        assert code == 0
        assert "copy.tcp" in out


class TestClassifyOutput:

    def test_table_fixture_one(self, capsys):
        code, out, err = run(capsys, "classify", "--builtin", "ex2_1")
        assert code == 0
        rows = {line.split()[0]: line for line in out.splitlines()
                if line and line.split() and "  " in line}
        assert "supported" in rows["ks_tensor"]
        assert "certified_false" in rows["z_tensor"]

    def test_table_fixture_two(self, capsys):
        code, out, err = run(capsys, "classify", "--builtin", "ex2_2")
        assert code == 0
        rows = {line.split()[0]: line for line in out.splitlines() if line.split()}
        assert "certified_true" in rows["z_tensor"]
        assert "refuted" in rows["p_tensor"]
        assert "refuted" in rows["ks_tensor"]

    def test_json_fixture_three(self, capsys):
        code, out, err = run(capsys, "classify", "--builtin", "ex2_3",
                             "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tensor"] == "ex2_3"
        results = payload["results"]
        assert results["ks_tensor"]["verdict"] == "supported"
        assert results["condition2"]["verdict"] == "certified_true"
        assert results["z_function"]["verdict"] == "supported"

    def test_json_bracket_is_an_object(self, capsys):
        # ex5_3's M-check reaches the spectral bracket
        code, out, err = run(capsys, "classify", "--builtin", "ex5_3",
                             "--format", "json")
        assert code == 0
        cert = json.loads(out)["results"]["nonsingular_m"]
        assert list(cert) == ["verdict", "method", "witness", "detail", "evidence"]
        assert cert["method"] == "spectral_bracket"
        expected = classify.is_nonsingular_m_tensor(builtin("ex5_3").tensor)
        bracket = expected.evidence["bracket"]
        assert cert["evidence"] == {
            "s": expected.evidence["s"],
            "bracket": {"value": bracket.value, "lo": bracket.lo, "hi": bracket.hi,
                        "iterations": bracket.iterations,
                        "converged": bracket.converged, "shifted": bracket.shifted}}
        assert cert["evidence"]["bracket"]["hi"] < cert["evidence"]["s"]

    def test_tensor_file_matches_builtin(self, capsys, tmp_path):
        path = tmp_path / "t.tcp"
        path.write_text(serialize_tensor(builtin("ex2_2")))
        code, from_file, _ = run(capsys, "classify", "--tensor", str(path),
                                 "--format", "json")
        assert code == 0
        code, from_builtin, _ = run(capsys, "classify", "--builtin", "ex2_2",
                                    "--format", "json")
        assert code == 0
        assert json.loads(from_file)["results"] == json.loads(from_builtin)["results"]

    def test_benchmark_problem_classifies_its_tensor(self, capsys):
        code, out, err = run(capsys, "classify", "--builtin", "ex5_1")
        assert code == 0
        assert "tensor ex5_1" in out


class TestGen:

    def test_writes_annotated_instance(self, capsys, tmp_path):
        path = tmp_path / "gen.tcp"
        code, out, err = run(capsys, "gen", "--order", "3", "--dim", "3",
                             "--seed", "5", "--out", str(path))
        assert code == 0
        assert str(path) in out
        text = path.read_text()
        assert text.startswith("# generated instance: order=3 dim=3")
        # Z-route instances certify the KS property outright
        assert "# ks_tensor: certified_true" in text
        assert "# insertion sums: certified_true" in text

    def test_instance_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "gen.tcp"
        code, _, _ = run(capsys, "gen", "--order", "3", "--dim", "3",
                         "--density", "0.3", "--seed", "5", "--out", str(path))
        assert code == 0
        parsed = parse_problem(path.read_text())
        assert parsed == generate_ks_instance(3, 3, density=0.3, seed=5)


class TestBench:

    def test_writes_csv_and_summary(self, capsys, tmp_path):
        out_dir = tmp_path / "bench"
        code, out, err = run(capsys, "bench", "--out", str(out_dir), "--starts", "1")
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["ex5_1.csv", "ex5_2.csv", "ex5_3.csv", "ex5_4.csv",
                         "ex5_5.csv", "summary.md"]
        summary = (out_dir / "summary.md").read_text()
        assert summary.count("| yes |") == 5
        assert "NO" not in summary
        with open(out_dir / "ex5_1.csv", newline="") as f:
            assert next(csv.DictReader(f))["solved_by"] == "identified"

    def test_runs_are_reproducible(self, capsys, tmp_path):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        assert run(capsys, "bench", "--out", str(first), "--starts", "1")[0] == 0
        assert run(capsys, "bench", "--out", str(second), "--starts", "1")[0] == 0
        for name in ("ex5_1.csv", "ex5_2.csv", "ex5_3.csv", "ex5_4.csv",
                     "ex5_5.csv", "summary.md"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
