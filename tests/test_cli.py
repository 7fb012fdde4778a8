import dataclasses
import math
import subprocess
import sys
import warnings

import pytest

from fracrelax import verification
from fracrelax.cli import build_parser, main
from fracrelax.grids import MAX_NODES, UniformGrid
from fracrelax.kinetics import KineticProblem, closed_form_curve
from fracrelax.verification import format_real, run_sweep
from fracrelax.volterra import OracleConfig, solve_volterra


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "fracrelax", *args],
        capture_output=True,
        text=True,
    )


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestMlCommand:
    def test_rows_and_values(self, capsys):
        rc = main(["ml", "--alpha", "1", "--beta", "1", "--z", "0", "-1", "-20"])
        assert rc == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["z", "value", "regime", "terms"]
        assert len(rows) == 3
        assert float(rows[0][1]) == 1.0
        assert rows[0][2] == "series" and rows[0][3] == "1"
        assert float(rows[1][1]) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert float(rows[2][1]) == pytest.approx(math.exp(-20.0), rel=1e-12)

    def test_value_whose_powers_overflow(self, capsys):
        # z^k overflows in the double pass; E[0.5](20) = 1.04e174 does not
        assert main(["ml", "--alpha", "0.5", "--z", "20"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0][1:3] == ["1.0442939379528289e+174", "series"]

    def test_cosine_value(self, capsys):
        rc = main(["ml", "--alpha", "2", "--beta", "1", "--z", "-4"])
        assert rc == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0][1]) == pytest.approx(math.cos(2.0), rel=1e-12)

    def test_error_marker_row_continues(self, capsys):
        rc = main(["ml", "--alpha", "1", "--beta", "1", "--z", "800", "-1"])
        assert rc == 0
        captured = capsys.readouterr()
        _, rows = parse_csv(captured.out)
        assert rows[0][1] == "NA" and rows[0][2] == "error" and rows[0][3] == "0"
        assert float(rows[1][1]) == pytest.approx(math.exp(-1.0), rel=1e-12)
        named = captured.err.splitlines()
        assert len(named) == 1
        assert named[0].startswith(f"z={rows[0][0]}: MLOverflowError: ")

    def test_invalid_params_exit_2(self, capsys):
        assert main(["ml", "--alpha", "-1", "--z", "0"]) == 2

    def test_no_tolerance_option(self, capsys):
        # a loose series stopping tolerance once returned E[1/2](-1/2)
        # 8.8e-4 off, labelled as certified
        with pytest.raises(SystemExit) as exc:
            main(["ml", "--alpha", "0.5", "--z", "-0.5", "--tol", "1e-3"])
        assert exc.value.code == 2

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "ml.csv"
        assert main(["ml", "--alpha", "1", "--z", "0", "--out", str(out)]) == 0
        assert out.read_text().startswith("z,value,regime,terms\n")


class TestSolveCommand:
    def test_closed_matches_exponential(self, capsys):
        rc = main(
            ["solve", "--nu", "1", "--c", "2", "--Na", "1", "--T", "2.5", "--n", "50"]
        )
        assert rc == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["t", "N"]
        assert len(rows) == 51
        for t_txt, n_txt in rows:
            t = float(t_txt)
            assert float(n_txt) == pytest.approx(math.exp(-2.0 * t), rel=1e-10)

    def test_singular_start_emits_na(self, capsys):
        rc = main(
            ["solve", "--nu", "0.5", "--mu", "0.5", "--c", "1", "--n", "20"]
        )
        assert rc == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0][1] == "NA"
        assert all(r[1] != "NA" for r in rows[1:])

    def test_neumann_zero_is_flat(self, capsys):
        rc = main(
            ["solve", "--nu", "0.5", "--c", "1", "--Na", "2.5", "--n", "10",
             "--method", "neumann:0"]
        )
        assert rc == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert all(float(r[1]) == 2.5 for r in rows)

    def test_oracle_reports_gap_on_stderr(self):
        res = run_cli(
            ["solve", "--nu", "0.5", "--c", "1", "--n", "200", "--method", "oracle"]
        )
        assert res.returncode == 0
        assert "max |oracle - closed|" in res.stderr

    def test_oracle_prints_its_curve_and_gap(self, capsys):
        args = ["--nu", "0.5", "--mu", "0.5", "--c", "1.3", "--Na", "0.7", "--n", "200"]
        assert main(["solve", *args, "--method", "oracle"]) == 0
        captured = capsys.readouterr()
        p = KineticProblem(nu=0.5, c=1.3, N_a=0.7, mu=0.5)
        grid = UniformGrid.from_span(0.0, p.default_span(), 200)
        oracle = solve_volterra(p, OracleConfig(grid=grid))
        closed = closed_form_curve(p, grid)
        gap = abs(oracle.defined_values() - closed.defined_values()).max()
        _, rows = parse_csv(captured.out)
        assert [r[1] for r in rows] == [format_real(v) for v in oracle.values]
        assert captured.err == f"max |oracle - closed| = {gap:.6e}\n"

    def test_bad_method_exit_2(self):
        assert main(["solve", "--nu", "0.5", "--c", "1", "--method", "magic"]) == 2
        assert main(["solve", "--nu", "0.5", "--c", "1", "--method", "neumann:x"]) == 2

    def test_negative_neumann_order_exit_2(self, capsys):
        assert main(["solve", "--nu", "0.5", "--c", "1", "--method", "neumann:-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Neumann order must be >= 0\n"

    def test_bad_problem_exit_2(self):
        assert main(["solve", "--nu", "-0.5", "--c", "1"]) == 2

    def test_no_tolerance_option(self, capsys):
        # solve compares nothing, so a tolerance would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--nu", "0.5", "--c", "1", "--tol", "1e-9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", [MAX_NODES + 1, 2_000_000])
    def test_step_count_above_cap_exit_2(self, n, capsys):
        assert main(["solve", "--nu", "0.5", "--c", "1", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n must be <= {MAX_NODES}, got {n}\n"

    @pytest.mark.parametrize("args", [
        ["--nu", "0.5", "--c", "1e300", "--T", "1e300"],
        ["--nu", "1", "--c", "1e200", "--T", "1e200"],
    ])
    def test_peel_overflow_exit_2(self, args, capsys):
        # the remainder forcing c^(2 nu) T^(2 nu) exceeds double range; it is
        # refused before numpy can warn (the suite turns warnings into errors)
        assert main(["solve", *args, "--n", "2", "--method", "oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: KineticProblem(")
        assert "overflows double range" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ["--nu", "1.5", "--c", "1e308"],  # c^nu itself
        ["--nu", "0.3", "--c", "1e308", "--method", "oracle"],  # (-c^nu)^4
    ])
    def test_rate_overflow_exit_2(self, args, capsys):
        assert main(["solve", *args, "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "overflows double range" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("method", ["closed", "neumann:3"])
    @pytest.mark.parametrize("args", [
        # (t-a)^1.5 at t = 1e300 exceeds double range, though c^nu (t-a)^nu
        # would not
        ["--nu", "1.5", "--c", "1e-200", "--T", "1e300"],
        ["--nu", "1.5", "--c", "1e-200", "--T", "1e300", "--mu", "2.5"],
        # c^nu (t-a)^nu itself
        ["--nu", "1", "--c", "1e10", "--T", "1e300"],
    ])
    def test_window_overflow_exit_2(self, method, args, capsys):
        # refused as a DomainError, with no numpy warning before
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", *args, "--n", "2", "--method", method]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: KineticProblem(")
        assert "overflows double range" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_grid_end_overflow_exit_2(self, method, capsys):
        # the last node a + n h = 2e308 passes double range; it is refused
        # where the grid is made, before a node is formed
        args = ["--nu", "0.5", "--c", "1e-300", "--a", "1e308", "--T", "1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", *args, "--n", "2", "--method", method]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid end 1e+308 + 2 * ")
        assert "overflows double range" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_collapsed_t_labels_exit_2(self, capsys):
        # h = 1.25 is below the spacing of doubles at 1e17 (16): every row
        # would be labelled t = 1e17, with five different N
        assert main(["solve", "--nu", "0.5", "--c", "1", "--a", "1e17", "--n", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the t labels a + j h do not increase")
        assert len(captured.err.splitlines()) == 1

    def test_far_window_start_still_prints(self, capsys):
        args = ["solve", "--nu", "0.5", "--c", "1", "--n", "4"]
        assert main([*args, "--a", "1e9"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert main(args) == 0
        _, origin = parse_csv(capsys.readouterr().out)
        ts = [float(t) for t, _ in rows]
        assert ts == [1e9 + 1.25 * j for j in range(5)]
        assert [n for _, n in rows] == [n for _, n in origin]

    def test_tiny_density_still_reaches_the_step_check(self, capsys):
        args = ["--nu", "1", "--c", "1e200", "--T", "1e200", "--Na", "1e-300"]
        assert main(["solve", *args, "--n", "2", "--method", "oracle"]) == 2
        assert capsys.readouterr().err.startswith("error: StepSingularError: ")

    @pytest.mark.parametrize("args, error", [
        # E[2](-x) = cos(sqrt(x)) cancels past the mpmath cap at x = 2.5e9,
        # the first node of n = 2, refused before any mpmath pass
        (["--nu", "2", "--c", "1", "--T", "100000", "--n", "2"], "SeriesConvergenceError"),
        (["--nu", "1.5", "--c", "1", "--T", "1000", "--n", "200", "--method", "oracle"],
         "UnstableResolventError"),
        (["--nu", "1.95", "--c", "1000", "--T", "5", "--n", "300", "--method", "oracle"],
         "UnstableResolventError"),
    ])
    def test_numerical_refusal_exit_2(self, args, error):
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracrelax",
             "solve", *args],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: {error}: ")
        assert len(res.stderr.splitlines()) == 1


class TestVerifyCommand:
    def test_pass_and_report(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(
            ["verify", "--nu", "0.5", "--c", "1", "--n", "80", "--levels", "2",
             "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("criterion,grid_n,metric,value,threshold,pass\n")
        assert ",false" not in text

    def test_corrupted_closed_form_fails(self, tmp_path, monkeypatch):
        # halved, the curve keeps the relaxation invariant but misses the oracle
        closed_form_curve = verification.closed_form_curve

        def halved(problem, grid):
            curve = closed_form_curve(problem, grid)
            return dataclasses.replace(curve, values=curve.values * 0.5)

        monkeypatch.setattr(verification, "closed_form_curve", halved)
        out = tmp_path / "report.csv"
        rc = main(
            ["verify", "--nu", "0.5", "--c", "1", "--n", "80", "--levels", "2",
             "--out", str(out)]
        )
        assert rc == 1
        assert ",false" in out.read_text()  # report still written

    def test_levels_validation(self):
        assert main(["verify", "--nu", "0.5", "--c", "1", "--levels", "1"]) == 2

    def test_window_equal_to_default_up_to_rounding(self, capsys):
        # 5/3 written to 16 digits differs from the double 5/3 in its last bit
        args = ["verify", "--nu", "0.5", "--c", "3", "--n", "80", "--levels", "2"]
        assert main(args) == 0
        report = capsys.readouterr().out
        assert float("1.666666666666667") != 5.0 / 3.0
        assert main([*args, "--T", "1.666666666666667"]) == 0
        assert capsys.readouterr().out == report

    @pytest.mark.parametrize("args", [
        ["--nu", "0.5", "--mu", "0.5", "--c", "1", "--a", "1e9"],
        ["--nu", "0.5", "--mu", "0.5", "--c", "1", "--a", "1e12"],
        ["--nu", "1", "--c", "2", "--a", "1e12"],
    ])
    def test_report_does_not_depend_on_the_window_start(self, args, capsys):
        # the ladder samples every curve, mask and reference at t - a = j h
        assert main(["verify", *args]) == 0
        report = capsys.readouterr().out
        assert main(["verify", *args[:-2]]) == 0
        assert capsys.readouterr().out == report

    def test_mismatching_window_exit_2(self, capsys):
        rc = main(["verify", "--nu", "0.5", "--c", "1", "--n", "80", "--levels", "2",
                   "--T", "4"])
        assert rc == 2
        assert "T = 5/c" in capsys.readouterr().err

    def test_ladder_above_cap_exit_2(self, capsys):
        argv = ["verify", "--nu", "0.5", "--c", "1", "--n", "262144", "--levels", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: grid has 1048576 steps, above the cap of {MAX_NODES}\n"
        )


class TestOneParserPerProcess:
    """``main`` reuses one parser; a call after another still sees every
    default, as a call made alone does."""

    @pytest.mark.parametrize("first, args", [
        (["--tol", "1"], ["verify", "--nu", "0.5", "--c", "1", "--n", "80", "--levels", "2"]),
        (["--method", "neumann:3", "--Na", "2", "--T", "3"],
         ["solve", "--nu", "0.5", "--c", "1", "--n", "40"]),
    ])
    def test_second_call_sees_the_defaults(self, tmp_path, first, args):
        alone = tmp_path / "alone.csv"
        res = run_cli([*args, "--out", str(alone)])
        assert main([*args, *first, "--out", str(tmp_path / "first.csv")]) == 0
        second = tmp_path / "second.csv"
        assert main([*args, "--out", str(second)]) == res.returncode
        assert second.read_bytes() == alone.read_bytes()
        assert (tmp_path / "first.csv").read_bytes() != alone.read_bytes()

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestSweepCommand:
    def test_ordering_and_count(self, capsys):
        rc = main(
            ["sweep", "--nu", "0.5,1.0", "--c", "0.5,1", "--n", "200"]
        )
        assert rc == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["nu", "mu", "c", "n", "max_error", "threshold", "pass"]
        assert len(rows) == 4
        # nu outer, c inner
        assert [float(r[0]) for r in rows] == [0.5, 0.5, 1.0, 1.0]
        assert [float(r[2]) for r in rows] == [0.5, 1.0, 0.5, 1.0]
        assert all(r[1] == "" for r in rows)  # mu absent
        assert all(r[6] == "true" for r in rows)

    def test_mu_column_present(self, capsys):
        rc = main(
            ["sweep", "--nu", "0.5", "--mu", "1.0,1.5", "--c", "1", "--n", "150"]
        )
        assert rc == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 2
        assert float(rows[0][1]) == 1.0 and float(rows[1][1]) == 1.5

    def test_error_row_named_on_stderr(self, capsys):
        # the oracle's resolvent is unstable at nu = 1.95 on this grid; at
        # nu = 0.5 the grid is merely too coarse for the tolerance
        rc = main(["sweep", "--nu", "0.5,1.95", "--c", "1000", "--T", "5", "--n", "300"])
        assert rc == 1
        captured = capsys.readouterr()
        _, rows = parse_csv(captured.out)
        assert [r[4] == "ERROR" for r in rows] == [False, True]
        assert [r[6] for r in rows] == ["false", "false"]
        named = captured.err.splitlines()
        assert len(named) == 2
        assert named[0].startswith(
            f"nu={rows[1][0]},mu=,c={rows[1][2]}: UnstableResolventError: ")
        assert named[1] == "sweep: 0/2 rows passed"

    def test_programming_error_is_not_contained(self, monkeypatch):
        def broken(problem, grid):
            raise TypeError("not a package error")

        monkeypatch.setattr(verification, "closed_form_curve", broken)
        with pytest.raises(TypeError):
            run_sweep(nus=[0.5], mus=[None], cs=[1.0], n=50)

    def test_empty_range_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--nu", ",", "--c", "1"])
        assert exc.value.code == 2

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--nu", "0.5,abc", "--c", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_step_count_below_one_exit_2(self, n, capsys):
        assert main(["sweep", "--nu", "0.5", "--c", "1", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n must be >= 1, got {n}\n"

    def test_step_count_below_mask_exit_2(self, capsys):
        # the comparison keeps t - a >= MASK_STEPS h, so n = 9 has no node to compare
        assert main(["sweep", "--nu", "0.5", "--c", "1", "--n", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sweep grid too coarse: n=9 < MASK_STEPS=10\n"
        assert main(["sweep", "--nu", "0.5", "--c", "1", "--n", "10"]) == 1
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0][3] == "10" and rows[0][4] != "ERROR"

    @pytest.mark.parametrize("n", [MAX_NODES + 1, 2_000_000])
    def test_step_count_above_cap_exit_2(self, n, capsys):
        # one error line, not one ERROR row per cell
        assert main(["sweep", "--nu", "0.5,0.7", "--c", "1,2", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n must be <= {MAX_NODES}, got {n}\n"


class TestDeterminism:
    def test_solve_byte_identical(self, tmp_path):
        args = ["solve", "--nu", "0.5", "--c", "1", "--n", "100"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(f1)]) == 0
        assert main([*args, "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
