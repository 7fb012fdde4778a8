import dataclasses
import math
import subprocess
import sys

import pytest

from fracrelax import verification
from fracrelax.cli import main
from fracrelax.verification import run_sweep


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

    def test_bad_method_exit_2(self):
        assert main(["solve", "--nu", "0.5", "--c", "1", "--method", "magic"]) == 2
        assert main(["solve", "--nu", "0.5", "--c", "1", "--method", "neumann:x"]) == 2

    def test_bad_problem_exit_2(self):
        assert main(["solve", "--nu", "-0.5", "--c", "1"]) == 2

    def test_no_tolerance_option(self, capsys):
        # solve compares nothing, so a tolerance would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--nu", "0.5", "--c", "1", "--tol", "1e-9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args, error", [
        # E[1](-x) is out of the evaluator's reach from x ~ 336 on; n = 2
        # reaches x = 400 at the first node
        (["--nu", "1", "--c", "1", "--T", "800", "--n", "2"], "SeriesConvergenceError"),
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

    def test_mismatching_window_exit_2(self, capsys):
        rc = main(["verify", "--nu", "0.5", "--c", "1", "--n", "80", "--levels", "2",
                   "--T", "4"])
        assert rc == 2
        assert "T = 5/c" in capsys.readouterr().err


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


class TestDeterminism:
    def test_solve_byte_identical(self, tmp_path):
        args = ["solve", "--nu", "0.5", "--c", "1", "--n", "100"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(f1)]) == 0
        assert main([*args, "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
