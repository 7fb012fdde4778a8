"""Command-line front door.

Subcommands:

* ``ml``     evaluate E[alpha, beta] at a list of points -> CSV z,value,regime,terms
* ``solve``  produce a solution curve (closed form, oracle, or Neumann
             partial sum) -> CSV t,N
* ``verify`` run the closed-form/oracle verification ladder -> report CSV
             plus a human-readable summary; exit 1 on any failed check
* ``sweep``  oracle comparison over a (nu, mu, c) grid -> CSV matrix

Output files are byte-reproducible: fixed 17-significant-digit formatting,
no timestamps in data (timings go to the summary channel only).  Singular
nodes are emitted as the literal token NA.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import sys

from .grids import UniformGrid
from .kinetics import (
    KineticProblem,
    closed_form_curve,
    neumann_curve,
)
from .mittag_leffler import (
    MLEvalPolicy,
    MLOverflowError,
    MLParams,
    SeriesConvergenceError,
    UnsupportedRegimeError,
    default_policy,
    ml_eval_detailed,
)
from .verification import (
    format_real,
    run_sweep,
    run_verification,
    sweep_csv_text,
)
from .volterra import OracleConfig, solve_volterra

__all__ = ["build_parser", "main"]


class UsageError(Exception):
    """Semantic validation failure; maps to exit code 2."""


def _float_list(text: str) -> list[float]:
    try:
        items = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc
    if not items:
        raise argparse.ArgumentTypeError("empty numeric list")
    return items


def _add_problem_flags(sub: argparse.ArgumentParser, lists: bool = False) -> None:
    typ = _float_list if lists else float
    sub.add_argument("--nu", type=typ, required=True, help="fractional order nu > 0")
    sub.add_argument(
        "--mu",
        type=typ,
        default=None,
        help="source exponent mu > 0 (omit for the plain relaxation form)",
    )
    sub.add_argument("--c", type=typ, required=True, help="rate constant c > 0")
    sub.add_argument("--Na", type=float, default=1.0, help="initial density (default 1)")
    sub.add_argument("--a", type=float, default=0.0, help="window start (default 0)")
    sub.add_argument(
        "--T",
        type=float,
        default=None,
        help="window length (default 5/c, several decay scales)",
    )
    sub.add_argument("--n", type=int, default=None, help="grid steps")
    sub.add_argument("--out", type=str, default=None, help="CSV output path")
    sub.add_argument("--tol", type=float, default=None, help="tolerance override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracrelax",
        description=(
            "Mittag-Leffler evaluation and fractional decay kinetics: closed "
            "forms, a Volterra oracle, and verification sweeps."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ml = subs.add_parser("ml", help="evaluate E[alpha, beta] at given points")
    ml.add_argument("--alpha", type=float, required=True)
    ml.add_argument("--beta", type=float, default=1.0)
    ml.add_argument("--z", type=float, nargs="+", required=True, help="evaluation points")
    ml.add_argument("--out", type=str, default=None)
    ml.add_argument("--tol", type=float, default=None, help="series stopping tolerance")

    solve = subs.add_parser("solve", help="produce a solution curve as CSV t,N")
    _add_problem_flags(solve)
    solve.add_argument(
        "--method",
        type=str,
        default="closed",
        help="closed | oracle | neumann:M (default closed)",
    )

    verify = subs.add_parser("verify", help="run the verification ladder")
    _add_problem_flags(verify)
    verify.add_argument("--levels", type=int, default=3, help="grid halvings (>= 2)")
    verify.add_argument(
        "--closed-form-scale",
        type=float,
        default=1.0,
        help=argparse.SUPPRESS,  # failure-injection hook for tests
    )

    sweep = subs.add_parser("sweep", help="sweep (nu, mu, c) against the oracle")
    _add_problem_flags(sweep, lists=True)

    return parser


def _emit(text: str, out_path: str | None, data_to_stdout: bool) -> None:
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    elif data_to_stdout:
        sys.stdout.write(text)


def _problem_from_args(args, nu=None, mu=None, c=None) -> KineticProblem:
    return KineticProblem(
        nu=args.nu if nu is None else nu,
        c=args.c if c is None else c,
        N_a=args.Na,
        a=args.a,
        mu=(args.mu if mu is None else mu),
    )


def _grid_from_args(args, problem: KineticProblem, default_n: int) -> UniformGrid:
    span = problem.default_span() if args.T is None else args.T
    n = default_n if args.n is None else args.n
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    return UniformGrid.from_span(problem.a, span, n)


def _cmd_ml(args) -> int:
    params = MLParams(alpha=args.alpha, beta=args.beta)
    policy = default_policy(params)
    if args.tol is not None:
        policy = MLEvalPolicy(
            series_tol=args.tol,
            max_terms=policy.max_terms,
            asymptotic_switch=policy.asymptotic_switch,
            asymptotic_terms=policy.asymptotic_terms,
        )
    lines = ["z,value,regime,terms"]
    for z in args.z:
        try:
            res = ml_eval_detailed(params, z, policy)
            lines.append(
                f"{format_real(z)},{format_real(res.value)},{res.regime},{res.terms}"
            )
        except (UnsupportedRegimeError, MLOverflowError, SeriesConvergenceError) as e:
            lines.append(f"{format_real(z)},NA,error,0")
            print(f"z={format_real(z)}: {type(e).__name__}: {e}", file=sys.stderr)
    _emit("\n".join(lines) + "\n", args.out, data_to_stdout=True)
    return 0


def _parse_method(text: str):
    if text == "closed" or text == "oracle":
        return text, None
    if text.startswith("neumann:"):
        try:
            M = int(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad Neumann order in --method {text!r}")
        if M < 0:
            raise UsageError("Neumann order must be >= 0")
        return "neumann", M
    raise UsageError(f"unknown --method {text!r} (closed | oracle | neumann:M)")


def _cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    grid = _grid_from_args(args, problem, default_n=1000)
    method, M = _parse_method(args.method)
    if method == "closed":
        curve = closed_form_curve(problem, grid)
    elif method == "neumann":
        curve = neumann_curve(problem, grid, M)
    else:
        curve = solve_volterra(problem, OracleConfig(grid=grid))
        closed = closed_form_curve(problem, grid)
        start = 1 if curve.singular_start else 0
        gap = abs(curve.values[start:] - closed.values[start:]).max()
        print(f"max |oracle - closed| = {gap:.6e}", file=sys.stderr)
    times = grid.times()
    lines = ["t,N"]
    for j in range(grid.n + 1):
        value = curve.values[j]
        n_txt = "NA" if (j == 0 and curve.singular_start) else format_real(value)
        lines.append(f"{format_real(times[j])},{n_txt}")
    _emit("\n".join(lines) + "\n", args.out, data_to_stdout=True)
    return 0


def _cmd_verify(args) -> int:
    problem = _problem_from_args(args)
    if args.levels < 2:
        raise UsageError(f"--levels must be >= 2, got {args.levels}")
    base_n = 250 if args.n is None else args.n
    span = problem.default_span()
    if args.T is not None and abs(args.T - span) > 1e-12 * span:
        # run_verification always uses the 5/c window.
        raise UsageError(
            "verify always uses the window T = 5/c; omit --T or pass that value"
        )
    report = run_verification(
        problem,
        base_n=base_n,
        levels=args.levels,
        oracle_tol=args.tol,
        closed_form_scale=args.closed_form_scale,
    )
    _emit(report.to_csv_text(), args.out, data_to_stdout=args.out is None)
    summary_stream = sys.stdout if args.out is not None else sys.stderr
    summary_stream.write(report.summary_text())
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    mus: list[float | None] = [None] if args.mu is None else list(args.mu)
    rows = run_sweep(
        nus=list(args.nu),
        mus=mus,
        cs=list(args.c),
        N_a=args.Na,
        a=args.a,
        span=args.T,
        n=2000 if args.n is None else args.n,
        tol=args.tol,
    )
    _emit(sweep_csv_text(rows), args.out, data_to_stdout=True)
    n_passed = sum(row.passed for row in rows)
    print(f"sweep: {n_passed}/{len(rows)} rows passed", file=sys.stderr)
    return 0 if n_passed > 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ml": _cmd_ml,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
