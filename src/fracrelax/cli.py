"""Command-line front door.

Subcommands:

* ``ml``     evaluate E[alpha, beta] at a list of points -> CSV z,value,regime,terms
* ``solve``  produce a solution curve (closed form, oracle, or Neumann
             partial sum) -> CSV t,N
* ``verify`` run the closed-form/oracle verification ladder -> report CSV
             plus a human-readable summary; exit 1 on any failed check
* ``sweep``  oracle comparison over a (nu, mu, c) grid -> CSV matrix, plus
             one stderr line per ERROR row

``--tol`` (``verify`` and ``sweep``) overrides the oracle/closed-form
agreement tolerance; ``ml`` has none, as every value it prints is certified
to ~1e-13 relative.

Output files are byte-reproducible: fixed 17-significant-digit formatting,
no timestamps in data (timings go to the summary channel only).  Singular
nodes are emitted as the literal token NA.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error or
a typed numerical refusal (an ArithmeticError such as
SeriesConvergenceError), reported on one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .grids import MAX_NODES, UniformGrid
from .kinetics import (
    KineticProblem,
    closed_form_curve,
    neumann_curve,
)
from .mittag_leffler import (
    MLOverflowError,
    MLParams,
    SeriesConvergenceError,
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


class UsageError(ValueError):
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

    sweep = subs.add_parser("sweep", help="sweep (nu, mu, c) against the oracle")
    _add_problem_flags(sweep, lists=True)
    for sub in (verify, sweep):  # solve compares nothing, so it takes no --tol
        sub.add_argument("--tol", type=float, default=None, help="tolerance override")

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one costs milliseconds (argparse
    makes a help formatter, with a terminal-size lookup, per argument), and
    parsing leaves it as it was."""
    return build_parser()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _problem_from_args(args) -> KineticProblem:
    return KineticProblem(nu=args.nu, c=args.c, N_a=args.Na, a=args.a, mu=args.mu)


def _steps_from_args(args, default_n: int) -> int:
    n = default_n if args.n is None else args.n
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if n > MAX_NODES:
        raise UsageError(f"--n must be <= {MAX_NODES}, got {n}")
    return n


def _grid_from_args(args, problem: KineticProblem, default_n: int) -> UniformGrid:
    span = problem.default_span() if args.T is None else args.T
    return UniformGrid.from_span(problem.a, span, _steps_from_args(args, default_n))


def _cmd_ml(args) -> int:
    params = MLParams(alpha=args.alpha, beta=args.beta)
    lines = ["z,value,regime,terms"]
    for z in args.z:
        try:
            res = ml_eval_detailed(params, z)
            lines.append(
                f"{format_real(z)},{format_real(res.value)},{res.regime},{res.terms}"
            )
        except (MLOverflowError, SeriesConvergenceError) as e:
            lines.append(f"{format_real(z)},NA,error,0")
            print(f"z={format_real(z)}: {type(e).__name__}: {e}", file=sys.stderr)
    _emit("\n".join(lines) + "\n", args.out)
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
    times = grid.times()
    if not (times[1:] > times[:-1]).all():
        # the values would be right at t - a = j h, but no row could say where
        raise UsageError(
            f"the t labels a + j h do not increase: h = {grid.h!r} is below the "
            f"spacing of doubles at a = {problem.a!r}; use a smaller --a or a larger --T / --n"
        )
    method, M = _parse_method(args.method)
    if method == "closed":
        curve = closed_form_curve(problem, grid)
    elif method == "neumann":
        curve = neumann_curve(problem, grid, M)
    else:
        curve = solve_volterra(problem, OracleConfig(grid=grid))
        closed = closed_form_curve(problem, grid)
        gap = abs(curve.defined_values() - closed.defined_values()).max()
        print(f"max |oracle - closed| = {gap:.6e}", file=sys.stderr)
    lines = ["t,N"]
    # a flagged singular start is NaN, which format_real writes as NA
    lines.extend(
        f"{format_real(t)},{format_real(v)}" for t, v in zip(times, curve.values)
    )
    _emit("\n".join(lines) + "\n", args.out)
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
    )
    _emit(report.to_csv_text(), args.out)
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
        n=_steps_from_args(args, 2000),
        tol=args.tol,
    )
    _emit(sweep_csv_text(rows), args.out)
    for row in rows:
        if row.failure is not None:
            mu_txt = "" if row.mu is None else format_real(row.mu)
            print(
                f"nu={format_real(row.nu)},mu={mu_txt},c={format_real(row.c)}: "
                f"{row.failure}",
                file=sys.stderr,
            )
    n_passed = sum(row.passed for row in rows)
    print(f"sweep: {n_passed}/{len(rows)} rows passed", file=sys.stderr)
    return 0 if n_passed > 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "ml": _cmd_ml,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # UsageError and the package's validation errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # the typed numerical refusals
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
