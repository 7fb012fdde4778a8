"""Verification sweeps: closed form vs oracle across refined grids.

``run_verification`` drives one problem across a ladder of halved grids.
The closed form is evaluated once, on the finest grid: every coarser grid's
nodes are bitwise a subset of its nodes, so each coarser curve is a
restriction of that one (checked again against the relaxation invariant).
The ladder checks, with explicit thresholds:

* oracle/closed-form agreement on t >= a + 10h at every level, with the
  finest level held to the full tolerance;
* the observed convergence order of that agreement (>= 1);
* the integral-equation residual of the closed-form curve, which must
  shrink with observed order >= 1;
* for 0 < nu < 1 with no source exponent, the differential-equation
  residual on a fixed interior window, which must decrease monotonically;
* for nu = 1, agreement with the classical exponential to 1e-10 relative.

``run_sweep`` runs the oracle comparison over a parameter grid, one row per
(nu, mu, c) combination.  Report rows are plain data so the CLI can render
them as CSV deterministically (timings stay in the summary channel).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .grids import UniformGrid
from .kinetics import (
    KineticProblem,
    closed_form_curve,
    differential_equation_residual,
    integral_equation_residual,
    restrict_curve,
)
from .riemann_liouville import build_weights
from .volterra import OracleConfig, solve_volterra

__all__ = [
    "CheckRow",
    "VerificationReport",
    "SweepRow",
    "default_oracle_tolerance",
    "run_verification",
    "run_sweep",
    "sweep_csv_text",
]

REPORT_HEADER = "criterion,grid_n,metric,value,threshold,pass"
SWEEP_HEADER = "nu,mu,c,n,max_error,threshold,pass"
# Oracle agreement and the residuals are compared on t >= a + MASK_STEPS h
# (h of the coarsest grid for the residual windows).
MASK_STEPS = 10


def format_real(x: float) -> str:
    """Fixed 17-significant-digit scientific notation (reproducible CSV)."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "NA"
    return f"{x:.16e}"


@dataclass(frozen=True)
class CheckRow:
    criterion: str
    grid_n: int
    metric: str
    value: float
    threshold: float
    passed: bool

    def to_csv(self) -> str:
        return (
            f"{self.criterion},{self.grid_n},{self.metric},"
            f"{format_real(self.value)},{format_real(self.threshold)},"
            f"{'true' if self.passed else 'false'}"
        )


@dataclass
class VerificationReport:
    problem: KineticProblem
    base_n: int
    levels: int
    rows: list[CheckRow] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_csv_text(self) -> str:
        lines = [REPORT_HEADER]
        lines.extend(row.to_csv() for row in self.rows)
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        p = self.problem
        mu_txt = "absent" if p.mu is None else f"{p.mu:g}"
        lines = [
            f"verification: nu={p.nu:g} mu={mu_txt} c={p.c:g} N_a={p.N_a:g} "
            f"a={p.a:g}, grids n={self.base_n}"
            + "".join(f",{self.base_n * 2**i}" for i in range(1, self.levels)),
        ]
        for row in self.rows:
            status = "pass" if row.passed else "FAIL"
            lines.append(
                f"  [{status}] {row.criterion} (n={row.grid_n}) {row.metric}="
                f"{row.value:.6e} vs {row.threshold:.6e}"
            )
        for stage, seconds in self.timings.items():
            lines.append(f"  time {stage}: {seconds:.3f} s")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def default_oracle_tolerance(problem: KineticProblem) -> float:
    """Absolute oracle/closed-form tolerance at the finest verification grid.

    The singular-source case (mu < 1) converges more slowly near the left
    endpoint, so it carries the looser budget.
    """
    return 5e-4 if problem.mu_eff < 1.0 else 1e-4


def _masked_errors(curve_a, curve_b) -> tuple[float, float]:
    grid = curve_a.grid
    t = grid.times()
    mask = t >= grid.a + MASK_STEPS * grid.h
    if curve_a.singular_start or curve_b.singular_start:
        mask[0] = False
    diff = np.abs(curve_a.values[mask] - curve_b.values[mask])
    return float(diff.max()), float(np.sqrt(np.mean(diff**2)))


def run_verification(
    problem: KineticProblem,
    base_n: int = 250,
    levels: int = 3,
    oracle_tol: float | None = None,
) -> VerificationReport:
    """Run the verification ladder; see the module docstring for the checks."""
    if levels < 2:
        raise ValueError("verification needs at least 2 grid levels")
    if base_n < 2 * MASK_STEPS:
        raise ValueError(f"base grid too coarse: n={base_n} < {2 * MASK_STEPS}")
    tol = default_oracle_tolerance(problem) if oracle_tol is None else oracle_tol
    report = VerificationReport(problem=problem, base_n=base_n, levels=levels)
    span = problem.default_span()
    grids = [
        UniformGrid.from_span(problem.a, span, base_n * 2**i) for i in range(levels)
    ]

    t0 = time.perf_counter()
    finest = closed_form_curve(problem, grids[-1])
    closed = [restrict_curve(finest, grid) for grid in grids[:-1]] + [finest]
    report.timings["closed_form"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    weight_sets = [build_weights(grid, problem.nu) for grid in grids]
    oracle = [
        solve_volterra(problem, OracleConfig(grid=grid), weights=w)
        for grid, w in zip(grids, weight_sets)
    ]
    report.timings["oracle"] = time.perf_counter() - t0

    max_errs = []
    for i, grid in enumerate(grids):
        max_err, l2_err = _masked_errors(oracle[i], closed[i])
        max_errs.append(max_err)
        level_tol = tol * 2.0 ** (levels - 1 - i)
        report.rows.append(
            CheckRow("oracle_agreement", grid.n, "max_error", max_err, level_tol,
                     max_err <= level_tol)
        )
        report.rows.append(
            CheckRow("oracle_agreement", grid.n, "l2_error", l2_err, level_tol,
                     l2_err <= level_tol)
        )
    order = _observed_order(max_errs[-2], max_errs[-1])
    report.rows.append(
        CheckRow("oracle_order", grids[-1].n, "observed_order", order, 1.0,
                 order >= 1.0)
    )

    t0 = time.perf_counter()
    residuals = []
    # Convergence is measured on a window that stays fixed across levels;
    # a mask tied to the current h keeps sliding into the derivative
    # singularity at t = a, where the interpolant error is only O(h^(2 nu)).
    window_start = problem.a + MASK_STEPS * grids[0].h
    for i, grid in enumerate(grids):
        res = integral_equation_residual(problem, closed[i], weights=weight_sets[i])
        t = grid.times()
        mask = t >= window_start
        mask[0] = False
        residuals.append(float(np.max(np.abs(res.values[mask]))))
        report.rows.append(
            CheckRow("integral_residual", grid.n, "max_residual", residuals[-1],
                     math.inf, True)
        )
    res_order = _observed_order(residuals[-2], residuals[-1])
    report.rows.append(
        CheckRow("integral_residual_order", grids[-1].n, "observed_order",
                 res_order, 1.0, res_order >= 1.0)
    )
    report.timings["integral_residual"] = time.perf_counter() - t0

    if problem.mu is None and 0.0 < problem.nu < 1.0:
        t0 = time.perf_counter()
        diff_res = []
        for grid, curve in zip(grids, closed):
            res = differential_equation_residual(problem, curve)
            t = grid.times()
            mask = t >= window_start
            mask[0] = False
            diff_res.append(float(np.max(np.abs(res.values[mask]))))
        monotone = all(
            diff_res[i] > diff_res[i + 1] for i in range(len(diff_res) - 1)
        )
        report.rows.append(
            CheckRow("differential_residual_decreasing", grids[-1].n,
                     "is_monotone", 1.0 if monotone else 0.0, 1.0, monotone)
        )
        report.timings["differential_residual"] = time.perf_counter() - t0

    if problem.nu == 1.0 and problem.mu is None:
        t = grids[-1].times()
        exact = problem.N_a * np.exp(-problem.c * (t - problem.a))
        rel = np.abs(closed[-1].values - exact) / np.abs(exact)
        worst = float(rel.max())
        report.rows.append(
            CheckRow("classical_limit", grids[-1].n, "max_relative_error",
                     worst, 1e-10, worst <= 1e-10)
        )

    return report


def _observed_order(coarse_err: float, fine_err: float) -> float:
    if fine_err == 0.0:
        return math.inf
    if coarse_err == 0.0:
        return -math.inf
    return math.log2(coarse_err / fine_err)


@dataclass(frozen=True)
class SweepRow:
    nu: float
    mu: float | None
    c: float
    n: int
    max_error: float | None
    threshold: float
    passed: bool
    failure: str | None = None

    def to_csv(self) -> str:
        mu_txt = "" if self.mu is None else format_real(self.mu)
        err_txt = "ERROR" if self.max_error is None else format_real(self.max_error)
        return (
            f"{format_real(self.nu)},{mu_txt},{format_real(self.c)},{self.n},"
            f"{err_txt},{format_real(self.threshold)},"
            f"{'true' if self.passed else 'false'}"
        )


def run_sweep(
    nus: list[float],
    mus: list[float | None],
    cs: list[float],
    N_a: float = 1.0,
    a: float = 0.0,
    span: float | None = None,
    n: int = 2000,
    tol: float | None = None,
) -> list[SweepRow]:
    """Cartesian sweep (nu outer, mu middle, c inner), one row per combo.

    Rows that raise one of the package's error families (ArithmeticError,
    ValueError) are recorded with an ERROR marker and ``failure`` set to
    ``"<ErrorType>: <message>"``, and the sweep continues; any other
    exception propagates.  Ordering is deterministic.
    """
    if not nus or not mus or not cs:
        raise ValueError("sweep ranges must be non-empty")
    rows = []
    for nu in nus:
        for mu in mus:
            for c in cs:
                rows.append(_sweep_cell(nu, mu, c, N_a, a, span, n, tol))
    return rows


def _sweep_cell(nu, mu, c, N_a, a, span, n, tol) -> SweepRow:
    try:
        problem = KineticProblem(nu=nu, c=c, N_a=N_a, a=a, mu=mu)
        cell_tol = default_oracle_tolerance(problem) if tol is None else tol
        cell_span = problem.default_span() if span is None else span
        grid = UniformGrid.from_span(a, cell_span, n)
        closed = closed_form_curve(problem, grid)
        oracle = solve_volterra(problem, OracleConfig(grid=grid))
        max_err, _ = _masked_errors(oracle, closed)
        return SweepRow(nu, mu, c, n, max_err, cell_tol, max_err <= cell_tol)
    except (ArithmeticError, ValueError) as exc:  # the package's error families
        fallback_tol = tol if tol is not None else math.nan
        failure = f"{type(exc).__name__}: {exc}"
        return SweepRow(nu, mu, c, n, None, fallback_tol, False, failure=failure)


def sweep_csv_text(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    lines.extend(row.to_csv() for row in rows)
    return "\n".join(lines) + "\n"
