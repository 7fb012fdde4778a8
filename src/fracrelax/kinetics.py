"""Closed-form solutions and residual checks for fractional decay kinetics.

The integral equation

    N(t) - F(t) = -c^nu * I^nu N(t),      I^nu = order-nu RL integral from a,

with forcing F(t) = N_a (plain relaxation) or F(t) = N_a (t-a)^(mu-1)
(power-law source) has the closed-form solution

    N(t) = N_a E[nu](-c^nu (t-a)^nu)                              (plain)
    N(t) = N_a Gamma(mu) (t-a)^(mu-1) E[nu, mu](-c^nu (t-a)^nu)   (power)

obtained by iterating the integral operator and summing the resulting
Neumann series term by term with the power-law integral rule.  This module
evaluates the solutions, the Neumann partial sums, and discrete residuals of
both the integral equation and its differential form

    D^nu N(t) - N_a (t-a)^-nu / Gamma(1-nu) = -c^nu N(t),   0 < nu < 1.

For mu < 1 the solution diverges like (t-a)^(mu-1) at the left endpoint;
curves store a flagged NaN at t = a and residuals peel the leading Neumann
terms off analytically so the quadrature only ever sees the regular part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gammafn import gamma, reciprocal_gamma
from .grids import DomainError, GridFunction, GridMismatchError, UniformGrid
from .mittag_leffler import MLParams, ml_eval
from .riemann_liouville import (
    QuadratureWeights,
    UnsupportedOrderError,
    rl_derivative_numeric,
    rl_integral_numeric,
)

__all__ = [
    "KineticProblem",
    "RelaxationInvariantError",
    "SolutionCurve",
    "relaxation_solution",
    "relaxation_solution_origin",
    "power_source_solution",
    "power_source_solution_origin",
    "neumann_term",
    "neumann_partial_sum",
    "closed_form_curve",
    "neumann_curve",
    "auto_peel_depth",
    "peeled_source",
    "integral_equation_residual",
    "differential_equation_residual",
]

METHOD_TAGS = ("closed_form", "neumann", "oracle")
# Relative rise allowed between neighbouring values of a decreasing curve,
# twice the Mittag-Leffler accuracy target.
_MONOTONE_SLACK = 2e-13


class RelaxationInvariantError(ArithmeticError):
    """A plain relaxation curve left (0, N_a] or increased."""


@dataclass(frozen=True)
class KineticProblem:
    """Decay problem (nu, c, N_a, a) with an optional source exponent mu.

    mu = None selects the plain relaxation form (constant forcing N_a);
    mu > 0 selects the power-law source N_a (t-a)^(mu-1).
    """

    nu: float
    c: float
    N_a: float
    a: float = 0.0
    mu: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise DomainError(f"nu must be positive, got {self.nu!r}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise DomainError(f"c must be positive, got {self.c!r}")
        if not math.isfinite(self.N_a):
            raise DomainError(f"N_a must be finite, got {self.N_a!r}")
        if not math.isfinite(self.a):
            raise DomainError(f"a must be finite, got {self.a!r}")
        if self.mu is not None and not (math.isfinite(self.mu) and self.mu > 0.0):
            raise DomainError(f"mu must be positive when present, got {self.mu!r}")

    @property
    def mu_eff(self) -> float:
        """Effective source exponent; the plain form behaves as mu = 1."""
        return 1.0 if self.mu is None else self.mu

    @property
    def rate_factor(self) -> float:
        """c^nu with c > 0 enforced, so the real branch is unambiguous."""
        return self.c**self.nu

    def decay_argument(self, t: float) -> float:
        """-c^nu (t-a)^nu, the Mittag-Leffler argument at time t."""
        return -self.rate_factor * (t - self.a) ** self.nu

    def default_span(self) -> float:
        """Verification window T = 5/c (several decay scales)."""
        return 5.0 / self.c


@dataclass
class SolutionCurve:
    """A solution sampled on a grid, tagged by how it was produced."""

    problem: KineticProblem
    grid: UniformGrid
    values: np.ndarray = field(repr=False)
    method_tag: str
    singular_start: bool = False

    def __post_init__(self):
        if self.method_tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method_tag!r}")
        if self.grid.a != self.problem.a:
            raise GridMismatchError(
                f"grid starts at {self.grid.a!r} but the problem at {self.problem.a!r}"
            )
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n + 1,):
            raise GridMismatchError(
                f"expected {self.grid.n + 1} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals[1:])):
            raise DomainError("solution values at t > a must be finite")
        if self.singular_start != bool(np.isnan(vals[0])):
            raise DomainError("singular-start flag must match a NaN at node 0")
        self.values = vals

    def as_grid_function(self) -> GridFunction:
        return GridFunction(
            grid=self.grid, values=self.values.copy(), singular_start=self.singular_start
        )


def relaxation_solution(problem: KineticProblem, t: float) -> float:
    """Closed-form plain relaxation value N_a E[nu](-c^nu (t-a)^nu)."""
    if problem.mu is not None:
        raise DomainError("plain relaxation form requires mu to be absent")
    if not t > problem.a:
        raise DomainError(f"t must exceed a={problem.a!r}, got {t!r}")
    return problem.N_a * ml_eval(MLParams(problem.nu, 1.0), problem.decay_argument(t))


def relaxation_solution_origin(nu: float, c: float, N_0: float, t: float) -> float:
    """Plain relaxation with the window starting at the origin (a = 0)."""
    return relaxation_solution(KineticProblem(nu=nu, c=c, N_a=N_0, a=0.0), t)


def power_source_solution(problem: KineticProblem, t: float) -> float:
    """Closed-form power-source value.

    N_a Gamma(mu) (t-a)^(mu-1) E[nu, mu](-c^nu (t-a)^nu); diverges at t -> a
    when mu < 1 (callers sampling curves flag that node instead).
    """
    if problem.mu is None:
        raise DomainError("power-source form requires mu")
    if not t > problem.a:
        raise DomainError(f"t must exceed a={problem.a!r}, got {t!r}")
    e = ml_eval(MLParams(problem.nu, problem.mu), problem.decay_argument(t))
    return _power_source_factor(problem, t - problem.a) * e


def _power_source_factor(problem: KineticProblem, dt):
    """N_a Gamma(mu) dt^(mu-1), the factor of E[nu, mu] in the power-source form."""
    return problem.N_a * gamma(problem.mu) * dt ** (problem.mu - 1.0)


def power_source_solution_origin(
    nu: float, mu: float, c: float, N_0: float, t: float
) -> float:
    """Power-source solution with the window starting at the origin."""
    return power_source_solution(KineticProblem(nu=nu, c=c, N_a=N_0, a=0.0, mu=mu), t)


def neumann_term(problem: KineticProblem, m: int) -> tuple[float, float]:
    """Coefficient and exponent of the m-th Neumann term.

    Term m of the series solution is coef * (t-a)^expo with

        coef = N_a Gamma(mu_eff) (-c^nu)^m / Gamma(m nu + mu_eff)
        expo = m nu + mu_eff - 1.

    The same terms drive the partial sums, the singular peel of the
    residuals, and the oracle's analytic head.
    """
    mu_eff = problem.mu_eff
    coef = (
        problem.N_a
        * gamma(mu_eff)
        * (-problem.rate_factor) ** m
        * reciprocal_gamma(m * problem.nu + mu_eff)
    )
    return coef, m * problem.nu + mu_eff - 1.0


def neumann_partial_sum(problem: KineticProblem, t: float, M: int) -> float:
    """Neumann partial sum through term M at t: M + 1 coefficient pairs and powers."""
    if not t > problem.a:
        raise DomainError(f"t must exceed a={problem.a!r}, got {t!r}")
    return float(_neumann_sum(problem, np.array([t - problem.a]), M)[0])


def _neumann_sum(problem: KineticProblem, dt: np.ndarray, M: int) -> np.ndarray:
    """Terms m = 0..M added in ascending order, each an array power over dt > 0."""
    if M < 0:
        raise DomainError(f"M must be >= 0, got {M}")
    terms = (neumann_term(problem, m) for m in range(M + 1))
    return sum(coef * dt**expo for coef, expo in terms)


def _start_value(problem: KineticProblem) -> float:
    # Limit of the solution as t -> a+: N_a Gamma(mu) for mu = 1, 0 for
    # mu > 1, divergent (NaN-flagged) for mu < 1.
    mu_eff = problem.mu_eff
    if mu_eff < 1.0:
        return math.nan
    if mu_eff > 1.0:
        return 0.0
    if problem.mu is None:
        return problem.N_a
    return problem.N_a * gamma(problem.mu)


def _check_relaxation_invariant(problem: KineticProblem, ratio: np.ndarray) -> None:
    """Check N/N_a = E[nu](-c^nu (t-a)^nu) on increasing t > a, 0 < nu <= 1.

    E[nu](-x) is completely monotone there (Pollard 1948), so every value
    lies in (0, 1] and none exceeds its predecessor by more than the
    evaluator's rounding.  Only e^-x (nu = 1) may underflow to exactly 0.
    Raises RelaxationInvariantError at the first violation.
    """
    if not (problem.mu is None and 0.0 < problem.nu <= 1.0):
        raise DomainError("the relaxation invariant holds for plain problems, 0 < nu <= 1")
    low = (ratio < 0.0) | ((ratio == 0.0) & (problem.nu != 1.0))
    bad = low | ~(ratio <= 1.0)
    bad[1:] |= ratio[1:] > ratio[:-1] * (1.0 + _MONOTONE_SLACK)
    if bad.any():
        j = int(np.argmax(bad))
        raise RelaxationInvariantError(
            f"{problem}: N/N_a = {float(ratio[j])!r} at node {j + 1} leaves (0, 1] or "
            "exceeds its predecessor"
        )


def closed_form_curve(problem: KineticProblem, grid: UniformGrid) -> SolutionCurve:
    """Sample the closed-form solution on a grid, one evaluation of E per node.

    Plain curves with 0 < nu <= 1 are checked against the relaxation
    invariant before they are returned.
    """
    _require_grid(problem, grid)
    times = grid.times()[1:]
    params = MLParams(problem.nu, problem.mu_eff)
    e = np.array([ml_eval(params, problem.decay_argument(t)) for t in times])
    values = np.empty(grid.n + 1)
    values[0] = _start_value(problem)
    if problem.mu is None:
        if problem.nu <= 1.0:
            _check_relaxation_invariant(problem, e)
        values[1:] = problem.N_a * e
    else:
        values[1:] = _power_source_factor(problem, times - problem.a) * e
    return SolutionCurve(
        problem=problem,
        grid=grid,
        values=values,
        method_tag="closed_form",
        singular_start=problem.mu_eff < 1.0,
    )


def neumann_curve(problem: KineticProblem, grid: UniformGrid, M: int) -> SolutionCurve:
    """Sample the M-term Neumann partial sum on a grid.

    Costs M + 1 coefficient pairs per curve plus M + 1 array powers over
    the nodes, whatever the grid size.
    """
    _require_grid(problem, grid)
    values = np.empty(grid.n + 1)
    # At t = a every term with positive exponent vanishes, leaving the same
    # limit as the closed form.
    values[0] = _start_value(problem)
    values[1:] = _neumann_sum(problem, grid.times()[1:] - problem.a, M)
    return SolutionCurve(
        problem=problem,
        grid=grid,
        values=values,
        method_tag="neumann",
        singular_start=problem.mu_eff < 1.0,
    )


def auto_peel_depth(problem: KineticProblem, target_exponent: float = 1.0) -> int:
    """Number of Neumann terms to handle analytically in discretizations.

    Smallest m0 with m0*nu + mu_eff - 1 >= target_exponent, capped at 12.
    After removing these terms the remainder has a bounded, Lipschitz-scale
    derivative, so piecewise-linear quadrature keeps its accuracy; with no
    peel, a forcing exponent below 0 (mu < 1) is not even representable on
    the grid.
    """
    m0 = 0
    while m0 * problem.nu + problem.mu_eff - 1.0 < target_exponent and m0 < 12:
        m0 += 1
    return m0


def peeled_source(
    problem: KineticProblem, grid: UniformGrid, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic head P and remainder forcing G_F on the grid nodes.

    Writing N = P + G with P the first ``depth`` Neumann terms, G satisfies

        G + c^nu I^nu G = u_depth,

    with u_depth the next Neumann term; the identity is exact because each
    peeled term maps to the next one under the power-law integral rule.
    Returns (P, G_F) sampled on the nodes; at t = a a term with a negative
    exponent (mu < 1) has no finite value, so node 0 is NaN where one enters.
    """
    dt = grid.h * np.arange(grid.n + 1)
    P = np.zeros(grid.n + 1)
    for m in range(depth):
        coef, expo = neumann_term(problem, m)
        P += coef * _power_on_nodes(dt, expo)
    coef, expo = neumann_term(problem, depth)
    G_F = coef * _power_on_nodes(dt, expo)
    return P, G_F


def _power_on_nodes(dt: np.ndarray, expo: float) -> np.ndarray:
    if expo == 0.0:
        return np.ones_like(dt)
    out = np.empty_like(dt)
    out[0] = 0.0 if expo > 0.0 else math.nan
    out[1:] = dt[1:] ** expo
    return out


def integral_equation_residual(
    problem: KineticProblem,
    curve: SolutionCurve,
    weights: QuadratureWeights | None = None,
) -> GridFunction:
    """Residual of the integral equation: N - F + c^nu I^nu N on the grid.

    For the true solution the maximum residual shrinks with the grid (the
    quadrature error of the product-trapezoid rule); any curve that does not
    solve the equation leaves a residual bounded away from zero.

    Singular curves (mu < 1) are handled by peeling the analytic head off
    first: the peeled residual G - G_F + c^nu I^nu G equals the original one
    up to terms the quadrature could not represent anyway, and node 0 is
    reported as flagged-undefined.
    """
    _require_curve(problem, curve)
    cn = problem.rate_factor
    if not curve.singular_start:
        forcing = _forcing_on_grid(problem, curve.grid)
        integ = rl_integral_numeric(
            curve.as_grid_function(), problem.nu, weights=weights
        )
        res = curve.values - forcing + cn * integ.values
        return GridFunction(grid=curve.grid, values=res)
    depth = auto_peel_depth(problem)
    P, G_F = peeled_source(problem, curve.grid, depth)
    G = curve.values - P
    # The regular remainder of the true solution vanishes at t = a (its
    # leading exponent is >= 1 by construction of the peel depth).
    G[0] = 0.0
    integ = rl_integral_numeric(
        GridFunction(grid=curve.grid, values=G), problem.nu, weights=weights
    )
    res = G - G_F + cn * integ.values
    res[0] = math.nan
    return GridFunction(grid=curve.grid, values=res, singular_start=True)


def differential_equation_residual(
    problem: KineticProblem, curve: SolutionCurve
) -> GridFunction:
    """Residual of the differential form for 0 < nu < 1, mu absent.

    r = D^nu N - N_a (t-a)^-nu / Gamma(1-nu) + c^nu N on the interior
    nodes; node 0 carries the kernel singularity and is flagged undefined.
    """
    if problem.mu is not None:
        raise DomainError("differential residual applies to the plain form only")
    if not 0.0 < problem.nu < 1.0:
        raise UnsupportedOrderError(
            f"differential residual needs 0 < nu < 1, got {problem.nu!r}"
        )
    _require_curve(problem, curve)
    deriv = rl_derivative_numeric(curve.as_grid_function(), problem.nu)
    dt = curve.grid.h * np.arange(curve.grid.n + 1)
    res = np.full(curve.grid.n + 1, math.nan)
    c_start = reciprocal_gamma(1.0 - problem.nu)
    res[1:] = (
        deriv.values[1:]
        - problem.N_a * dt[1:] ** (-problem.nu) * c_start
        + problem.rate_factor * curve.values[1:]
    )
    return GridFunction(grid=curve.grid, values=res, singular_start=True)


def _forcing_on_grid(problem: KineticProblem, grid: UniformGrid) -> np.ndarray:
    mu_eff = problem.mu_eff
    if mu_eff == 1.0:
        base = np.full(grid.n + 1, problem.N_a)
        return base
    dt = grid.h * np.arange(grid.n + 1)
    return problem.N_a * _power_on_nodes(dt, mu_eff - 1.0)


def _require_grid(problem: KineticProblem, grid: UniformGrid) -> None:
    if grid.a != problem.a:
        raise GridMismatchError(
            f"grid starts at {grid.a!r} but the problem at {problem.a!r}"
        )


def _require_curve(problem: KineticProblem, curve: SolutionCurve) -> None:
    _require_grid(problem, curve.grid)
