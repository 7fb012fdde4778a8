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

    D^nu (N - N_a)(t) = -c^nu N(t),   0 < nu < 1.

The solutions depend on t - a alone: curves and residuals are formed on the
grid's offsets t_j - a = j h, where one function samples every Neumann term,
node 0 included.  For mu < 1 the solution diverges like (t-a)^(mu-1) at the
left endpoint; curves store a flagged NaN at t = a and residuals peel the
leading Neumann terms off analytically so the quadrature only ever sees the
regular part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gammafn import gamma, reciprocal_gamma
from .grids import DomainError, GridFunction, GridMismatchError, UniformGrid
from .mittag_leffler import MLParams, ml_eval_many
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
    "restrict_curve",
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
# Exponent of the remainder that ``auto_peel_depth`` peels the forcing to.
_PEEL_TARGET = 1.0


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
        try:
            self.rate_factor
        except OverflowError:
            raise DomainError(
                f"c^nu = {self.c!r}^{self.nu!r} overflows double range") from None

    @property
    def mu_eff(self) -> float:
        """Effective source exponent; the plain form behaves as mu = 1."""
        return 1.0 if self.mu is None else self.mu

    @property
    def rate_factor(self) -> float:
        """c^nu with c > 0 enforced, so the real branch is unambiguous."""
        return self.c**self.nu

    def default_span(self) -> float:
        """Verification window T = 5/c (several decay scales)."""
        return 5.0 / self.c


@dataclass(kw_only=True)
class SolutionCurve(GridFunction):
    """A sampled solution of ``problem``, tagged by how it was produced.

    A GridFunction, so it goes into the numeric operators as it is, with
    the same shape, finiteness and NaN-at-start rules; the grid must also
    start at problem.a.
    """

    problem: KineticProblem
    method_tag: str

    def __post_init__(self):
        if self.method_tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method_tag!r}")
        _require_grid(self.problem, self.grid)
        super().__post_init__()


def relaxation_solution(problem: KineticProblem, t: float) -> float:
    """Closed-form plain relaxation value N_a E[nu](-c^nu (t-a)^nu)."""
    if problem.mu is not None:
        raise DomainError("plain relaxation form requires mu to be absent")
    return float(_closed_form(problem, [float(t) - problem.a])[0])


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
    return float(_closed_form(problem, [float(t) - problem.a])[0])


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
    try:
        power = (-problem.rate_factor) ** m
    except OverflowError:
        raise DomainError(f"{problem}: (-c^nu)^{m} overflows double range") from None
    coef = problem.N_a * gamma(mu_eff) * power * reciprocal_gamma(m * problem.nu + mu_eff)
    return coef, m * problem.nu + mu_eff - 1.0


def neumann_partial_sum(problem: KineticProblem, t: float, M: int) -> float:
    """Neumann partial sum through term M at t: M + 1 coefficient pairs and powers."""
    if not t > problem.a:
        raise DomainError(f"t must exceed a={problem.a!r}, got {t!r}")
    return float(_neumann_sum(problem, np.array([t - problem.a]), _through(M))[0])


def _through(M: int) -> range:
    """Terms 0..M of a Neumann partial sum."""
    if M < 0:
        raise DomainError(f"M must be >= 0, got {M}")
    return range(M + 1)


def _neumann_sum(problem: KineticProblem, dt: np.ndarray, terms: range) -> np.ndarray:
    """Neumann terms ``terms`` at the offsets dt = t - a >= 0, added in ascending order.

    At dt = 0 each term takes its limit: 0 for a positive exponent, its
    coefficient for exponent 0, NaN for a negative one.  Raises DomainError
    where the sum leaves double range at some dt > 0.
    """
    total = np.zeros_like(dt)
    with np.errstate(all="ignore"):  # dt = 0 is set and overflow refused below
        for m in terms:
            coef, expo = neumann_term(problem, m)
            total += coef * dt**expo
            if expo < 0.0:
                total[dt == 0.0] = math.nan
    if not np.isfinite(total[dt > 0.0]).all():
        raise DomainError(
            f"{problem}: the sum of Neumann terms {terms.start} to {terms.stop - 1} "
            f"overflows double range on t - a in (0, {float(dt[-1])!r}]"
        )
    return total


def _sampled_curve(
    problem: KineticProblem, grid: UniformGrid, values: np.ndarray, method_tag: str
) -> SolutionCurve:
    """``values`` as a curve; node 0 is flagged NaN where mu < 1 (N diverges at t = a)."""
    return SolutionCurve(grid=grid, values=values, singular_start=problem.mu_eff < 1.0,
                         problem=problem, method_tag=method_tag)


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


def _closed_form(problem: KineticProblem, dts: list[float]) -> np.ndarray:
    """The closed-form solution at increasing offsets dt = t - a > 0, one E each.

    The arguments -c^nu dt^nu and the power-source factors are formed on
    the Python floats ``dts`` (numpy's array power rounds differently at
    some nodes), so a curve and the pointwise forms give bitwise the same
    values; an argument or factor past double range raises DomainError.
    Plain problems with 0 < nu <= 1 are checked against the relaxation
    invariant.
    """
    cn, nu = problem.rate_factor, problem.nu
    if not dts[0] > 0.0:
        raise DomainError(f"t must exceed a={problem.a!r}, got t - a = {dts[0]!r}")
    e = ml_eval_many(MLParams(nu, problem.mu_eff), _scaled_powers(problem, dts, -cn, nu))
    if problem.mu is None:
        if nu <= 1.0:
            _check_relaxation_invariant(problem, e)
        return problem.N_a * e
    scale = problem.N_a * gamma(problem.mu)
    return np.array(_scaled_powers(problem, dts, scale, problem.mu - 1.0)) * e


def _scaled_powers(
    problem: KineticProblem, dts: list[float], scale: float, expo: float
) -> list[float]:
    """scale dt^expo on the Python floats ``dts``; DomainError where one
    leaves double range."""
    try:
        values = [scale * dt**expo for dt in dts]
    except OverflowError:  # the power itself; an overflowing product is inf
        values = [math.inf]
    if not all(map(math.isfinite, values)):
        raise DomainError(
            f"{problem}: {scale!r} (t-a)^{expo!r} overflows double range "
            f"on t - a in (0, {dts[-1]!r}]"
        )
    return values


def closed_form_curve(problem: KineticProblem, grid: UniformGrid) -> SolutionCurve:
    """Sample the closed-form solution at the grid's offsets, one E per node.

    ``ml_eval_many`` stages the curve's E values once: the double passes
    in lockstep, the contour for the nodes they leave in 2-D blocks.  A
    lone value is the one-node case of the same staging, so every value is
    bitwise the one ``relaxation_solution`` or ``power_source_solution``
    returns at t - a = j h, whatever a is.  Node 0 is the solution's limit at t = a, that of
    Neumann term 0: the later terms vanish there, or term 0 diverges.  Plain
    curves with 0 < nu <= 1 are checked against the relaxation invariant.
    """
    _require_grid(problem, grid)
    dt = grid.offsets()
    start = _neumann_sum(problem, dt[:1], range(1))
    tail = _closed_form(problem, dt[1:].tolist())
    return _sampled_curve(problem, grid, np.concatenate((start, tail)), "closed_form")


def restrict_curve(curve: SolutionCurve, grid: UniformGrid) -> SolutionCurve:
    """The curve on a grid whose nodes are bitwise every m-th node of curve.grid.

    Grids over one span whose step counts differ by a power of two nest
    like that, so the restriction of a closed-form curve equals the curve
    sampled on the coarse grid.  A plain closed-form curve with
    0 < nu <= 1 is checked against the relaxation invariant again, on the
    coarse nodes' N/N_a.
    """
    m, rest = divmod(curve.grid.n, grid.n)
    if rest or not np.array_equal(grid.times(), curve.grid.times()[::m]):
        raise GridMismatchError(f"{grid} is not a restriction of {curve.grid}")
    values = curve.values[::m].copy()
    problem = curve.problem
    if (curve.method_tag == "closed_form" and problem.mu is None
            and 0.0 < problem.nu <= 1.0 and problem.N_a != 0.0):
        _check_relaxation_invariant(problem, values[1:] / problem.N_a)
    return replace(curve, grid=grid, values=values)


def neumann_curve(problem: KineticProblem, grid: UniformGrid, M: int) -> SolutionCurve:
    """Sample the M-term Neumann partial sum at the grid's offsets.

    Costs M + 1 coefficient pairs per curve plus M + 1 array powers over
    the offsets, node 0 included, whatever the grid size.
    """
    _require_grid(problem, grid)
    return _sampled_curve(problem, grid, _neumann_sum(problem, grid.offsets(), _through(M)),
                          "neumann")


def auto_peel_depth(problem: KineticProblem) -> int:
    """Number of Neumann terms to handle analytically in discretizations.

    Smallest m0 with m0*nu + mu_eff - 1 >= _PEEL_TARGET, capped at 12.
    After removing these terms the remainder has a bounded, Lipschitz-scale
    derivative, so piecewise-linear quadrature keeps its accuracy; with no
    peel, a forcing exponent below 0 (mu < 1) is not even representable on
    the grid.
    """
    m0 = 0
    while m0 * problem.nu + problem.mu_eff - 1.0 < _PEEL_TARGET and m0 < 12:
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
    Returns (P, G_F) sampled at the grid's offsets; at t = a a term with a
    negative exponent (mu < 1) has no finite value, so node 0 of P is NaN
    where one enters.  Raises DomainError where u_depth, and so G, diverges
    at t = a, and where P or G_F overflows double range.
    """
    expo = neumann_term(problem, depth)[1]
    if expo < 0.0:
        raise DomainError(
            f"{problem}: after {depth} peeled Neumann terms the remainder "
            f"forcing (t-a)^{expo:.6g} still diverges at t = a"
        )
    dt = grid.offsets()
    head, remainder = range(depth), range(depth, depth + 1)
    return _neumann_sum(problem, dt, head), _neumann_sum(problem, dt, remainder)


def integral_equation_residual(
    problem: KineticProblem,
    curve: SolutionCurve,
    weights: QuadratureWeights | None = None,
) -> GridFunction:
    """Residual of the integral equation: N - F + c^nu I^nu N on the grid.

    For the true solution the maximum residual shrinks with the grid (the
    quadrature error of the product-trapezoid rule); any curve that does not
    solve the equation leaves a residual bounded away from zero.

    Every curve goes through peeled_source: singular curves (mu < 1) at
    auto_peel_depth, regular ones at depth 0, where P = 0 and G_F is the
    forcing F.  The peeled residual G - G_F + c^nu I^nu G, G = N - P, equals
    the original one up to terms the quadrature could not represent anyway;
    node 0 of a singular curve is reported as flagged-undefined.
    """
    _require_grid(problem, curve.grid)
    depth = auto_peel_depth(problem) if curve.singular_start else 0
    P, G_F = peeled_source(problem, curve.grid, depth)
    G = curve.values - P
    # At node 0 of a singular curve G is NaN; the regular remainder of the
    # true solution vanishes at t = a (its leading exponent is >= 1 by
    # construction of the peel depth), so the quadrature takes 0 there.
    integ = rl_integral_numeric(
        GridFunction(grid=curve.grid, values=np.nan_to_num(G, nan=0.0)),
        problem.nu,
        weights=weights,
    )
    res = G - G_F + problem.rate_factor * integ.values
    return GridFunction(grid=curve.grid, values=res, singular_start=curve.singular_start)


def differential_equation_residual(
    problem: KineticProblem, curve: SolutionCurve
) -> GridFunction:
    """Residual of the differential form for 0 < nu < 1, mu absent.

    r = D^nu (N - N_a) + c^nu N on the interior nodes; node 0 carries the
    kernel singularity and is flagged undefined.  D^nu is linear and the L1
    rule exact on constants, so this is D^nu N - N_a (t-a)^-nu / Gamma(1-nu)
    + c^nu N, with D^nu of the constant formed only in riemann_liouville.
    """
    if problem.mu is not None:
        raise DomainError("differential residual applies to the plain form only")
    if not 0.0 < problem.nu < 1.0:
        raise UnsupportedOrderError(
            f"differential residual needs 0 < nu < 1, got {problem.nu!r}"
        )
    _require_grid(problem, curve.grid)
    excess = GridFunction(grid=curve.grid, values=curve.values - problem.N_a)
    deriv = rl_derivative_numeric(excess, problem.nu)
    res = deriv.values + problem.rate_factor * curve.values
    return GridFunction(grid=curve.grid, values=res, singular_start=True)


def _require_grid(problem: KineticProblem, grid: UniformGrid) -> None:
    if grid.a != problem.a:
        raise GridMismatchError(
            f"grid starts at {grid.a!r} but the problem at {problem.a!r}"
        )
