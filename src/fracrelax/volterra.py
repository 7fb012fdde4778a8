"""Independent Volterra-equation oracle for the kinetic solutions.

The kinetic equation N = F - c^nu I^nu N is a linear second-kind Volterra
equation, so it can be solved on the grid without ever touching
Mittag-Leffler code: discretize I^nu with the same product-trapezoid weights
used everywhere else and solve the resulting lower-triangular Toeplitz
system, whose inverse is the discrete resolvent.  The closed-form curves are
validated against this solve; independence holds because it never evaluates
the series solution, only power functions and the quadrature.

Singularity handling: for mu < 1 the forcing (t-a)^(mu-1) cannot be
represented by the piecewise-linear interpolant near t = a (the raw solve
leaves O(1) errors at the first nodes, far above the verification
tolerances).  The solve therefore runs on the peeled remainder G = N - P,
where P collects the first few analytic terms of the solution's expansion
(see kinetics.peeled_source); the peel is algebraically exact, and G is
regular enough for the quadrature to converge.  The same peel is applied
for mu >= 1, where it just sharpens the start-up accuracy.

Picard iteration (_PICARD_ITERATIONS substitutions on the identical discrete
system) is a structural cross-check, the successive-substitution construction
on the grid.  That the solve satisfies its own fixed-point equation is
checked by tests/test_volterra.py::test_residual_of_own_system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import UniformGrid
from .kinetics import KineticProblem, SolutionCurve, auto_peel_depth, peeled_source
from .kinetics import _require_grid, _sampled_curve
from .riemann_liouville import QuadratureWeights
from .riemann_liouville import _causal_convolution, _fft_size, _resolve_weights

__all__ = [
    "SCHEMES",
    "OracleConfig",
    "StepSingularError",
    "UnstableResolventError",
    "PicardDivergenceError",
    "solve_volterra",
    "picard_iterate",
]

SCHEMES = ("implicit_product_trapezoid", "picard")

_DIVERGENCE_FACTOR = 1e6
_PICARD_ITERATIONS = 50
# Where the discrete system is unstable, max|r| grows exponentially along the
# grid (50, 9.4e5 and 5.7e28 times r[0] after 50, 200 and 1000 steps at
# nu = 1.05, c h = 178); past this factor the solve amplifies rounding by
# more than six digits.  Grids on which max|r| does not grow with n keep it
# below 6.5 r[0] (nu 0.1 to 1.95, c h 1e-3 to 1e3, n 50 to 1000).
_RESOLVENT_GROWTH_LIMIT = 1e6


class StepSingularError(ArithmeticError):
    """The system's diagonal degenerated (cannot occur for valid input)."""


class UnstableResolventError(ArithmeticError):
    """The discrete resolvent grows without bound: the grid is too coarse."""


class PicardDivergenceError(ArithmeticError):
    """The Picard iterates cannot converge, or their norms exploded."""


@dataclass(frozen=True)
class OracleConfig:
    """Grid plus scheme selection for the oracle solver."""

    grid: UniformGrid
    scheme: str = "implicit_product_trapezoid"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected {SCHEMES}")


def _prepare(problem: KineticProblem, cfg: OracleConfig, weights):
    _require_grid(problem, cfg.grid)
    weights = _resolve_weights(cfg.grid, problem.nu, weights)
    P, G_F = peeled_source(problem, cfg.grid, auto_peel_depth(problem))
    return weights, P, G_F


def _assemble(problem: KineticProblem, cfg: OracleConfig, P, G):
    # node 0 of P + G sums the Neumann terms' limits at t = a, as on every curve
    return _sampled_curve(problem, cfg.grid, P + G, "oracle")


def solve_volterra(
    problem: KineticProblem,
    cfg: OracleConfig,
    weights: QuadratureWeights | None = None,
) -> SolutionCurve:
    """Solve the kinetic integral equation as one triangular Toeplitz system.

    Row j reads (1 + c^nu c0) G_j + c^nu sum_{0<k<j} d2[j-1-k] G_k = b_j,
    b_j = G_F_j - c^nu a0[j-1] G_0, so G[1:] = (r b)[:n] for the resolvent
    r = 1/ell, ell(x) = 1 + c^nu c0 + c^nu sum_i d2[i] x^(i+1): O(n log n)
    time, O(n) memory.  FFT rounding grows with c^nu T^nu (T the window):
    within 1e-14 max|G| of a row-by-row march for T = 5/c, ~3e-12 at
    c^nu T^nu = 5000.  Raises UnstableResolventError where r grows past
    1e6 |r[0]|: for nu above 1 on coarse grids (c h of ~10 and more) the
    discrete system is unstable and its solution grows with r.  For
    scheme="picard" this dispatches to picard_iterate.
    """
    if cfg.scheme == "picard":
        return picard_iterate(problem, cfg, weights=weights)
    weights, P, G = _prepare(problem, cfg, weights)  # G = G_F, solved in place
    cn = problem.rate_factor
    n = cfg.grid.n
    denom = 1.0 + cn * weights.c0  # the same on every row
    if not denom > 0.0 or not math.isfinite(denom):
        raise StepSingularError(f"degenerate step: 1 + c^nu w[j,j] = {denom!r}")
    # Newton doubling (Kung 1974): from m terms of r the next k - m <= m are
    # -r (ell r)[m:k], where (ell r)[m:k] = c^nu (d2 * r)[m-1:k-1] is left
    # unwrapped by a size-2m cyclic product.
    r = np.array([1.0 / denom])
    with np.errstate(over="ignore", invalid="ignore"):
        while len(r) < n:
            m, k = len(r), min(2 * len(r), n)
            r_hat = np.fft.rfft(r, _fft_size(m))
            r = np.append(r, _causal_convolution(r_hat, weights.d2[: k - 1])[m - 1 :])
            r[m:] = -cn * _causal_convolution(r_hat, r[m:])
    limit = _RESOLVENT_GROWTH_LIMIT * r[0]
    if not (r.max() <= limit and r.min() >= -limit):  # also catches inf and NaN
        growth = max(abs(float(r.max())), abs(float(r.min()))) / r[0]
        raise UnstableResolventError(
            f"the discrete resolvent of nu = {problem.nu!r} at c h = "
            f"{problem.c * cfg.grid.h:.6g} grows to {growth:.3e} |r[0]|: the "
            f"product-trapezoid system is unstable on {n} steps; use a larger n"
        )
    # (r b)[m:n] = (r b_hi)[:n-m] + (r b_lo)[m:n]: transforms of size ~2m, not ~2n
    G[1:] -= cn * G[0] * weights.a0
    m = (n + 1) // 2
    r_hat = np.fft.rfft(r[:m], _fft_size(m))
    G[m + 1 :] = _causal_convolution(r_hat, G[m + 1 :])
    G[m + 1 :] += _causal_convolution(np.fft.rfft(G[1 : m + 1], _fft_size(m)), r)[m:]
    G[1 : m + 1] = _causal_convolution(r_hat, G[1 : m + 1])
    return _assemble(problem, cfg, P, G)


def picard_iterate(
    problem: KineticProblem,
    cfg: OracleConfig,
    weights: QuadratureWeights | None = None,
) -> SolutionCurve:
    """Successive substitution on the same discrete system.

    G^(0) = G_F, G^(i+1) = G_F - c^nu W G^(i).  W is strictly lower
    triangular plus the diagonal c0 = h^nu / Gamma(nu + 2), so the iteration
    matrix -c^nu W has spectral radius c^nu c0: the iterates can approach the
    implicit solution only where c^nu c0 < 1, and even there the
    lower-triangular part may make them grow for a while first.  Raises
    PicardDivergenceError up front where c^nu c0 >= 1 (the grid is too
    coarse), and when the iterate norm grows by more than a factor of 1e6.
    """
    if cfg.scheme != "picard":
        raise ValueError("picard_iterate requires scheme='picard'")
    weights, P, G_F = _prepare(problem, cfg, weights)
    cn = problem.rate_factor
    if cn * weights.c0 >= 1.0:
        raise PicardDivergenceError(
            f"c^nu c0 = {cn * weights.c0:.3e} >= 1: the diagonal of the discrete "
            f"operator makes the Picard iteration diverge on {cfg.grid.n} steps; "
            "use a larger n"
        )
    G = G_F.copy()
    base_norm = max(1.0, float(np.max(np.abs(G_F))))
    for _ in range(_PICARD_ITERATIONS):
        G = G_F - cn * weights.apply(G)
        G[0] = G_F[0]
        norm = float(np.max(np.abs(G)))
        if norm > _DIVERGENCE_FACTOR * base_norm:
            raise PicardDivergenceError(
                f"iterate norm {norm:.3e} exceeds {_DIVERGENCE_FACTOR:.0e} x "
                f"the forcing norm {base_norm:.3e}"
            )
    return _assemble(problem, cfg, P, G)
