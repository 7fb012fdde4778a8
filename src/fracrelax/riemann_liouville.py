"""Riemann-Liouville fractional integral and derivative.

Analytic power-law rules:

    I^nu (t-a)^(rho-1) = Gamma(rho)/Gamma(rho+nu) * (t-a)^(rho+nu-1)
    D^nu (t-a)^(rho-1) = Gamma(rho)/Gamma(rho-nu) * (t-a)^(rho-nu-1)

and grid discretizations of both operators:

* integral: product-trapezoidal rule.  The unknown is replaced by its
  piecewise-linear interpolant and the weakly singular kernel
  (t-u)^(nu-1) is integrated against each linear piece in closed form, so
  the singularity never meets a quadrature node.
* derivative (0 < mu < 1): the exact Riemann-Liouville derivative of the
  same piecewise-linear interpolant, which works out to the classical L1
  form: f(a) (t-a)^-mu / Gamma(1-mu) plus a convolution of the first
  differences of f with backward differences of m^(1-mu).

The weights are h^nu / Gamma(nu+2) times second differences of m^p,
p = nu + 1, and in column 0 times (m-1)^p - m^(p-1) (m - p) (Diethelm, Ford
& Freed, Numer. Algorithms 36, 2004).  Formed literally these lose about
2 log10(m) and log10(m) digits; for m >= max(3, ceil(p)) both come from
the even and odd parts of one binomial series in 1/m instead, and for
m = 1, 2 at p < 2 from power series in p - 1 with positive terms, while
below m = p the literal forms cancel little; this keeps the row-sum identity
sum_k w[j,k] = (t_j - a)^nu / Gamma(nu+1) at machine precision even on
long grids.

Apart from column 0 and the diagonal the weights are Toeplitz, so they take
O(n) storage, and both operators apply as FFT convolutions in O(n log n)
(cf. Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .gammafn import gamma, reciprocal_gamma
from .grids import DomainError, GridFunction, GridMismatchError, UniformGrid

__all__ = [
    "UnsupportedOrderError",
    "QuadratureWeights",
    "rl_integral_power",
    "rl_derivative_power",
    "rl_derivative_constant",
    "build_weights",
    "rl_integral_numeric",
    "rl_derivative_numeric",
]

# From this index on, and from m = p, the series in 1/m meets a few ulp in
# its 13 terms; below, it converges too slowly (at m = 3 and nu = 40 it was
# 8.0e-6 off), and ``_start_tails`` (p < 2) or the literal forms serve them.
_SERIES_CUT = 3


class UnsupportedOrderError(ValueError):
    """Derivative order outside the implemented range 0 < mu < 1."""


def rl_integral_power(a: float, rho: float, nu: float, t: float) -> float:
    """Fractional integral of order nu of (t-a)^(rho-1), evaluated at t."""
    _require_power_args(a, rho, nu, t)
    return gamma(rho) * reciprocal_gamma(rho + nu) * (t - a) ** (rho + nu - 1.0)


def rl_derivative_power(a: float, rho: float, nu: float, t: float) -> float:
    """Fractional derivative of order nu of (t-a)^(rho-1), evaluated at t.

    Exactly 0.0 when rho - nu is a non-positive integer (the reciprocal
    gamma kills the coefficient), which covers the classical fact that
    integer-order derivatives eventually annihilate polynomials.
    """
    _require_power_args(a, rho, nu, t)
    coeff = gamma(rho) * reciprocal_gamma(rho - nu)
    if coeff == 0.0:
        return 0.0
    return coeff * (t - a) ** (rho - nu - 1.0)


def rl_derivative_constant(a: float, nu: float, t: float) -> float:
    """Fractional derivative of the constant 1: (t-a)^-nu / Gamma(1-nu).

    Zero exactly at positive integer nu, nonzero otherwise: the fractional
    derivative of a constant does not vanish.
    """
    return rl_derivative_power(a, 1.0, nu, t)


def _require_power_args(a: float, rho: float, nu: float, t: float) -> None:
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho!r}")
    if not nu > 0.0:
        raise DomainError(f"nu must be positive, got {nu!r}")
    if not t > a:
        raise DomainError(f"t must exceed the start point a={a!r}, got {t!r}")


@dataclass
class QuadratureWeights:
    """Lower-triangular convolution weights for the kernel (t-u)^(nu-1).

    Row j >= 1 is w[j,0] = a0[j-1], w[j,k] = d2[j-1-k] (0 < k < j), w[j,j] = c0;
    row 0 is zero.  Storage is O(n) (d2_hat is the rfft of d2).  Row j applied
    to f[0..j] approximates the order-nu integral at t_j, exactly on constants.
    ``apply`` convolves by FFT: its rounding error is bounded relative to the
    row's magnitude sum_k |w[j,k] f[k]|, not to each entry.
    """

    nu: float
    grid: UniformGrid
    c0: float
    a0: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    d2_hat: np.ndarray = field(repr=False)

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.n + 1)
        out[1:] = self.c0 * values[1:] + self.a0 * values[0]
        out[2:] += _causal_convolution(self.d2_hat, values[1:-1])
        return out


def _fft_size(m: int) -> int:
    """Even FFT length >= 2m - 1: m-term causal convolutions do not wrap."""
    return max(2, 1 << (2 * m - 2).bit_length())


def _causal_convolution(kernel_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """First len(x) terms of kernel * x, from the kernel's rfft (``_fft_size``)."""
    size = 2 * (len(kernel_hat) - 1)
    return np.fft.irfft(kernel_hat * np.fft.rfft(x, size), size)[: len(x)]


def _binomial_tails(m: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(m+1)^p - 2 m^p + (m-1)^p and (m-1)^p - m^(p-1) (m - p), for m >= 1.

    With T(x) = sum_{i>=2} C(p,i) x^i and x = 1/m they are m^p (T(x) + T(-x))
    and m^p T(-x), which the literal forms reach by cancelling ~m^2 and ~m
    of their operands; from max(_SERIES_CUT, ceil(p)) on, one pass sums the
    even and odd parts of T instead, to a few ulp.  Below that the literal
    forms cancel little: a0's two terms share a sign where m < p, and d2's
    largest operand is at most 4.5 times d2 (at m = 2, p = 2) for p >= 2.
    """
    d2, a0 = np.empty_like(m), np.empty_like(m)
    small = m < max(_SERIES_CUT, math.ceil(p))
    if p < 2.0:
        for j, (d2_j, a0_j) in enumerate(_start_tails(p), 1):
            d2[m == j], a0[m == j] = d2_j, a0_j
    else:  # the literal forms cancel at most ~9:1, and are exact at p = 2
        ms = m[small]
        d2[small] = (ms + 1.0) ** p - 2.0 * ms**p + (ms - 1.0) ** p
        a0[small] = (ms - 1.0) ** p - ms ** (p - 1.0) * (ms - p)
    mb = m[~small]
    x2 = 1.0 / (mb * mb)
    c = p * (p - 1.0) / 2.0  # C(p, 2i); even and odd / m are T's parts over x^2
    even, odd, xpow = np.full_like(mb, c), np.zeros_like(mb), np.ones_like(mb)
    for i in range(1, 14):
        odd = odd + c * (p - 2 * i) / (2 * i + 1) * xpow
        c = c * (p - 2 * i) * (p - 2 * i - 1) / ((2 * i + 1) * (2 * i + 2))
        xpow = xpow * x2
        even = even + c * xpow
    scale = mb ** (p - 2.0)
    d2[~small] = 2.0 * even * scale
    a0[~small] = (even - odd / mb) * scale
    return d2, a0


def _start_tails(p: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(d2, a0) of ``_binomial_tails`` at m = 1 and at m = 2, for 1 < p < 2.

    With q = p - 1, exact: d2(1) = 2^p - 2 = 2 expm1(q ln 2), a0(1) = q,

        d2(2) = 3^p - 2^(p+1) + 1 = q ln(27/16) + sum_{k>=2} (3 ln3^k - 4 ln2^k) q^k / k!,
        a0(2) = 1 - 2^q (1 - q)   = sum_{k>=1} (1 - ln2 / k) ln2^(k-1) q^k / (k-1)!,

    power series whose terms are all positive, so that fsum keeps them to a
    few ulp, where the literal forms cancel ~8/(0.52 q) and ~3/(0.31 q) of
    their operands (6.9e-14 off at p = 1.01).  A term that rises is the
    largest so far, so the loop stops only past the terms' peak.
    """
    q = p - 1.0
    l2, l3 = math.log(2.0), math.log(3.0)
    d2, a0 = [q * math.log(27.0 / 16.0)], [(1.0 - l2) * q]
    u, v = q * l3, q * l2  # (q ln3)^k / k! and (q ln2)^k / k!, at k = 1
    k = 1
    while 3.0 * u > 1e-17 * sum(d2) or q * v > 1e-17 * sum(a0):
        k += 1
        a0.append((1.0 - l2 / k) * q * v)
        u, v = u * (q * l3) / k, v * (q * l2) / k
        d2.append(3.0 * u - 4.0 * v)
    return (2.0 * math.expm1(q * l2), q), (math.fsum(d2), math.fsum(a0))


def _backward_diff_pow(m: np.ndarray, q: float) -> np.ndarray:
    """m^q - (m-1)^q via expm1/log1p (stable first difference)."""
    out = np.empty_like(m)
    first = m <= 1.0
    out[first] = 1.0
    rest = ~first
    if rest.any():
        mr = m[rest]
        out[rest] = -(mr**q) * np.expm1(q * np.log1p(-1.0 / mr))
    return out


def build_weights(grid: UniformGrid, nu: float) -> QuadratureWeights:
    """Product-trapezoidal weights for the order-nu integral on ``grid``.

    Storage is O(n), and no grid has more than grids.MAX_NODES steps, so
    these weights plus volterra.solve_volterra peak below 100 MB.  For
    nu = 1 the weights reduce to the composite trapezoidal rule.  Weights
    past double range (nu = 150 on 200 steps, or h^nu itself) raise
    DomainError, and so does a scale c0 = h^nu / Gamma(nu + 2) below the
    normal range (nu = 150 on 8 steps), where the weights it scales would
    lose their digits or vanish.
    """
    if not nu > 0.0:
        raise DomainError(f"nu must be positive, got {nu!r}")
    n = grid.n
    p = nu + 1.0
    try:
        c0 = grid.h**nu * reciprocal_gamma(nu + 2.0)
    except OverflowError:  # h^nu, refused below with the weights it scales
        c0 = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        d2, a0 = _binomial_tails(np.arange(1.0, n + 1.0), p)
        d2, a0 = c0 * d2[:-1], c0 * a0
    if not (np.isfinite(d2).all() and np.isfinite(a0).all()):
        raise DomainError(f"the order-{nu!r} weights on {grid} leave double range")
    if c0 < sys.float_info.min:  # every tail is positive: a0[0] = nu
        raise DomainError(f"the order-{nu!r} weights on {grid} underflow: "
                          f"their scale h^nu / Gamma(nu + 2) is {c0!r}")
    d2_hat = np.fft.rfft(d2, _fft_size(n - 1))
    return QuadratureWeights(nu=nu, grid=grid, c0=c0, a0=a0, d2=d2, d2_hat=d2_hat)


def rl_integral_numeric(
    f: GridFunction, nu: float, weights: QuadratureWeights | None = None
) -> GridFunction:
    """Order-nu fractional integral of the sampled function f.

    Node 0 is exactly 0 (the integral over an empty interval).  Second-order
    accurate for smooth data; assumes f is continuous on the window.  For
    data that start like (t-a)^sigma, 0 < sigma < 1, the max-norm error sits
    at the first node and scales like h^(nu+sigma) while nu + sigma < 2
    (Diethelm, Ford & Freed, Numer. Algorithms 36, 2004); away from the
    start it is smaller.
    """
    if f.singular_start:
        raise DomainError(
            "numeric integral needs a value at t = a; got a singular start node"
        )
    weights = _resolve_weights(f.grid, nu, weights)
    out = weights.apply(f.values)
    out[0] = 0.0
    return GridFunction(grid=f.grid, values=out)


def rl_derivative_numeric(f: GridFunction, mu: float) -> GridFunction:
    """Order-mu fractional derivative (0 < mu < 1) of the sampled function.

    Exact Riemann-Liouville derivative of the piecewise-linear interpolant
    of f (L1 form).  Node 0 sits on the kernel singularity and is flagged
    undefined rather than extrapolated.
    """
    if not 0.0 < mu < 1.0:
        raise UnsupportedOrderError(
            f"derivative order must satisfy 0 < mu < 1, got {mu!r}"
        )
    if f.singular_start:
        raise DomainError(
            "numeric derivative needs a value at t = a; got a singular start node"
        )
    grid = f.grid
    n = grid.n
    q = 1.0 - mu
    bd = _backward_diff_pow(np.arange(1.0, n + 1.0), q)
    c_conv = reciprocal_gamma(2.0 - mu) * grid.h ** (-mu)
    c_start = reciprocal_gamma(1.0 - mu)
    df = np.diff(f.values)
    dt = grid.h * np.arange(1, n + 1)
    out = np.full(n + 1, math.nan)
    conv = _causal_convolution(np.fft.rfft(bd, _fft_size(n)), df)
    out[1:] = f.values[0] * dt ** (-mu) * c_start + c_conv * conv
    return GridFunction(grid=grid, values=out, singular_start=True)


def _resolve_weights(
    grid: UniformGrid, nu: float, weights: QuadratureWeights | None
) -> QuadratureWeights:
    if weights is None:
        return build_weights(grid, nu)
    if weights.grid != grid:
        raise GridMismatchError("precomputed weights were built for another grid")
    if weights.nu != nu:
        raise GridMismatchError(
            f"precomputed weights are for nu={weights.nu}, requested nu={nu}"
        )
    return weights
