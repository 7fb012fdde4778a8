"""Two-parameter Mittag-Leffler function E[alpha, beta](z) on the real line.

E[alpha, beta](z) = sum_{k>=0} z^k / Gamma(alpha k + beta), alpha, beta > 0.

The relaxation solutions of this package evaluate E at -c^nu (t-a)^nu <= 0,
where the series alternates and cancels once |z| is moderate.  ``ml_eval``
gives a node the first regime below that covers it and certifies its value
to ~1e-13 relative:

1. Series, for z >= -10 alpha, and for every z when alpha >= 2:
   Kahan-compensated double-precision summation.  A rounding estimate
   built from the largest partial sum and the term count decides whether
   the result can be trusted.  It is kept
   wherever it certifies, because there it is accurate to a few ulp, which
   the Neumann-envelope checks at |z| <= 1 rely on.  For z = -x < -1 and
   alpha < 2 the series' peak term T_k, near k = x^(1/alpha)/alpha, gives
   a floor eps (4 + 2 sqrt(k)) T_k on that estimate for every pass that
   can certify.  Where a cheap guess of |E| says the floor may exceed
   1e-13 |E|, the contour below is evaluated first, and its value is
   returned without the pass once the floor exceeds 1.02e-13 times it: the
   pass provably fails there.  The skip never changes a value.
2. Asymptotic, for z < -10 alpha and alpha < 2: the algebraic expansion

       E[alpha, beta](z) ~ -sum_{k>=1} z^-k / Gamma(beta - alpha k)

   with optimal truncation, certified by the smallest retained term plus,
   for alpha >= 0.9, a bound on the oscillatory exponential mode the
   algebraic terms cannot see (for alpha = 1 every term vanishes while E
   is e^z, so the certificate, not the expansion, decides).
3. Contour, for z = -x < 0 and alpha < 2: the Bromwich integral

       E[alpha, beta](-x) = 1/(2 pi i) int_C e^s s^(alpha-beta)/(s^alpha + x) ds

   on the parabola s = mu (1 + iu)^2 (Weideman & Trefethen, Math. Comp. 76,
   2007), by the trapezoid rule in u with step _CONTOUR_STEP.  The contour
   data c = w e^s s^(alpha-beta) ds/du and s^alpha depend only on
   (alpha, beta, mu) and are cached, so a node costs one complex addition
   and division: Im(c / (s^alpha + x)).  The branch cut on the negative
   axis lies on Im u = 1 for every mu.  For 1 < alpha < 2 the poles
   s^alpha = -x, at s = x^(1/alpha) e^(+-i pi/alpha), are kept at least
   _POLE_MARGIN from the contour in the u-plane by lowering mu where
   needed, and the residues (2/alpha) Re(e^s s^(1-beta)) of the poles
   outside it are added (Garrappa, SIAM J. Numer. Anal. 53, 2015).  The
   certificate is _CONTOUR_ROUNDING times the sum of |terms| and the
   residue's scale, plus the discretisation error of the poles, relative
   to |value|; it fails next to a zero of E
   (e.g. E[0.7, 0.5] at x = 1.6535) and where E is exponentially small
   (alpha = beta = 1 beyond x ~ 8).
4. mpmath series, for the few nodes no regime above certifies: the series
   is re-summed at a working precision sized to the observed cancellation
   (digits lost = log10(max |term| / |sum|), or from the peak term and an
   uncertified contour value), escalating until the result carries >= 17
   significant digits.  The arguments alpha k + beta are formed in mpmath:
   a one-ulp error in a Gamma argument, times a term peak of 1e20, would
   otherwise survive as garbage that the precision check still accepts.
   Far out, where even that is infeasible, SeriesConvergenceError is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .gammafn import reciprocal_gamma

__all__ = [
    "MLParams",
    "MLResult",
    "SeriesConvergenceError",
    "MLOverflowError",
    "ml_series",
    "ml_eval",
    "ml_eval_detailed",
    "series_terms",
]

_EPS = 2.220446049250313e-16
# Internal relative-accuracy target; a decade under the tightest downstream
# tolerance (1e-12 in the classical-limit check).
_TARGET_REL = 1e-13
_CERT_SAFETY = 10.0
# Stopping tolerance of the double pass, relative to max(|partial sum|, 1),
# and the term cap of every series pass.
_SERIES_TOL = 1e-16
_MAX_TERMS = 10_000
# Term cap of the asymptotic expansion, used on z < -10 alpha for alpha < 2:
# the series' term peak is governed by Gamma(alpha k + beta), and for
# alpha >= 2 the series converges so fast that it covers the whole axis.
_ASYMPTOTIC_TERMS = 20
_MAX_DPS = 1200
_MP_ROUNDS = 6
# exp overflows past ~709; E[alpha](z) ~ exp(z^(1/alpha))/alpha for z -> +inf.
_EXP_OVERFLOW = 708.0
# Contour quadrature: parabola scale, trapezoid step in u, and the decay
# e^(mu (1 - U^2)) = e^-_CONTOUR_LOG_EPS of e^s at the last node u = U.  The
# cut at Im u = 1 leaves a discretisation error near e^(-2 pi / h) = e^-63.
_CONTOUR_MU = 0.25
_CONTOUR_STEP = 0.1
_CONTOUR_LOG_EPS = 45.0
# Poles stay this far from the contour in the u-plane; their discretisation
# error e^(-2 pi margin / h) is ~4e-17 of their residue.
_POLE_MARGIN = 0.6
# Rounding of the contour sum, as a multiple of the sum of |terms|: measured
# against exact references at most 2.32 eps over the 17 581 distinct contour
# values of a closed_form and a verify benchmark round (at E[0.5](-1.958)),
# and at most 2.14 eps on a scan of alpha in [0.1, 1.9], beta in
# {alpha, 0.5, 1, 1.3, 1.5, 2}.
_CONTOUR_ROUNDING = 4.0 * _EPS
# A certified double pass at z would lie within ~1e-13 of |E| and so of the
# quadrature's value; a floor on its rounding estimate this far above
# 1e-13 |value| proves that it fails.
_SKIP_MARGIN = 1.02


class _LazyMpmath:
    """Forwards attribute access to mpmath, which is imported on first use.

    Only nodes no double-precision regime certifies reach mpmath, so
    ``import fracrelax`` does not load it.
    """

    def __getattr__(self, attr):
        import mpmath

        return getattr(mpmath, attr)


# Every mpmath call of this module goes through this one name, so a stand-in
# put in its place (a tracer, a counting spy) sees them all.
mp = _LazyMpmath()


class SeriesConvergenceError(ArithmeticError):
    """Stopping rule did not fire within the permitted number of terms."""


class MLOverflowError(OverflowError):
    """E[alpha, beta](z) exceeds double range for large positive z."""


@dataclass(frozen=True)
class MLParams:
    """Parameter pair (alpha, beta), both restricted to positive reals."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")


@dataclass(frozen=True)
class MLResult:
    value: float
    regime: str  # "series", "asymptotic" or "contour"
    terms: int  # series/asymptotic terms, or contour nodes


def series_terms(params: MLParams, z: float, max_k: int) -> Iterator[float]:
    """Yield the series terms z^k / Gamma(alpha k + beta), k = 0..max_k."""
    zk = 1.0
    for k in range(max_k + 1):
        yield zk * reciprocal_gamma(params.alpha * k + params.beta)
        zk *= z


@lru_cache(maxsize=64)
def _series_coefficients(alpha: float, beta: float, size: int) -> tuple[float, ...]:
    """1/Gamma(alpha k + beta) for k < size, shared by every double pass."""
    return tuple(reciprocal_gamma(alpha * k + beta) for k in range(size))


def _sum_double(params: MLParams, z: float):
    """Kahan-compensated double pass on Python floats.

    Returns (value, terms_used, max_magnitude) or (None, k, max_magnitude)
    when a power overflowed (caller escalates or reports overflow).  The
    coefficients come from a table of 64 4^j entries.
    """
    tol, max_terms = _SERIES_TOL, _MAX_TERMS
    s = comp = max_mag = abs_s = 0.0
    zk = 1.0
    grows = abs(z) > 1.0  # only then can z^k overflow
    alpha, beta = params.alpha, params.beta
    size = 64
    coeffs = _series_coefficients(alpha, beta, size)
    for k in range(max_terms + 1):
        if k == size:
            size *= 4
            coeffs = _series_coefficients(alpha, beta, size)
        term = zk * coeffs[k]
        at = abs(term)
        if k >= 1 and at < tol * (abs_s if abs_s > 1.0 else 1.0):
            return s, k, max_mag
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        abs_s = abs(s)
        if abs_s > max_mag:
            max_mag = abs_s
        if at > max_mag:
            max_mag = at
        zk *= z
        if grows and math.isinf(zk):
            return None, k + 1, max_mag
    raise SeriesConvergenceError(
        f"series for E[{alpha}, {beta}]({z}) did not satisfy the stopping "
        f"rule within {max_terms} terms"
    )


_MP_RGAMMA_CACHE: dict[tuple[float, float, int, int], "mp.mpf"] = {}


def _mp_rgamma(alpha: float, beta: float, k: int):
    """1/Gamma(alpha k + beta) with the argument formed exactly in mpmath.

    Keyed by the exact inputs and the binary precision; worst case under
    concurrent callers is a recomputation, never a wrong value.
    """
    key = (alpha, beta, k, mp.mp.prec)
    v = _MP_RGAMMA_CACHE.get(key)
    if v is None:
        if len(_MP_RGAMMA_CACHE) > 400_000:
            _MP_RGAMMA_CACHE.clear()
        v = mp.rgamma(mp.mpf(alpha) * k + beta)
        _MP_RGAMMA_CACHE[key] = v
    return v


def _sum_mp(params: MLParams, z: float, dps: int):
    """Extended-precision pass; returns (value, terms, digits_lost).

    The stopping tolerance follows the working precision rather than
    _SERIES_TOL: with heavy cancellation the partial sums pass through
    magnitudes far above the limit, and a fixed 1e-16 cut would truncate the
    tail at an absolute level that can exceed the result itself.
    """
    alpha, beta = params.alpha, params.beta
    with mp.workdps(dps):
        zm = mp.mpf(z)
        s = mp.mpf(0)
        zk = mp.mpf(1)
        max_t = mp.mpf(0)
        stop = mp.mpf(10) ** (-(dps - 3))
        for k in range(_MAX_TERMS + 1):
            term = zk * _mp_rgamma(alpha, beta, k)
            if k >= 1 and abs(term) < stop * max(1, abs(s)):
                lost = (
                    float(mp.log10(max_t / abs(s)))
                    if s != 0 and max_t > 0
                    else float(dps)
                )
                return float(s), k, max(lost, 0.0)
            s += term
            at = abs(term)
            if at > max_t:
                max_t = at
            zk *= zm
    raise SeriesConvergenceError(
        f"series for E[{alpha}, {beta}]({z}) did not satisfy the stopping "
        f"rule within {_MAX_TERMS} terms at {dps} digits"
    )


def _peak_log10_term(params: MLParams, z: float) -> float:
    """log10 of the largest series term magnitude, estimated analytically."""
    az = abs(z)
    if az <= 1.0:
        return 0.0
    alpha, beta = params.alpha, params.beta
    k_star = az ** (1.0 / alpha) / alpha
    arg = alpha * k_star + beta
    if arg > 1e15:
        return math.inf
    return (k_star * math.log(az) - math.lgamma(arg)) / math.log(10.0)


def _series_double(params: MLParams, z: float):
    """Double pass with its rounding certificate.

    Returns (value, terms_used, digits_lost); value is None when the pass
    overflowed or cannot be trusted to ~_TARGET_REL relative, and
    digits_lost then sizes the mpmath re-summation.  Raises MLOverflowError
    when E itself exceeds double range.
    """
    if z > 1.0 and math.log(z) / params.alpha > math.log(_EXP_OVERFLOW):
        raise MLOverflowError(
            f"E[{params.alpha}, {params.beta}]({z}) exceeds double range"
        )
    res, k, max_mag = _sum_double(params, z)
    if res is None:
        if z > 0.0:
            raise MLOverflowError(
                f"E[{params.alpha}, {params.beta}]({z}) exceeds double range"
            )
        return None, k, _peak_log10_term(params, z)
    # Rounding estimate: additions cost ~eps * max partial sum, the term
    # recurrence another ~eps * k/2 relative per term.
    est = _EPS * (4.0 + 2.0 * math.sqrt(k)) * max(max_mag, 1.0)
    if res != 0.0 and est <= _TARGET_REL * abs(res):
        return res, k, 0.0
    lost = math.log10(max(max_mag, 1.0) / abs(res)) if res != 0.0 else 17.0
    return None, k, lost


def _pass_floor(params: MLParams, z: float) -> float:
    """Floor on the rounding estimate of a certifying double pass at z = -x.

    The term sizes T_j = x^j / Gamma(alpha j + beta) are log-concave in j:
    they rise to one peak and then fall.  With k the better of
    floor(x^(1/alpha)/alpha) and the index after it, near the peak, the
    floor is eps (4 + 2 sqrt(k)) T_k, used only where x > 1 and T_k >= 1
    (else 0 is returned):

    * a pass that adds term k has max_mag >= T_k and more than k terms;
    * a pass that stops while its terms still rise has summed less than
      _MAX_TERMS _SERIES_TOL = 1e-12 of max(|E|, 1), while its estimate is
      at least 6 eps: it cannot certify;
    * a pass that stops after the peak but before k has T_k below
      _SERIES_TOL max(|E|, 1), so |E| > T_k / _SERIES_TOL, far above the
      |E| < 1e-2 (4 + 2 sqrt(k)) T_k at which the floor rules a pass out.

    The factor 1 - 1e-9 covers the rounding of T_k and of the pass's terms.
    """
    alpha, beta = params.alpha, params.beta
    if z >= -1.0 or alpha >= 2.0:
        return 0.0
    lx = math.log(-z)
    k_star = math.exp(lx / alpha) / alpha
    if k_star > _MAX_TERMS:
        return 0.0
    k = math.floor(k_star)
    log_t = k * lx - math.lgamma(alpha * k + beta)
    up = (k + 1) * lx - math.lgamma(alpha * (k + 1) + beta)
    if up > log_t:
        k, log_t = k + 1, up
    if log_t < 0.0:
        return 0.0
    t_k = math.exp(min(log_t, 700.0))
    return _EPS * (4.0 + 2.0 * math.sqrt(k)) * t_k * (1.0 - 1e-9)


@lru_cache(maxsize=64)
def _size_guess(alpha: float, beta: float) -> tuple[float, float, float]:
    """(a, b, c) with |E[alpha, beta](-x)| ~ a / (b + c x) for x > 1.

    For alpha < 1, 1/Gamma(beta) times the lower bound
    1/(1 + Gamma(1-alpha) x) of E[alpha](-x); for alpha >= 1, the leading
    asymptotic term |1/Gamma(beta-alpha)| / x.
    """
    if alpha < 1.0:
        return reciprocal_gamma(beta), 1.0, math.gamma(1.0 - alpha)
    return abs(reciprocal_gamma(beta - alpha)), 0.0, 1.0


def _pass_looks_doomed(params: MLParams, x: float, floor: float) -> bool:
    """Cheap guess whether ``floor`` exceeds 1e-13 |E[alpha, beta](-x)|.

    It only decides whether the quadrature is evaluated before the double
    pass or after it fails, never which value is returned.
    """
    a, b, c = _size_guess(params.alpha, params.beta)
    return floor * (b + c * x) > _TARGET_REL * a


def _series_mp(params: MLParams, z: float, lost: float):
    """Escalating mpmath passes, starting from ``lost`` digits of headroom.

    Returns (value, terms_used) accurate to ~_TARGET_REL relative, or raises
    SeriesConvergenceError.
    """
    if lost + 30.0 > _MAX_DPS:
        raise SeriesConvergenceError(
            f"series for E[{params.alpha}, {params.beta}]({z}) would need "
            f"~{lost:.0f} digits of cancellation headroom"
        )
    dps = max(25, int(17 + lost + 8))
    for _ in range(_MP_ROUNDS):
        if dps > _MAX_DPS:
            raise SeriesConvergenceError(
                f"series for E[{params.alpha}, {params.beta}]({z}) exceeded "
                f"the {_MAX_DPS}-digit working-precision cap"
            )
        val, k, lost = _sum_mp(params, z, dps)
        if dps - lost >= 17.0:
            return val, k
        dps = int(lost + 27)
    raise SeriesConvergenceError(
        f"series for E[{params.alpha}, {params.beta}]({z}) did not stabilise "
        f"after {_MP_ROUNDS} precision escalations"
    )


@lru_cache(maxsize=32)
def _contour_nodes(alpha: float, beta: float, mu: float):
    """Contour data (c, e) for the parabola of scale mu.

    With s = mu (1 + iu)^2 and trapezoid weight w (halved at u = 0),
    c = w e^s s^(alpha-beta) ds/du and e = s^alpha, so that the node u
    contributes Im(c / (e + x)); the symmetry s(-u) = conj(s(u)) folds u < 0
    onto u > 0, hence the weight h/pi instead of h/(2 pi).  log s is formed
    as log mu + 2 log(1 + iu), the principal branch since
    |arg(1 + iu)| < pi/2.
    """
    h = _CONTOUR_STEP
    u = h * np.arange(math.ceil(math.sqrt(1.0 + _CONTOUR_LOG_EPS / mu) / h) + 1)
    one_iu = 1.0 + 1j * u
    log_s = math.log(mu) + 2.0 * np.log(one_iu)
    w = np.full(u.size, h / math.pi)
    w[0] *= 0.5
    c = w * np.exp(mu * one_iu * one_iu + (alpha - beta) * log_s) * (2j * mu) * one_iu
    e = np.exp(alpha * log_s)
    c.setflags(write=False)  # shared by every caller through the cache
    e.setflags(write=False)
    return c, e


def _contour(params: MLParams, x: float):
    """E[alpha, beta](-x), x > 0, alpha < 2, on the parabolic contour.

    Returns (value, relative certificate, contour nodes).  For 1 < alpha < 2
    the poles at s_p = x^(1/alpha) e^(+-i pi/alpha) sit at Im u = 1 - c
    sqrt(|s_p|/mu), c = cos(pi/(2 alpha)); where that is within _POLE_MARGIN
    of 0, mu is lowered by factors of sqrt(2) until the poles lie at least
    the margin outside the contour.
    """
    alpha, beta = params.alpha, params.beta
    mu = _CONTOUR_MU
    residue = residue_scale = disc = 0.0
    if alpha > 1.0:
        r = x ** (1.0 / alpha)
        c = math.cos(0.5 * math.pi / alpha)
        if abs(c * math.sqrt(r / mu) - 1.0) < _POLE_MARGIN:
            # largest mu_0 2^(-l/2) with c sqrt(r/mu) >= 1 + margin
            wanted = r * (c / (1.0 + _POLE_MARGIN)) ** 2
            level = math.ceil(2.0 * math.log2(_CONTOUR_MU / wanted))
            mu = _CONTOUR_MU * 2.0 ** (-0.5 * level)
        dist = 1.0 - c * math.sqrt(r / mu)
        theta = math.pi / alpha
        size = (2.0 / alpha) * math.exp(r * math.cos(theta)) * r ** (1.0 - beta)
        if dist < 0.0:
            residue = size * math.cos(r * math.sin(theta) + (1.0 - beta) * theta)
            # e^(r cos theta) and the phase carry ~r eps of rounding each
            residue_scale = size * (1.0 + r)
        damp = math.exp(-2.0 * math.pi * abs(dist) / _CONTOUR_STEP)
        disc = size * damp / (1.0 - damp)
    c, e = _contour_nodes(alpha, beta, mu)
    q = e + x
    t = np.divide(c, q, out=q).imag
    value = float(t.sum()) + residue
    err = _CONTOUR_ROUNDING * (float(np.abs(t).sum()) + residue_scale) + disc
    cert = err / abs(value) if value != 0.0 else math.inf
    return value, cert, t.size


@lru_cache(maxsize=32)
def _asymptotic_coefficients(alpha: float, beta: float, cap: int) -> tuple[float, ...]:
    """1/Gamma(beta - alpha k) for k = 1..cap; exactly 0.0 at the poles."""
    return tuple(reciprocal_gamma(beta - alpha * k) for k in range(1, cap + 1))


def _asymptotic_negative(params: MLParams, z: float, cap: int):
    """Algebraic expansion -sum_{k>=1} z^-k / Gamma(beta - alpha k).

    Optimal truncation: include terms while their magnitude keeps falling
    (pole terms are exactly zero and skipped by the monotonicity check), at
    most ``cap`` terms.  Returns (value, certified_relative_error, terms) or
    None when no nonzero term exists (e.g. alpha = 1, where the expansion
    carries no information).
    """
    alpha, beta = params.alpha, params.beta
    zi = 1.0 / z
    zk = zi
    s = 0.0
    last_nz = None
    min_nz = None
    used = 0
    for k, coeff in enumerate(_asymptotic_coefficients(alpha, beta, cap), 1):
        term = zk * coeff
        at = abs(term)
        if at > 0.0:
            if last_nz is not None and at >= last_nz:
                break
            last_nz = at
            min_nz = at if min_nz is None else min(min_nz, at)
        s += term
        used = k
        zk *= zi
    if min_nz is None:
        return None
    value = -s
    err = min_nz
    if alpha >= 0.9:
        # Oscillatory exponential mode, decaying on the negative axis for
        # 1 < alpha < 2 and equal to e^z at alpha = 1; invisible to the
        # algebraic terms, so it must enter the certificate explicitly.
        exponent = abs(z) ** (1.0 / alpha) * math.cos(math.pi / alpha)
        if exponent > -700.0:
            err += (2.0 / alpha) * abs(z) ** ((1.0 - beta) / alpha) * math.exp(
                exponent
            )
    if value == 0.0:
        return None
    return value, err / abs(value), used


def ml_series(params: MLParams, z: float) -> float:
    """Series evaluation of E[alpha, beta](z) (any real z it can resolve).

    The double pass, then escalating mpmath passes where it does not
    certify; raises SeriesConvergenceError or MLOverflowError.
    """
    value, _, lost = _series_double(params, z)
    if value is None:
        value, _ = _series_mp(params, z, lost)
    return value


def _quadrature(params: MLParams, z: float):
    """The certified contour value at z, as (MLResult or None, lost).

    An uncertified contour value yields None, with the digits the series
    cancels by (from its peak term and the contour's value) in ``lost``:
    next to a zero of E the double pass's value is rounding noise, while the
    contour's still has the right magnitude.
    """
    if not (z < 0.0 and params.alpha < 2.0):
        return None, None
    value, cert, nodes = _contour(params, -z)
    if cert <= _TARGET_REL:
        return MLResult(value, "contour", nodes), None
    if value == 0.0:
        return None, None
    return None, _peak_log10_term(params, z) - math.log10(abs(value))


def ml_eval_detailed(params: MLParams, z: float) -> MLResult:
    """Evaluate E[alpha, beta](z) and report the regime and terms used."""
    z = float(z)  # a numpy scalar would slow every term of the double pass
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    inner = params.alpha >= 2.0 or z >= -10.0 * params.alpha
    quadrature = None  # (MLResult or None, lost) once evaluated
    if inner:
        floor = _pass_floor(params, z)
        if floor > 0.0 and _pass_looks_doomed(params, -z, floor):
            quadrature = _quadrature(params, z)
            quad = quadrature[0]
            if quad is not None and floor > _SKIP_MARGIN * _TARGET_REL * abs(quad.value):
                return quad
        value, terms, lost = _series_double(params, z)
        if value is not None:
            return MLResult(value, "series", terms)
    else:
        asym = _asymptotic_negative(params, z, _ASYMPTOTIC_TERMS)
        if asym is not None and _CERT_SAFETY * asym[1] <= _TARGET_REL:
            return MLResult(asym[0], "asymptotic", asym[2])
    quad, quad_lost = quadrature or _quadrature(params, z)
    if quad is not None:
        return quad
    if not inner:
        value, terms, lost = _series_double(params, z)
        if value is not None:
            return MLResult(value, "series", terms)
    elif quad_lost is not None:
        lost = quad_lost
    value, terms = _series_mp(params, z, lost)
    return MLResult(value, "series", terms)


def ml_eval(params: MLParams, z: float) -> float:
    """E[alpha, beta](z) for real z; accurate to ~1e-13 relative in contract."""
    return ml_eval_detailed(params, z).value
