"""Two-parameter Mittag-Leffler function E[alpha, beta](z) on the real line.

E[alpha, beta](z) = sum_{k>=0} z^k / Gamma(alpha k + beta), alpha, beta > 0.

The relaxation solutions of this package evaluate E at -c^nu (t-a)^nu <= 0,
where the series alternates and cancels once |z| is moderate.  ``ml_eval``
gives a node the first of three regimes that certifies its value to ~1e-13
relative:

1. Series, for z >= -10 alpha, and for every z when alpha >= 2:
   Kahan-compensated double-precision summation, kept wherever its rounding
   estimate (largest partial sum and term count) certifies, because there
   it is accurate to a few ulp, which the Neumann-envelope checks at
   |z| <= 1 rely on.  In a curve, a pass at z < 0 that regime 2 can take
   stops at the first checked term that proves its estimate cannot
   certify: past the terms' peak, where the partial sums are bounded, or
   above 1/Gamma(beta), which bounds E where it is completely monotone
   (``_sum_double_many``).
2. Contour, for z = -x < 0 and alpha < 2: the Bromwich integral

       E[alpha, beta](-x) = 1/(2 pi i) int_C e^s s^(alpha-beta)/(s^alpha + x) ds

   on the parabola s = mu (1 + iu)^2 (Weideman & Trefethen, Math. Comp. 76,
   2007), by the trapezoid rule in u.  The contour data depend only on
   (alpha, beta, mu) and are cached.  For 1 < alpha < 2 the residues of the
   poles s^alpha = -x outside the contour are added (Garrappa, SIAM J.
   Numer. Anal. 53, 2015), per node in scalar math.  The certificate is the
   rounding of the sum and the poles' discretisation error; it fails next
   to a zero of E (e.g. E[0.7, 0.5] at x = 1.6535) and where E is
   exponentially small (alpha = beta = 1 beyond x ~ 8), where a node takes
   E[1, 1](-x) = e^-x from math.exp, within one ulp.  The far form
   splits m <= _MAX_TERMS algebraic terms off exactly; the contour
   evaluates only the remainder z^-m E[alpha, beta - m alpha](z), whose
   error x^-m scales.  m >= 2 past x = 10 alpha, and on the whole axis the
   remainder has beta - alpha < 3.  Where all of it underflows, a
   log-space bound below 2^-1075 certifies 0.0.
3. Extended-precision series, for the few nodes neither regime certifies
   (for z < -10 alpha and alpha < 2 the double pass is not tried).  The
   first pass's working precision is sized to the cancellation the peak
   term shows (``_peak_digits``), and doubled until a pass keeps 17
   significant digits.  A pass sums to a term below 10^-(dps-3) of its
   partial sum on Python integers, rounded as mpf arithmetic rounds, with
   1/Gamma(alpha k + beta) from mpmath.
   Past _MAX_DPS digits SeriesConvergenceError is raised.  One estimate,
   ``_peak_term``, gives that peak term and the overflow rule
   (``_overflows``): for z > 0, E exceeds double range where its peak term
   does, which is refused before any pass, or where a pass's value does.

One staging, ``_summed``, forms regimes 1 and 2 for a curve, and a lone
value is the one-node curve: two or more double passes are summed in
lockstep, and the nodes no pass certifies take the contour together, one
2-D complex division per block of nodes that share mu.  Every node keeps
the bits of the scalar forms; ``ml_eval_detailed`` reads its stage once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gammafn import reciprocal_gamma

__all__ = [
    "MLParams",
    "MLResult",
    "SeriesConvergenceError",
    "MLOverflowError",
    "ml_eval",
    "ml_eval_detailed",
    "ml_eval_many",
]

_EPS = 2.220446049250313e-16
# Internal relative-accuracy target; a decade under the tightest downstream
# tolerance (1e-12 in the classical-limit check).
_TARGET_REL = 1e-13
# Stopping tolerance of the double pass, relative to max(|partial sum|, 1),
# and the term cap of every series pass.
_SERIES_TOL = 1e-16
_MAX_TERMS = 10_000
# The lockstep kernel's stop rule: a pass stops once its rounding estimate
# exceeds _TARGET_REL of a bound on its value by _PEAK_MARGIN (past the
# terms' peak) or by _CM_MARGIN (where E is completely monotone), tested at
# every _STOP_EVERY-th term.  Either margin at 0.5 stops certifying passes
# (2 306 or 488) in the 40 000-pass scan of tests/test_mittag_leffler.py.
# One closed_form round's kernel took 20.2, 18.0, 16.4, 15.3, 16.1 ms at 1,
# 2, 4, 8, 16, and 26.3 ms with no rule (best of 27, 2 shared cores).
_PEAK_MARGIN = 2.0
_CM_MARGIN = 1.01
_STOP_EVERY = 8
# Algebraic terms the far form splits off: _FAR_TERMS past z = -10 alpha, and
# enough that beta' - alpha < _FAR_MAX_EXCESS.  The contour's certificate,
# measured to hold up to beta - alpha = 4, at 26.4 passed a value 1e37 off.
_FAR_TERMS = 2
_FAR_MAX_EXCESS = 3.0
_MAX_DPS = 1200
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
# Rounding of a far-form head term -z^-k / Gamma(beta - alpha k), relative to
# it: 1/math.gamma errs by <= 4.4 eps on 60 003 points of [-4, 170], 1/x^k
# and the product add ~3 eps.
_HEAD_ROUNDING = 8.0 * _EPS
# A positive value below e^-_UNDERFLOW_LOG rounds to 0.0: the double
# 1075 ln 2 lies above the real one, where e^-x = 2^-1075.
_UNDERFLOW_LOG = 1075.0 * math.log(2.0)
# Rows of one 2-D contour division (at 136 nodes ~0.28 MB, plus as much for
# numpy's broadcast buffer); and the nodes of a curve whose contour values
# are formed and held at once.  More of either raises the peak memory; 128
# rows took a sixth less contour time per closed_form round than 32, and
# 256 or 512 no less than 128.
_CONTOUR_ROWS = 128
_CURVE_BLOCK = 512


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
    """E[alpha, beta](z > 0) exceeds double range: its peak term or mpmath value does."""


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
    regime: str  # "series" (double or mpmath) or "contour" (with its far form)
    terms: int  # series terms, or contour nodes

    def __init__(self, value: float, regime: str, terms: int):
        # one record per node of a curve: filling __dict__ costs half the
        # generated __init__, which calls object.__setattr__ per field
        fields = self.__dict__
        fields["value"] = value
        fields["regime"] = regime
        fields["terms"] = terms


@lru_cache(maxsize=64)
def _series_coefficients(alpha: float, beta: float, size: int) -> tuple[float, ...]:
    """1/Gamma(alpha k + beta) for k < size, shared by every double pass."""
    return tuple(reciprocal_gamma(alpha * k + beta) for k in range(size))


def _sum_double(params: MLParams, z: float):
    """Kahan-compensated double pass on Python floats: (value, terms_used,
    max_magnitude), the value None where a power overflowed, and terms_used
    None too where the pass did not stop within _MAX_TERMS terms.  The
    coefficients come from a table of 64 4^j entries."""
    tol = _SERIES_TOL
    s = comp = max_mag = abs_s = 0.0
    zk = 1.0
    grows = abs(z) > 1.0  # only then can z^k overflow
    alpha, beta = params.alpha, params.beta
    size = 64
    coeffs = _series_coefficients(alpha, beta, size)
    for k in range(_MAX_TERMS + 1):
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
    return None, None, max_mag


def _sum_double_many(params: MLParams, zs: np.ndarray):
    """``_sum_double`` at every finite z of ``zs``, bitwise, in lockstep,
    except that a pass which provably cannot certify stops early.

    Returns arrays over ``zs``: the value (nan for None), the terms (0 for
    None; for a pass the rule below stopped, the term it stopped at), the
    max magnitude, and whether the rule stopped the pass.  Term k is one
    set of numpy operations over the passes still running; IEEE addition,
    multiplication and abs round as on Python floats, and fmax ignores a
    NaN as ``_sum_double``'s comparisons do, so every pass that completes
    gives ``_sum_double``'s fields.  A finished pass keeps its buffer slot,
    with a NaN power and max magnitude that fail every later test, until
    half of the slots are finished; then the live ones are compacted.  From
    the term where the largest |z| could reach 2^1024, np.isinf flags
    overflow into the contiguous D (numpy 2.4.6 misflags strided bools).

    A pass at z < 0 that ``_quadrature`` can take (``_heads``) stops at the
    first term k, of every _STOP_EVERY-th, that proves it cannot certify.
    With s_k the partial sum before term T_k, M_k the max magnitude so far
    and e_k = eps (4 + 2 sqrt(k)), a pass that stopped at term m >= k would
    certify only if e_m max(M_m, 1) <= _TARGET_REL |s_m|; the left side is
    at least e_k max(M_k, 1).

    (i) Past the peak: e_k M_k > _PEAK_MARGIN _TARGET_REL (|s_k| + |T_k|).
        |T_j| = x^j / Gamma(alpha j + beta) is log-concave in j (lgamma is
        convex), so it rises to one peak and then falls.  While it rises,
        the alternating partial sums obey |s_(j+1)| <= |T_j| (by induction:
        s_j has the sign of T_(j-1)), so M_k = |T_(k-1)|.  Up to _MAX_TERMS
        terms e_k < 0.23 _PEAK_MARGIN _TARGET_REL, so the rule puts |T_k|
        below 0.23 M_k: past the peak, with room for the terms' rounding
        (~k eps relative).  From there the terms fall and alternate, so
        every later partial sum lies between s_k and s_k + T_k, and
        |s_m| <= |s_k| + |T_k| up to the sum's rounding, which the margin 2
        leaves room for.  Then e_m max(M_m, 1) >= e_k M_k > _TARGET_REL |s_m|.
    (ii) Completely monotone: alpha <= 1, beta >= alpha and
        e_k max(M_k, 1) > _CM_MARGIN _TARGET_REL T_0.  There E[alpha,
        beta](-x) is completely monotone in x (Pollard, Bull. Amer. Math.
        Soc. 54, 1948, for beta = 1; Schneider, Expo. Math. 14, 1996), so
        0 < E <= E(0) = 1/Gamma(beta) = T_0, and a pass whose value is
        within 1% of T_0 of E has _TARGET_REL |s_m| < e_k max(M_k, 1).

    No stop m >= k certifies, so the unchecked terms change no value: a
    doomed pass left running meets the rule later, or completes and fails
    ``_certifies``.  Every pass at -10 alpha <= z < 0, alpha < 2, completes
    long before _MAX_TERMS (its terms there fall below e^-5000), so no pass
    the rule may stop is one that ``ml_eval_detailed`` would refuse.
    """
    z = np.array(zs, dtype=float)
    n = z.size
    value, max_out = np.full(n, math.nan), np.empty(n)
    terms, stopped = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    slot = np.arange(n)  # index into zs of each buffer slot
    live = np.ones(n, dtype=bool)
    stoppable = (z < 0.0) & (_heads(params) is not None)  # passes the rule may stop
    s, comp, max_mag, abs_s = (np.zeros(n) for _ in range(4))
    zk = np.ones(n)
    term, at, y, t = (np.empty(n) for _ in range(4))
    done = np.empty(n, dtype=bool)
    used = running = n
    alpha, beta = params.alpha, params.beta
    size = 64
    coeffs = _series_coefficients(alpha, beta, size)
    cm_bound = _CM_MARGIN * _TARGET_REL * coeffs[0] if alpha <= 1.0 and beta >= alpha else None

    def finish(js, k):  # record the slots js' terms and max magnitude, then mask them
        nonlocal running
        i = slot[js]
        terms[i], max_out[i] = k, M[js]
        live[js] = False
        ZK[js] = M[js] = math.nan
        running -= js.size
        return i

    with np.errstate(over="ignore", invalid="ignore"):  # masked or compared
        for k in range(_MAX_TERMS + 1):
            if k == 0 or 2 * running <= used:
                if running == 0:
                    break
                keep = live[:used].nonzero()[0]
                for buf in (slot, s, comp, max_mag, abs_s, zk, z, stoppable):
                    buf[:running] = buf[keep]
                live[:running] = True
                used = running
                # views of the live slots, taken once per compaction
                S, T, C, M, A, ZK, Z, O, TERM, AT, Y, D = (
                    b[:used] for b in (s, t, comp, max_mag, abs_s, zk, z, stoppable,
                                       term, at, y, done))
                rule = O.any()
                zmax = float(np.abs(Z).max())  # z^(k+1) < 2^1024 while k < grows
                grows = math.floor(709.0 / math.log(zmax)) - 1 if zmax > 1.0 else _MAX_TERMS
            if k == size:
                size *= 4
                coeffs = _series_coefficients(alpha, beta, size)
            np.multiply(ZK, coeffs[k], out=TERM)
            np.abs(TERM, out=AT)
            if k >= 1:
                np.fmax(A, 1.0, out=Y)
                Y *= _SERIES_TOL
                np.less(AT, Y, out=D)
                js = D.nonzero()[0]
                if js.size:
                    value[finish(js, k)] = S[js]
                if rule and k % _STOP_EVERY == 0:
                    e = _EPS * (4.0 + 2.0 * math.sqrt(k))
                    np.add(A, AT, out=Y)  # (i)
                    Y *= _PEAK_MARGIN * _TARGET_REL / e
                    if cm_bound is not None:  # (ii): max(M, 1) > cm_bound / e
                        np.minimum(Y, cm_bound / e if cm_bound >= e else -1.0, out=Y)
                    np.greater(M, Y, out=D)
                    D &= O
                    js = D.nonzero()[0]
                    if js.size:
                        stopped[finish(js, k)] = True
            np.subtract(TERM, C, out=Y)
            np.add(S, Y, out=T)
            np.subtract(T, S, out=C)
            C -= Y
            s, t, S, T = t, s, T, S
            np.abs(S, out=A)
            np.fmax(M, A, out=M)
            np.fmax(M, AT, out=M)
            ZK *= Z
            if k >= grows:
                np.isinf(ZK, out=D)
                js = D.nonzero()[0]
                if js.size:
                    finish(js, k + 1)
    js = live[:used].nonzero()[0]  # passes that did not stop
    max_out[slot[js]] = max_mag[js]
    return value, terms, max_out, stopped


@lru_cache(maxsize=32)
def _mp_coefficients(alpha: float, beta: float, prec: int) -> dict:
    """k -> (mantissa, exponent) of 1/Gamma(alpha k + beta) > 0 at ``prec``
    bits, filled in by the passes; a dict, so threads that race on k store one entry."""
    return {}


def _mp_rgamma(alpha: float, beta: float, k: int) -> tuple[int, int]:
    return mp.rgamma(mp.mpf(alpha) * k + beta)._mpf_[1:3]  # at the pass's precision


def _sum_mp(params: MLParams, z: float, dps: int):
    """Extended-precision pass; returns (value, terms, digits_lost).

    A term below 10^-(dps-3) of the partial sum stops the pass (compared
    exactly): with heavy cancellation the partial sums pass through
    magnitudes far above the result, and a cut at an absolute level, or at
    _SERIES_TOL, would truncate a tail that can exceed the result itself.
    The loop is mpmath's s += z^k c_k on Python integers: z^k, each term and
    each sum is a mantissa of at most prec bits times 2^exponent (unbounded),
    rounded to nearest, ties to even, as mpf arithmetic rounds; so the value
    (inf past double range) and log10(max |term| / |s|), formed in mpmath
    once, have the mpf loop's bits, at a quarter of its cost.
    """
    alpha, beta = params.alpha, params.beta
    with mp.workdps(dps):
        prec = mp.mp.prec
        coeffs = _mp_coefficients(alpha, beta, prec)
        frac, exp = math.frexp(abs(z))
        zm, ze = int(frac * 2.0**53), exp - 53  # |z| exactly
        flips, scale = z < 0.0, 10 ** (dps - 3)
        zkm, zke = 1, 0  # |z|^k
        sm = se = mm = me = 0  # the signed partial sum; the largest |term|
        for k in range(_MAX_TERMS + 1):
            if (c := coeffs.get(k)) is None:
                c = coeffs[k] = _mp_rgamma(alpha, beta, k)
            cm, ce = c
            tm, te = zkm * cm, zke + ce  # |term|
            # to prec bits, ties to even: add 2^(n-1) - 1 and the lowest kept bit, cut n
            n = tm.bit_length() - prec
            if n > 0:
                tm, te = (tm + (1 << n - 1) - 1 + (tm >> n & 1)) >> n, te + n
            d = te - se
            if k and ((tm * scale) << d < abs(sm) if d >= 0 else tm * scale < abs(sm) << -d):
                break
            t = -tm if flips and k & 1 else tm
            if sm:
                sm, se = ((sm << -d) + t, te) if d <= 0 else (sm + (t << d), se)
                n = sm.bit_length() - prec
                if n > 0:
                    sm, se = (sm + (1 << n - 1) - 1 + (sm >> n & 1)) >> n, se + n
            else:
                sm, se = t, te
            d = te - me  # at k = 0, mm = 0 and d <= 0 (c_0 < 2)
            if (tm << d > mm) if d >= 0 else (tm > mm << -d):
                mm, me = tm, te
            zkm, zke = zkm * zm, zke + ze
            n = zkm.bit_length() - prec
            if n > 0:
                zkm, zke = (zkm + (1 << n - 1) - 1 + (zkm >> n & 1)) >> n, zke + n
        else:
            raise SeriesConvergenceError(
                f"series for E[{alpha}, {beta}]({z}) did not satisfy the stopping "
                f"rule within {_MAX_TERMS} terms at {dps} digits")
        s = mp.mpf((sm, se))
        lost = float(mp.log10(mp.mpf((mm, me)) / abs(s))) if sm else float(dps)
        return float(s), k, max(lost, 0.0)


def _peak_term(params: MLParams, x: float) -> tuple[int, float]:
    """(k, log T_k) for the largest series term T_k = x^k / Gamma(alpha k + beta).

    The terms are log-concave in k, so k is the better of floor(k*),
    k* = x^(1/alpha)/alpha, and k + 1; k* is capped at _MAX_TERMS in logs.
    """
    alpha, beta = params.alpha, params.beta
    lx = math.log(x)
    capped = lx / alpha - math.log(alpha) >= math.log(_MAX_TERMS)
    k = _MAX_TERMS if capped else math.floor(math.exp(lx / alpha) / alpha)
    log_t = k * lx - math.lgamma(alpha * k + beta)
    up = (k + 1) * lx - math.lgamma(alpha * (k + 1) + beta)
    return (k + 1, up) if up > log_t else (k, log_t)


def _peak_digits(params: MLParams, z: float) -> float:
    """Digits a series pass at z cancels by where |E| ~ 1: log10 of the peak
    term, inf at the term cap; 0 for z >= 0, where nothing cancels."""
    if z >= 0.0:
        return 0.0
    k, log_t = _peak_term(params, -z)
    return math.inf if k >= _MAX_TERMS else log_t / math.log(10.0)


def _near(params: MLParams, z):
    """Whether the double pass is tried at z (a float or an array): for
    alpha >= 2 everywhere, else at z >= -10 alpha."""
    return (params.alpha >= 2.0) | (z >= -10.0 * params.alpha)


def _overflows(params: MLParams, x: float) -> bool:
    """Whether E[alpha, beta](x), x > 1, exceeds double range by its peak
    term: every term is positive, so E exceeds each of them."""
    return _peak_term(params, x)[1] > 1024.0 * math.log(2.0)


def _certifies(res, k, max_mag):
    """The double pass's rounding certificate, on the fields of
    ``_sum_double`` tuples, each a float or an array of them (None reads as
    nan): additions cost ~eps * max partial sum, the term recurrence another
    ~eps * k/2 relative per term, and that must stay below _TARGET_REL of
    the value.  The cost is positive, so a value that is None (the pass did
    not stop, or a power overflowed) or 0 fails.  Returns a numpy bool, or
    an array of them."""
    res, k = np.array(res, dtype=float), np.array(k, dtype=float)
    return _EPS * (4.0 + 2.0 * np.sqrt(k)) * np.fmax(max_mag, 1.0) <= _TARGET_REL * np.abs(res)


def _series_mp(params: MLParams, z: float, lost: float) -> MLResult:
    """``_sum_mp`` passes, the first with headroom for ``lost`` digits of
    cancellation (``ml_eval_detailed`` gives ``_peak_digits``).

    A pass left with fewer than 17 significant digits reads about its own
    precision as lost, so the next one works at max(lost + 27, 2 dps)
    digits.  Returns the value accurate to ~_TARGET_REL relative, or raises
    SeriesConvergenceError once the precision would pass _MAX_DPS, and
    MLOverflowError where a pass's integer sum rounds to inf as a double.
    """
    dps = max(25, int(min(_MAX_DPS + 1.0, 17 + lost + 8)))  # lost may be inf
    while dps <= _MAX_DPS:
        value, terms, lost = _sum_mp(params, z, dps)
        if math.isinf(value):
            raise MLOverflowError(
                f"E[{params.alpha}, {params.beta}]({z}) exceeds double range")
        if dps - lost >= 17.0:
            return MLResult(value, "series", terms)
        dps = max(int(lost + 27), 2 * dps)
    raise SeriesConvergenceError(
        f"series for E[{params.alpha}, {params.beta}]({z}) cancels by "
        f"~{lost:.0f} digits or more, past the {_MAX_DPS}-digit working-precision cap"
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


def _pole_terms(alpha: float, beta: float, x: float):
    """(mu, residue, residue_scale, disc) of the contour at x, for 1 < alpha < 2.

    The poles at s_p = x^(1/alpha) e^(+-i pi/alpha) sit at
    Im u = 1 - c sqrt(|s_p|/mu), c = cos(pi/(2 alpha)); where that is within
    _POLE_MARGIN of 0, mu is lowered by factors of sqrt(2) until the poles
    lie at least the margin outside the contour.  Scalar math: np.cos and
    np.exp may differ from libm by an ulp.
    """
    mu = _CONTOUR_MU
    residue = residue_scale = 0.0
    r = x ** (1.0 / alpha)
    c = math.cos(0.5 * math.pi / alpha)
    if abs(c * math.sqrt(r / mu) - 1.0) < _POLE_MARGIN:
        # largest mu_0 2^(-l/2) with c sqrt(r/mu) >= 1 + margin
        wanted = r * (c / (1.0 + _POLE_MARGIN)) ** 2
        level = math.ceil(2.0 * math.log2(_CONTOUR_MU / wanted))
        mu = _CONTOUR_MU * 2.0 ** (-0.5 * level)
    dist = 1.0 - c * math.sqrt(r / mu)
    theta = math.pi / alpha
    # e^(r cos theta) underflows to 0 long before r^(1 - beta) overflows
    decay = math.exp(r * math.cos(theta))
    size = (2.0 / alpha) * decay * r ** (1.0 - beta) if decay else 0.0
    if dist < 0.0:
        residue = size * math.cos(r * math.sin(theta) + (1.0 - beta) * theta)
        # e^(r cos theta) and the phase carry ~r eps of rounding each
        residue_scale = size * (1.0 + r)
    damp = math.exp(-2.0 * math.pi * abs(dist) / _CONTOUR_STEP)
    return mu, residue, residue_scale, size * damp / (1.0 - damp)


def _contour(alpha: float, beta: float, xs: np.ndarray):
    """E[alpha, beta](-x), alpha < 2, on the parabolic contour at each x > 0
    of the array ``xs``: arrays of the value, its absolute error bound and
    the contour nodes.  beta may be any real, as in the far form's
    remainder.  The bound counts rounding, not the discretisation error,
    which grows with beta - alpha: callers keep beta - alpha <=
    _FAR_MAX_EXCESS.  For 1 < alpha < 2 the poles' residues and scale come
    from ``_pole_terms``, per x.  The x that share mu share one 2-D division
    c / (e + x), _CONTOUR_ROWS rows at a time; numpy sums each row pairwise,
    as it sums a 1-D array, so every x gets the bits of a one-row call.
    """
    n = xs.size
    if alpha > 1.0:
        mus, residue, residue_scale, disc = np.array(
            [_pole_terms(alpha, beta, xj) for xj in xs.tolist()]).reshape(n, 4).T
        groups = [(mu, (mus == mu).nonzero()[0]) for mu in set(mus.tolist())]
    else:
        residue = residue_scale = disc = 0.0
        groups = [(_CONTOUR_MU, np.arange(n))]
    total, scale = np.empty(n), np.empty(n)
    nodes = np.empty(n, dtype=int)
    for mu, at in groups:
        c, e = _contour_nodes(alpha, beta, mu)
        nodes[at] = c.size
        q = np.empty((min(at.size, _CONTOUR_ROWS), c.size), dtype=complex)
        for lo in range(0, at.size, _CONTOUR_ROWS):
            rows = at[lo:lo + _CONTOUR_ROWS]
            block = q[:rows.size]
            block[...] = e  # then one broadcast operand per ufunc, one buffer
            block += xs[rows, None]
            t = np.divide(c, block, out=block).imag
            total[rows] = t.sum(axis=1)
            scale[rows] = np.abs(t).sum(axis=1)
    value = total + residue
    err = _CONTOUR_ROUNDING * (scale + residue_scale) + disc
    return value, err, nodes


@lru_cache(maxsize=64)
def _far_terms(alpha: float, beta: float,
               m: int) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """The far form's 1/Gamma(beta - alpha k), k = 1..m, the logs of their
    magnitudes, and beta - m alpha.

    math.gamma has a sixth of reciprocal_gamma's error; the rounding lo of the
    exact beta - alpha k is put back to first order, since next to a pole it
    moves 1/Gamma by ~k! lo, which the far form multiplies by x.  The log of a
    coefficient that underflows comes from lgamma; an exact pole's is -inf."""
    coeffs, logs, h = [], [], 2.0**-20
    for k in range(1, m + 1):
        exact = Fraction(beta) - k * Fraction(alpha)
        hi = float(exact)
        lo = float(exact - Fraction(hi))
        if hi <= 0.0 and hi.is_integer():  # at the pole -n, 1/Gamma has slope (-1)^n n!
            slope = (-1) ** int(-hi) * math.factorial(int(-hi))
        else:
            slope = (reciprocal_gamma(hi + h) - reciprocal_gamma(hi - h)) / (2.0 * h)
        try:
            rg = 1.0 / math.gamma(hi)
        except (ValueError, OverflowError):  # a pole, or Gamma past double range
            rg = reciprocal_gamma(hi)
        coeff = rg + lo * slope
        coeffs.append(coeff)
        logs.append(math.log(abs(coeff)) if coeff
                    else -math.lgamma(hi) if hi > 0.0 else -math.inf)
    return tuple(coeffs), tuple(logs), float(Fraction(beta) - m * Fraction(alpha))


def _heads(params: MLParams):
    """The least number m of head terms the far form splits off so that its
    remainder has beta - m alpha - alpha < _FAR_MAX_EXCESS; None where
    ``_quadrature`` takes no node (alpha >= 2, or m past _MAX_TERMS)."""
    alpha, beta = params.alpha, params.beta
    least = math.floor(min(max((beta - _FAR_MAX_EXCESS) / alpha, 0.0), _MAX_TERMS + 1.0))
    return None if alpha >= 2.0 or least > _MAX_TERMS else least


def _quadrature(params: MLParams, z: np.ndarray) -> list:
    """The certified contour value at each z < 0 of the array ``z``, as a
    list of MLResult, None where none certifies.

    For m > 0, E[a, b](z) = 1/Gamma(b) + z E[a, a + b](z) applied m times:

        E[a, b](z) = z^-m E[a, b - m a](z) - sum_{k=1..m} z^-k / Gamma(b - a k);

    the contour's error enters times x^-m, plus _HEAD_ROUNDING of each head
    term and 2 eps of the tail.  m is one number on each side of
    x = 10 alpha, and each side's heads and certificate are array
    operations in the order of the loop over one x.  Where the heads'
    magnitudes plus x^-m (|tail| + error), summed in logs, stay below
    2^-1075, E rounds to 0.0 and that is certified, though every term
    underflowed.  At alpha = beta = 1 an uncertified row takes
    E[1, 1](-x) = e^-x, which math.exp gives within one ulp.  The certified
    rows' records are made in one pass; only the rest take the per-row loop.
    """
    alpha, beta = params.alpha, params.beta
    x = -z
    out = [None] * x.size
    least = _heads(params)
    if least is None:
        return out
    far = x > 10.0 * alpha
    for m, at in ((least, ((x > 0.0) & ~far).nonzero()[0]),
                  (max(_FAR_TERMS, least), far.nonzero()[0])):
        xm = x[at]
        if not xm.size:
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if m == 0:
                value, err, nodes = _contour(alpha, beta, xm)
            else:
                coeffs, logs, shifted = _far_terms(alpha, beta, m)
                zi, zk, value, heads = -1.0 / xm, 1.0, 0.0, 0.0  # arrays from term 1 on
                for coeff in coeffs:
                    zk = zk * zi
                    term = -zk * coeff
                    value = value + term
                    heads = heads + np.abs(term)
                tail, tail_err, nodes = _contour(alpha, shifted, xm)
                value = value + tail * zk
                err = (tail_err + 2.0 * _EPS * np.abs(tail)) * np.abs(zk) + _HEAD_ROUNDING * heads
            # a value of 0 makes the ratio inf or nan, which fails the test
            certified = np.isfinite(value) & (err / np.abs(value) <= _TARGET_REL)
        left = [] if all(certified.tolist()) else (~certified).nonzero()[0].tolist()
        keep = certified if left else slice(None)  # no mask copies where all certify
        for j, v, count in zip(at[keep].tolist(), value[keep].tolist(), nodes[keep].tolist()):
            out[j] = MLResult(v, "contour", count)
        for i in left:
            j, xi, count = at[i].item(), xm[i].item(), nodes[i].item()
            if alpha == 1.0 and beta == 1.0:  # E[1, 1](-x) = e^-x
                out[j] = MLResult(math.exp(-xi), "contour", count)
            elif m > 0:
                lx = math.log(xi)
                bound = np.logaddexp.reduce([lc - k * lx for k, lc in enumerate(logs, 1)]
                                            + [math.log(abs(float(tail[i])) + float(tail_err[i]))
                                               - m * lx])
                if bound < -_UNDERFLOW_LOG:
                    out[j] = MLResult(0.0, "contour", count)
    return out


def _summed(params: MLParams, z: np.ndarray):
    """Yields (pass, certified, quad) for each z of the array ``z``, in order.

    pass is the node's ``_sum_double`` tuple (nan for None from the kernel)
    where ``_near`` tries one (two or more in lockstep, a lone one in the
    scalar loop, which costs less) and ``_overflows`` does not refuse z, and
    certified its ``_certifies`` verdict, formed at once; quad is its
    ``_quadrature`` row where z is finite and no pass certifies, formed a
    _CURVE_BLOCK of nodes at a time and yielded from that block's lists.
    A pass the kernel stopped, and a part not formed, is None.  No refusal
    is raised here: ``ml_eval_detailed`` raises it at the node.
    """
    finite = np.isfinite(z)
    to_sum = finite & _near(params, z)
    for j in (to_sum & (z > 1.0)).nonzero()[0].tolist():
        to_sum[j] = not _overflows(params, z[j].item())
    near = to_sum.nonzero()[0]
    passes = [None] * z.size
    certified = np.zeros(z.size, dtype=bool)
    if near.size > 1:
        value, terms, max_mag, stopped = _sum_double_many(params, z[near])
        near, *sums = (a[~stopped] for a in (near, value, terms, max_mag))
        for j, v, k, m in zip(near.tolist(), *(a.tolist() for a in sums)):
            passes[j] = (v, k or None, m)  # 0 terms: the pass did not stop
    elif near.size:  # a lone pass costs less in the scalar loop
        sums = passes[near.item()] = _sum_double(params, z[near].item())
    if near.size:
        certified[near] = _certifies(*sums)
    tried = finite & ~certified
    for lo in range(0, z.size, _CURVE_BLOCK):
        hi = min(lo + _CURVE_BLOCK, z.size)
        quads = [None] * (hi - lo)
        at = tried[lo:hi].nonzero()[0]
        if at.size:
            for i, quad in zip(at.tolist(), _quadrature(params, z[lo + at])):
                quads[i] = quad
        yield from zip(passes[lo:hi], certified[lo:hi].tolist(), quads)


def ml_eval_detailed(params: MLParams, z: float, summed=None) -> MLResult:
    """Evaluate E[alpha, beta](z) and report the regime and terms used.

    ``summed`` is the node's stage from ``_summed`` (``ml_eval_many``);
    without it z is staged as a one-node curve.  Raises ValueError for a
    non-finite z; MLOverflowError where ``_overflows`` (the peak term, and
    so E, exceeds double range) or an mpmath pass's value does; and
    SeriesConvergenceError where the double pass did not stop, or where
    ``_series_mp`` would pass _MAX_DPS digits or its pass did not stop.
    """
    z = float(z)  # a numpy scalar would slow every term of the double pass
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if z > 1.0 and _overflows(params, z):
        raise MLOverflowError(f"E[{params.alpha}, {params.beta}]({z}) exceeds double range")
    sums, certified, quad = summed or next(_summed(params, np.array([z])))
    if sums is not None:
        value, terms, _ = sums
        if terms is None:
            raise SeriesConvergenceError(
                f"series for E[{params.alpha}, {params.beta}]({z}) did not satisfy "
                f"the stopping rule within {_MAX_TERMS} terms")
        if certified:
            return MLResult(value, "series", terms)
    return quad or _series_mp(params, z, _peak_digits(params, z))


def ml_eval(params: MLParams, z: float) -> float:
    """E[alpha, beta](z) for real z; accurate to ~1e-13 relative in contract."""
    return ml_eval_detailed(params, z).value


def ml_eval_many(params: MLParams, zs) -> np.ndarray:
    """``ml_eval`` at each z of ``zs``, bitwise: ``_summed`` stages the
    curve's double passes and contour values, each node then passes
    ``ml_eval_detailed`` once, and the first node refused raises."""
    z = np.array(zs, dtype=float)
    return np.array([ml_eval_detailed(params, zj, summed).value
                     for zj, summed in zip(z.tolist(), _summed(params, z))], dtype=float)
