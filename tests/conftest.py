"""Shared test helpers: acceptance-line reporting, an independent
high-precision Mittag-Leffler reference and the dense quadrature matrix.
"""

import math
import os

# One BLAS thread, set before numpy loads: a march that calls BLAS on one
# short row at a time otherwise spins its threads against any busy core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

ACCEPTANCE_LINES: list[str] = []


def record(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def ml_reference(alpha: float, beta: float, z: float, dps: int = 60) -> float:
    """Brute-force series reference, independent of the package code.

    Plain term-by-term summation with mpmath division by gamma; no stopping
    policy, no compensation, no regime switching.  The arguments
    alpha k + beta are formed in mpmath, so a non-dyadic alpha is not
    rounded to double inside Gamma.  It stops at a term below 10^-(dps-5)
    of the partial sum, relative even where |E| is far below 1.  Raises
    ArithmeticError where it would return no reference: the terms have not
    fallen that far within 5000 terms (a partial sum), or the cancellation
    log10(largest term / |sum|) left fewer than 20 digits.
    """
    with mp.workdps(dps):
        s = mp.mpf(0)
        zm = mp.mpf(z)
        zk = mp.mpf(1)
        am = mp.mpf(alpha)
        biggest = mp.mpf(0)
        for k in range(5000):
            term = zk / mp.gamma(am * k + beta)
            s += term
            biggest = max(biggest, abs(term))
            zk *= zm
            if k > 10 and abs(term) < mp.mpf(10) ** (-(dps - 5)) * abs(s):
                if s == 0 or dps - mp.log10(biggest / abs(s)) < 20:
                    raise ArithmeticError(
                        f"reference for E[{alpha}, {beta}]({z}) kept too few digits at {dps}")
                return float(s)
        raise ArithmeticError(f"reference series for E[{alpha}, {beta}]({z}) did not stop")


def ml_reference_negative(alpha: float, x: float) -> float:
    """E[alpha](-x) for 0 < alpha < 1, x > 0, to ~20 significant digits.

    Beyond y = x^(1/alpha) = 50 the algebraic expansion
    -sum_{k>=1} (-x)^-k / Gamma(1 - alpha k) is summed in mpmath, truncated
    where its envelope x^-k Gamma(alpha k) / pi is smallest (about e^-y; on
    the negative axis with alpha < 1 the expansion carries no exponential
    terms) or already below 1e-22 of the sum.  Its value is returned only
    where that smallest term, the order of the truncation error, is below
    1e-19 of the sum.  Everywhere else (y <= 50, and alpha near 1, where
    |E| ~ 1/(x Gamma(1 - alpha)) is too small for an e^-y error) the series
    is summed with ml_reference at a working precision sized to its peak
    term, which is about e^y: ~y/alpha terms at ~y/2.3 digits.
    """
    log_y = math.log(x) / alpha
    if log_y > math.log(50.0):
        with mp.workdps(40):
            am, xm = mp.mpf(alpha), mp.mpf(x)
            s = mp.mpf(0)
            prev = mp.inf
            for k in range(1, 10000):
                envelope = xm ** (-k) * mp.gamma(am * k) / mp.pi
                if envelope > prev or envelope < 1e-22 * abs(s):
                    break
                s += (-xm) ** (-k) * mp.rgamma(1 - am * k)
                prev = envelope
            if min(prev, envelope) < 1e-19 * abs(s):
                return float(-s)
    y = math.exp(log_y)
    # ml_reference stops within its 5000 terms only while y stays moderate
    assert y <= 1000.0, (alpha, x)
    return ml_reference(alpha, 1.0, -x, dps=int(30 + y / math.log(10.0)))


def dense_weights(weights) -> np.ndarray:
    """The (n+1)^2 product-trapezoid matrix, filled row by row from the
    structured weights (c0 on the diagonal, a0 in column 0, the reversed
    band d2 in between): the layout the matrix-free code must reproduce."""
    n = weights.grid.n
    w = np.zeros((n + 1, n + 1))
    for j in range(1, n + 1):
        w[j, j] = weights.c0
        w[j, 0] = weights.a0[j - 1]
        if j >= 2:
            w[j, 1:j] = weights.d2[j - 2 :: -1]
    return w
