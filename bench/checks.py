"""Correctness checks of the benchmark, computed apart from the program.

References never call fracrelax: closed-form identities through numpy and
scipy, and the Mittag-Leffler series ``sum (-x)^k / Gamma(alpha k + beta)``
with ``alpha k + beta`` formed exactly.  The series is summed in
double-double arithmetic at every node where that is accurate to 1e-16, and
in mpmath, at a precision sized to the series' largest term, at sampled
nodes beyond.  Each check returns a list of messages; an empty list means
the output passed.  Nothing is stored on disk; ORACLE_ERROR_CONSTANTS are
measured again by ``PYTHONPATH=src python3 bench/checks.py``.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np
from scipy.special import erfcx

from workloads import IDENTITY_CASES, NEUMANN_M, Op, Result

# The relative accuracy that E[alpha, beta] promises.
REL_CONTRACT = 1e-13
# Nodes per curve checked against the mpmath series where the double-double
# sum is not accurate enough (seeded; the last node is always added).
SAMPLED_NODES = 16
# Digits that must survive the series' cancellation in the mpmath reference.
REFERENCE_DIGITS = 20
# The double-double sum is used where its error bound is below this share
# of |E|, and only where the series' largest term is below DD_MAX_PEAK (which
# bounds the number of terms).
DD_ACCURACY = 1e-16
DD_MAX_PEAK = 1e10
# Unit roundoff of double-double arithmetic, 2^-104.
DD_EPS = 2.0**-104
# The program receives x = c^nu (t-a)^nu only rounded to double (two powers
# and a product, under 3 ulp); next to a zero of E[nu, mu] that rounding
# alone moves N by far more than 1e-13 relative, so the check also allows
# the change of N that a relative change of 4 eps in x causes.
ARGUMENT_ROUNDING = 4.0 * 2.220446049250313e-16
# The oracle is compared on t >= a + ORACLE_MASK_STEPS h, as the
# verification ladder does; the first steps converge at a lower rate.
ORACLE_MASK_STEPS = 10
# Oracle error bound C (c h)^2 max|N| of the second-order product-trapezoid
# rule, per identity problem (nu, mu): about 2.5 times the constant measured
# at n = 4000 on seeds 1 to 6 (c h is the same for every seed, and the
# constants agreed to 4 digits; march and Picard gave the same).
ORACLE_ERROR_CONSTANTS = {(0.5, None): 0.17, (1.0, None): 0.078,
                          (0.5, 0.5): 0.036, (1.0, 2.0): 0.077}


def identity(problem, t: np.ndarray) -> np.ndarray | None:
    """Closed-form N(t) at t > a where an elementary identity exists."""
    key = (problem.nu, problem.mu)
    if key not in IDENTITY_CASES:
        return None
    x = problem.c * (t - problem.a)
    if key == (1.0, None):
        e = np.exp(-x)
    elif key == (0.5, None):
        e = erfcx(np.sqrt(x))
    elif key == (0.5, 0.5):
        # Gamma(1/2) t^(-1/2) E[1/2, 1/2](-sqrt(ct)), E[1/2,1/2](-z) = 1/sqrt(pi) - z erfcx(z)
        e = (t - problem.a) ** -0.5 * (1.0 - np.sqrt(np.pi * x) * erfcx(np.sqrt(x)))
    else:
        # t E[1, 2](-ct) = (1 - e^(-ct)) / c
        e = -np.expm1(-x) / problem.c
    return problem.N_a * e


# -- double-double arithmetic, element-wise on numpy arrays --------------

_SPLIT = 134217729.0  # 2^27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul_add(ah, al, xh, xl, ch, cl):
    """a x + c in double-double."""
    p, e = _two_prod(ah, xh)
    p, e = _two_sum(p, e + (ah * xl + al * xh))
    s, f = _two_sum(p, ch)
    return _two_sum(s, f + (e + cl))


def _to_dd(v) -> tuple[float, float]:
    hi = float(v)
    return hi, float(v - hi)


def _series_terms(alpha: float, beta: float, x: float) -> tuple[int, float]:
    """Terms to sum at argument x, and log of the series' largest term."""
    lx = math.log(x)
    k_peak = x ** (1.0 / alpha) / alpha  # the terms peak near here
    peak, k = -math.inf, 0
    while True:
        lt = k * lx - math.lgamma(alpha * k + beta)
        peak = max(peak, lt)
        if k > k_peak and lt < peak - 90.0:  # 39 digits below the peak
            return k, peak
        k += 1


def ml_negative_dd(alpha: float, beta: float, x_hi, x_lo):
    """E[alpha, beta](-x) and x dE/dx by Horner's rule in double-double.

    ``x_hi + x_lo`` are arrays holding x to double-double accuracy.  Returns
    E, x dE/dx (both rounded to double) and a bound on the error of E, from
    the rounding of each Horner step against the sum of |terms| and the
    first omitted term.
    """
    x_max = float(np.max(x_hi))
    K, _ = _series_terms(alpha, beta, x_max)
    with mp.workdps(45):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        r = [mp.rgamma(a * k + b) for k in range(K + 1)]
        coef = [_to_dd(v) for v in r]
        coef_d = [_to_dd(k * v) for k, v in enumerate(r)]
    z_hi, z_lo = -x_hi, -x_lo
    sums = []
    for c in (coef, coef_d):
        sh, sl = np.full_like(x_hi, c[K][0]), np.full_like(x_hi, c[K][1])
        for k in range(K - 1, -1, -1):
            sh, sl = _dd_mul_add(sh, sl, z_hi, z_lo, c[k][0], c[k][1])
        sums.append(sh + sl)
    abs_sum = np.zeros_like(x_hi)
    for k in range(K, -1, -1):
        abs_sum = abs_sum * x_hi + abs(coef[k][0])
    # past the peak the terms fall faster than geometrically: the tail is
    # below twice the first omitted term
    tail = 2.0 * np.exp((K + 1) * np.log(x_hi) - math.lgamma(alpha * (K + 1) + beta))
    bound = 8.0 * (K + 1) * DD_EPS * abs_sum + tail
    return sums[0], sums[1], bound


def ml_negative_mp(alpha: float, beta: float, x) -> tuple["mp.mpf", "mp.mpf", float]:
    """E[alpha, beta](-x) by the plain series, x an mpmath number > 0.

    Returns the value, x times its derivative in x, and the digits the series
    loses to cancellation, log10(largest term / |value|).  The working
    precision covers the largest term, estimated in double from lgamma, plus
    REFERENCE_DIGITS; the result is refused if fewer digits than that
    survived.
    """
    lx = math.log(float(x))
    k_peak = float(x) ** (1.0 / alpha) / alpha  # the terms peak near here
    peak, k = 0.0, 0
    while True:
        lt = k * lx - math.lgamma(alpha * k + beta)
        peak = max(peak, lt)
        if k > k_peak and lt < peak - 200.0:
            break
        k += 1
    dps = int(peak / math.log(10.0)) + REFERENCE_DIGITS + 15
    with mp.workdps(dps):
        a, b, z = mp.mpf(alpha), mp.mpf(beta), -mp.mpf(x)
        stop = mp.mpf(10) ** -dps
        s = mp.mpf(0)
        x_ds = mp.mpf(0)  # x d/dx of the sum: each term times its power k
        zk = mp.mpf(1)
        biggest = mp.mpf(0)
        for k in range(100_000):
            term = zk * mp.rgamma(a * k + b)
            s += term
            x_ds += k * term
            biggest = max(biggest, abs(term))
            if k > k_peak and abs(term) < stop * abs(s):
                break
            zk *= z
        else:
            raise ArithmeticError(f"reference series for E[{alpha}, {beta}](-{x}) did not stop")
        lost = float(mp.log10(biggest / abs(s)))
        if dps - lost < REFERENCE_DIGITS:
            raise ArithmeticError(f"reference for E[{alpha}, {beta}](-{x}) kept "
                                  f"{dps - lost:.1f} digits")
        return +s, +x_ds, lost


def solution_mp(problem, t: float) -> tuple[float, float]:
    """N(t) from the mpmath series, every argument formed from exact inputs.

    Returns N(t) and the change of N that a relative change
    ARGUMENT_ROUNDING of the argument x = c^nu (t-a)^nu causes.
    """
    nu = mp.mpf(problem.nu)
    dt = mp.mpf(t) - mp.mpf(problem.a)
    with mp.workdps(40):
        x = mp.mpf(problem.c) ** nu * dt**nu
    beta = 1.0 if problem.mu is None else problem.mu
    e, x_de, _ = ml_negative_mp(problem.nu, beta, x)
    with mp.workdps(40):
        scale = problem.N_a * mp.gamma(beta) * dt ** (beta - 1)
        return float(scale * e), float(abs(scale * x_de) * ARGUMENT_ROUNDING)


def start_value(problem) -> float:
    """Limit of N(t) as t -> a+: N_a for mu = 1, 0 for mu > 1, NaN for mu < 1."""
    mu = problem.mu_eff
    if mu < 1.0:
        return math.nan
    return 0.0 if mu > 1.0 else problem.N_a


def _argument_and_scale(problem, t: np.ndarray):
    """x = c^nu (t-a)^nu to double-double, and N_a Gamma(mu) (t-a)^(mu-1).

    Both are formed in mpmath from the exact double inputs.
    """
    beta = 1.0 if problem.mu is None else problem.mu
    x_hi, x_lo, scale = (np.empty(t.size) for _ in range(3))
    with mp.workdps(40):
        nu = mp.mpf(problem.nu)
        c_nu = mp.mpf(problem.c) ** nu
        g = problem.N_a * mp.gamma(beta)
        for i, tj in enumerate(t):
            dt = mp.mpf(tj) - mp.mpf(problem.a)
            x_hi[i], x_lo[i] = _to_dd(c_nu * dt**nu)
            scale[i] = float(g * dt ** (beta - 1))
    return x_hi, x_lo, scale


class Reference:
    """Reference values of one closed-form or oracle operation.

    Identities are checked at every node.  Elsewhere the double-double series
    covers every node where it is accurate (this takes in every node where
    the series cancels by a few digits); SAMPLED_NODES seeded nodes among the
    others, and the last node, are checked against the mpmath series.
    """

    def __init__(self, op: Op, rng):
        n = op.grid.n
        t = op.grid.times()
        exact = identity(op.problem, t[1:])
        if exact is not None:
            self.index = np.arange(1, n + 1)
            self.values = exact
            self.slack = np.zeros(n)
            return
        p = op.problem
        beta = 1.0 if p.mu is None else p.mu
        x_hi, x_lo, scale = _argument_and_scale(p, t[1:])
        peaks = np.array([_series_terms(p.nu, beta, x)[1] for x in x_hi])
        near = np.flatnonzero(peaks <= math.log(DD_MAX_PEAK))
        e, x_de, bound = ml_negative_dd(p.nu, beta, x_hi[near], x_lo[near])
        ok = bound <= DD_ACCURACY * np.abs(e)
        index = list(near[ok] + 1)
        values = list(scale[near[ok]] * e[ok])
        slack = list(np.abs(scale[near[ok]] * x_de[ok]) * ARGUMENT_ROUNDING)
        rest = np.setdiff1d(np.arange(1, n + 1), index)
        if rest.size:
            rest = rest[rest != n]
            sample = [n] * (n not in index) + list(
                rng.choice(rest, min(SAMPLED_NODES, rest.size), replace=False))
            for j in sample:
                value, s = solution_mp(p, t[j])
                index.append(j)
                values.append(value)
                slack.append(s)
        order = np.argsort(index)
        self.index = np.array(index)[order]
        self.values = np.array(values)[order]
        self.slack = np.array(slack)[order]


def check_closed_form(op: Op, values: np.ndarray, ref: Reference) -> tuple[str, list[str]]:
    """The breach of the relative contract ('' if none), and other faults."""
    problem, n = op.problem, op.grid.n
    if values.shape != (n + 1,):
        return "", [f"{problem}: curve has shape {values.shape}, expected ({n + 1},)"]
    msgs = []
    start = start_value(problem)
    if not (values[0] == start or (math.isnan(start) and math.isnan(values[0]))):
        msgs.append(f"{problem}: N(a) = {values[0]!r}, expected {start!r}")
    err = np.abs(values[ref.index] - ref.values)
    excess = err - (REL_CONTRACT * np.abs(ref.values) + ref.slack)
    breach = ""
    if np.any(excess > 0.0):
        i = int(np.argmax(excess))
        breach = (f"{problem}: relative error {err[i] / abs(ref.values[i]):.3e} at node "
                  f"{ref.index[i]} above {REL_CONTRACT:g} ({np.sum(excess > 0.0)} of "
                  f"{excess.size} checked nodes)")
    if problem.mu is None and problem.nu <= 1.0:
        if not (np.all(values > 0.0) and np.all(values <= problem.N_a)):
            msgs.append(f"{problem}: N leaves (0, N_a]")
        if not np.all(np.diff(values) <= 0.0):
            msgs.append(f"{problem}: N increases at node "
                        f"{int(np.argmax(np.diff(values) > 0.0)) + 1}")
    return breach, msgs


def oracle_bound(op: Op, ref: Reference) -> float:
    """Error bound C (c h)^2 max|N| of the product-trapezoid march.

    The peeled remainder is at least Lipschitz, so the rule converges like
    h^2 away from the start; c h makes the step dimensionless, and C comes
    from ORACLE_ERROR_CONSTANTS.
    """
    mask = ref.index >= ORACLE_MASK_STEPS
    constant = ORACLE_ERROR_CONSTANTS[op.problem.nu, op.problem.mu]
    return constant * (op.problem.c * op.grid.h) ** 2 * float(np.max(np.abs(ref.values[mask])))


def check_oracle(op: Op, curves: dict[str, np.ndarray], ref: Reference) -> list[str]:
    bound = oracle_bound(op, ref)
    mask = ref.index >= ORACLE_MASK_STEPS
    msgs = []
    for scheme, values in curves.items():
        if values.shape != (op.grid.n + 1,):
            msgs.append(f"{op.problem} {scheme}: shape {values.shape}")
            continue
        err = float(np.max(np.abs(values[ref.index[mask]] - ref.values[mask])))
        if not err <= bound:
            msgs.append(f"{op.problem} {scheme}: error {err:.3e} above {bound:.3e}")
    return msgs


def neumann_envelope(problem, t: np.ndarray) -> np.ndarray:
    """|term M+1| of the Neumann series, N_a x^(M+1) / Gamma((M+1) nu + 1).

    With x = (c (t-a))^nu <= 1 the terms from M+1 on decrease and alternate,
    so the first omitted one bounds |S_M - N|.
    """
    m = NEUMANN_M + 1
    x = (problem.c * (t - problem.a)) ** problem.nu
    return problem.N_a * np.exp(m * np.log(x) - math.lgamma(m * problem.nu + 1.0))


def check_verify(op: Op, result: Result) -> list[str]:
    msgs = []
    rows = result.report_csv.splitlines()[1:]
    verdicts = [row.rsplit(",", 1)[-1] for row in rows]
    if not rows or any(v not in ("true", "false") for v in verdicts):
        msgs.append(f"{op.problem}: unreadable report {result.report_csv[:200]!r}")
    elif result.exit_code != (0 if all(v == "true" for v in verdicts) else 1):
        msgs.append(f"{op.problem}: exit code {result.exit_code} disagrees with the report")
    if op.grid is None:
        return msgs
    s, closed = result.curves["neumann"], result.curves["closed"]
    if not s[0] == closed[0] == op.problem.N_a:
        msgs.append(f"{op.problem}: Neumann/closed start {s[0]!r}/{closed[0]!r}")
    t = op.grid.times()[1:]
    gap = np.abs(s[1:] - closed[1:])
    allowed = neumann_envelope(op.problem, t) + REL_CONTRACT * np.abs(closed[1:])
    if not np.all(gap <= allowed):
        j = int(np.argmax(gap - allowed)) + 1
        msgs.append(f"{op.problem}: |S_{NEUMANN_M} - closed| = {gap[j - 1]:.3e} at node {j} "
                    f"above the envelope {allowed[j - 1]:.3e}")
    return msgs


class Checker:
    """Holds the references of a workload's operations and checks results."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng([seed, 7919])
        self._refs: dict[Op, Reference] = {}

    def prepare(self, ops: list[Op]) -> None:
        for op in ops:
            if op.kind != "verify" and op not in self._refs:
                self._refs[op] = Reference(op, self._rng)

    def check(self, op: Op, result: Result) -> list[str]:
        """Messages for faults of the output.

        A closed-form curve named in workloads as a known fault that breaks
        the relative contract is marked failed instead.
        """
        if op.kind == "verify":
            return check_verify(op, result)
        self.prepare([op])
        if op.kind == "oracle":
            return check_oracle(op, result.curves, self._refs[op])
        breach, msgs = check_closed_form(op, result.curves["closed"], self._refs[op])
        if breach and op.known_fault:
            result.failed, result.failure = True, breach
        elif breach:
            msgs.insert(0, breach)
        return msgs


def measure_oracle_constants(seed: int) -> None:
    """Print err / ((c h)^2 max|N|) of each oracle problem and scheme."""
    import workloads

    checker = Checker(seed)
    for op in workloads.build("oracle", seed).round_ops(0):
        checker.prepare([op])
        ref = checker._refs[op]
        mask = ref.index >= ORACLE_MASK_STEPS
        unit = (op.problem.c * op.grid.h) ** 2 * float(np.max(np.abs(ref.values[mask])))
        for scheme, values in workloads.run(op).curves.items():
            err = float(np.max(np.abs(values[ref.index[mask]] - ref.values[mask])))
            print(f"(nu, mu) = ({op.problem.nu}, {op.problem.mu}) {scheme}: {err / unit:.5f}")


if __name__ == "__main__":
    # PYTHONPATH=src python3 bench/checks.py [seed], from the root of a
    # checkout: measures ORACLE_ERROR_CONSTANTS again (before the factor 2.5).
    measure_oracle_constants(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
