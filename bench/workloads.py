"""Workload inputs and operations of the fracrelax benchmark.

A workload is a fixed list of operations per round; a run repeats whole
rounds.  Inputs come only from the seed: ``closed_form`` and ``oracle``
repeat the same round, ``verify`` draws fresh problems for every round so
that no two of its seeded operations share a Mittag-Leffler ``alpha``.
The Mittag-Leffler arguments of ``closed_form`` do not depend on the seed,
so its checks give the same verdict on every seed.

The program is reached through its module objects (``kinetics.closed_form_curve``
and so on), never through names copied into this module, so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

from fracrelax import cli, kinetics, riemann_liouville, volterra
from fracrelax.grids import UniformGrid
from fracrelax.kinetics import KineticProblem
from fracrelax.volterra import OracleConfig

WORKLOADS = ("closed_form", "oracle", "verify")

CLOSED_FORM_N = 2000
ORACLE_N = 4000
NEUMANN_N = 1000
NEUMANN_M = 30
LADDER_BASE_N = 250
LADDER_LEVELS = 3
C_RANGE = (0.2, 5.0)
NA_RANGE = (0.5, 2.0)
# closed_form: c is fixed and N_a a seeded power of two, which scales N
# exactly, so every node's error relative to N is the same on every seed.
CLOSED_FORM_C = 1.0
CLOSED_FORM_NA_EXPONENTS = (-1, 0, 1)
# Fresh nu for the verify ladders.  Below 0.6 the oracle_order check of the
# ladder fails in bands just above nu = 1/m (see CHANGES.md), which would
# make the failure count depend on the seed.
VERIFY_NU_RANGE = (0.6, 0.98)
VERIFY_PLAIN_PER_ROUND = 6
# Ladders that fail every time because of the oracle peel (see CHANGES.md);
# fixed inputs, independent of the seed.
VERIFY_KEPT_FAILURES = ((0.3, 1.5), (0.6, 1.5))

# (nu, mu or None, window in units of 1/c).  nu and mu are fixed so that
# every seed visits the same evaluator regimes at the same cost.  Plain
# problems on 5/c windows take the double series and the spectral
# quadrature, on 40/c mostly the spectral one, and on 400/c mostly the
# certified asymptotic expansion (a 40/c window stays below where it
# certifies); the power sources take the mpmath series.
_CLOSED_FORM_CASES = (
    [(nu, None, scales) for scales in (5.0, 40.0) for nu in (0.3, 0.7, 0.9)]
    + [(0.5, None, 400.0)]
    + [(0.7, 0.5, 5.0), (0.5, 0.7, 5.0), (0.7, 1.5, 5.0), (0.5, 1.3, 5.0)]
)
# (nu, mu) with a closed-form identity, on the 5/c window.
IDENTITY_CASES = ((0.5, None), (1.0, None), (0.5, 0.5), (1.0, 2.0))
# A curve that breaks the 1e-13 contract every time: the double pass of
# mittag_leffler accepts its own rounding certificate at 37 nodes where the
# series cancels by about 2 digits, with errors up to 1.17e-13 (see FOUND in
# CHANGES.md).  It counts as a failed operation while it does.
CLOSED_FORM_KNOWN_FAULTS = ((0.48091570891331814, None, 5.0),)


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``grid`` is the curve's grid for ``closed_form`` and ``oracle``, and the
    Neumann window for a plain ``verify`` problem (None for a power source).
    """

    kind: str
    problem: KineticProblem
    grid: UniformGrid | None
    argv: tuple[str, ...] = ()
    known_fault: bool = False


@dataclass
class Result:
    """What one operation returned, and how many curve nodes that was."""

    nodes: int
    failed: bool
    curves: dict[str, np.ndarray] = field(default_factory=dict)
    exit_code: int | None = None
    report_csv: str = ""
    failure: str = ""


def _draw_problem(rng, nu: float, mu: float | None) -> KineticProblem:
    c = float(math.exp(rng.uniform(math.log(C_RANGE[0]), math.log(C_RANGE[1]))))
    return KineticProblem(nu=nu, c=c, N_a=float(rng.uniform(*NA_RANGE)), mu=mu)


def _window(problem: KineticProblem, decay_scales: float, n: int) -> UniformGrid:
    return UniformGrid.from_span(problem.a, decay_scales / problem.c, n)


@dataclass
class Workload:
    name: str
    seed: int
    fixed_round: list[Op] = field(default_factory=list)

    def round_ops(self, r: int) -> list[Op]:
        if self.name != "verify":
            return self.fixed_round
        return _verify_round(np.random.default_rng([self.seed, r]))


def build(name: str, seed: int) -> Workload:
    """The workload's inputs; everything here is part of set-up time."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(seed)
    work = Workload(name, seed)
    if name == "closed_form":
        cases = (_CLOSED_FORM_CASES + [(nu, mu, 5.0) for nu, mu in IDENTITY_CASES]
                 + list(CLOSED_FORM_KNOWN_FAULTS))
        for case in cases:
            nu, mu, scales = case
            N_a = 2.0 ** int(rng.choice(CLOSED_FORM_NA_EXPONENTS))
            p = KineticProblem(nu=nu, c=CLOSED_FORM_C, N_a=N_a, mu=mu)
            work.fixed_round.append(Op(name, p, _window(p, scales, CLOSED_FORM_N),
                                       known_fault=case in CLOSED_FORM_KNOWN_FAULTS))
    elif name == "oracle":
        for nu, mu in IDENTITY_CASES:
            p = _draw_problem(rng, nu, mu)
            work.fixed_round.append(Op(name, p, _window(p, 5.0, ORACLE_N)))
    return work


def _verify_round(rng) -> list[Op]:
    lo, hi = VERIFY_NU_RANGE
    width = (hi - lo) / VERIFY_PLAIN_PER_ROUND
    ops = []
    for i in range(VERIFY_PLAIN_PER_ROUND):
        p = _draw_problem(rng, float(lo + (i + rng.uniform()) * width), None)
        # c^nu T^nu = 1 on T = 1/c, so the Neumann terms decrease.
        ops.append(Op("verify", p, _window(p, 1.0, NEUMANN_N), _ladder_argv(p)))
    for nu, mu in VERIFY_KEPT_FAILURES:
        p = KineticProblem(nu=nu, c=1.0, N_a=1.0, mu=mu)
        ops.append(Op("verify", p, None, _ladder_argv(p)))
    return ops


def _ladder_argv(p: KineticProblem) -> tuple[str, ...]:
    argv = ["verify", "--nu", repr(p.nu), "--c", repr(p.c), "--Na", repr(p.N_a),
            "--n", str(LADDER_BASE_N), "--levels", str(LADDER_LEVELS)]
    if p.mu is not None:
        argv += ["--mu", repr(p.mu)]
    return tuple(argv)


# Every ladder level yields a closed-form curve and an oracle curve.
LADDER_NODES = 2 * sum(LADDER_BASE_N * 2**i + 1 for i in range(LADDER_LEVELS))


def run(op: Op) -> Result:
    """Execute one operation; this is the only code inside the timed region."""
    if op.kind == "closed_form":
        curve = kinetics.closed_form_curve(op.problem, op.grid)
        return Result(op.grid.n + 1, False, {"closed": curve.values})
    if op.kind == "oracle":
        weights = riemann_liouville.build_weights(op.grid, op.problem.nu)
        march = volterra.solve_volterra(op.problem, OracleConfig(op.grid), weights=weights)
        picard = volterra.solve_volterra(
            op.problem, OracleConfig(op.grid, scheme="picard"), weights=weights
        )
        return Result(2 * (op.grid.n + 1), False,
                      {"march": march.values, "picard": picard.values})
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    result = Result(LADDER_NODES, code != 0, exit_code=code, report_csv=out.getvalue())
    if op.grid is not None:
        result.curves["neumann"] = kinetics.neumann_curve(op.problem, op.grid, NEUMANN_M).values
        result.curves["closed"] = kinetics.closed_form_curve(op.problem, op.grid).values
        result.nodes += 2 * (op.grid.n + 1)
    return result
