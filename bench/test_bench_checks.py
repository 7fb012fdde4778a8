"""The benchmark's checks must reject outputs corrupted from outside.

    python3 -m pytest -q bench/test_bench_checks.py
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy.special import erfcx  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fracrelax import kinetics  # noqa: E402
from fracrelax.grids import UniformGrid  # noqa: E402
from fracrelax.kinetics import KineticProblem  # noqa: E402


def _op(kind, problem, n, scales=5.0):
    return workloads.Op(kind, problem, UniformGrid.from_span(0.0, scales / problem.c, n))


def _checked(op):
    checker = checks.Checker(seed=3)
    result = workloads.run(op)
    assert checker.check(op, result) == []
    return checker, result


@pytest.mark.parametrize("alpha, beta, x, expected", [
    (1.0, 1.0, 5.0, math.exp(-5.0)),
    (0.5, 1.0, 3.0, float(erfcx(3.0))),
    (1.0, 2.0, 4.0, -math.expm1(-4.0) / 4.0),
])
def test_mp_reference_matches_identities(alpha, beta, x, expected):
    got = float(checks.ml_negative_mp(alpha, beta, mp.mpf(x))[0])
    assert got == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("alpha, beta", [(0.48, 1.0), (0.7, 0.5), (0.3, 1.3)])
def test_double_double_reference_matches_mpmath(alpha, beta):
    # arguments across the band where the series cancels by 1 to 3 digits
    x = np.array([0.4, 1.0, 1.6, 2.2])
    e, x_de, bound = checks.ml_negative_dd(alpha, beta, x, np.zeros_like(x))
    for i, xi in enumerate(x):
        ref, ref_x_de, _ = checks.ml_negative_mp(alpha, beta, mp.mpf(xi))
        assert bound[i] <= 1e-16 * abs(e[i])
        assert abs(e[i] - ref) <= 1.2e-16 * abs(ref)
        assert abs(x_de[i] - ref_x_de) <= 1e-15 * abs(ref_x_de)


@pytest.mark.parametrize("problem, scales", [
    (KineticProblem(nu=0.63, c=2.0, N_a=1.3), 5.0),           # double-double, every node
    (KineticProblem(nu=0.7, c=0.5, N_a=0.8, mu=1.4), 5.0),    # power source, every node
    (KineticProblem(nu=0.8, c=1.0, N_a=1.0), 60.0),           # mpmath beyond, sampled
    (KineticProblem(nu=0.5, c=1.5, N_a=1.1, mu=0.5), 5.0),    # identity, every node
])
def test_closed_form_check_rejects_scaled_curve(problem, scales):
    op = _op("closed_form", problem, 120, scales)
    checker, result = _checked(op)
    result.curves["closed"] = result.curves["closed"] * (1.0 + 1e-9)
    assert any("relative error" in m for m in checker.check(op, result))
    assert not result.failed


def test_closed_form_check_rejects_increase():
    op = _op("closed_form", KineticProblem(nu=0.63, c=2.0, N_a=1.3), 120)
    checker, result = _checked(op)
    values = result.curves["closed"].copy()
    values[60] = np.nextafter(values[59], np.inf)
    result.curves["closed"] = values
    assert any("increases" in m for m in checker.check(op, result))


def _known_fault_op(known_fault):
    nu, mu, scales = workloads.CLOSED_FORM_KNOWN_FAULTS[0]
    p = KineticProblem(nu=nu, c=workloads.CLOSED_FORM_C, N_a=2.0, mu=mu)
    return workloads.Op("closed_form", p, UniformGrid.from_span(0.0, scales / p.c, 2000),
                        known_fault=known_fault)


def test_known_fault_curve_counts_as_failed():
    op = _known_fault_op(known_fault=True)
    result = workloads.run(op)
    assert checks.Checker(seed=3).check(op, result) == []
    assert result.failed and "37 of 2000" in result.failure


def test_contract_breach_of_any_other_curve_is_incorrect():
    op = _known_fault_op(known_fault=False)
    result = workloads.run(op)
    msgs = checks.Checker(seed=3).check(op, result)
    assert any("relative error" in m for m in msgs) and not result.failed


@pytest.mark.parametrize("scheme", ["march", "picard"])
def test_oracle_check_rejects_shifted_curve(scheme):
    op = _op("oracle", KineticProblem(nu=0.5, c=1.5, N_a=1.1), workloads.ORACLE_N)
    checker, result = _checked(op)
    bound = checks.oracle_bound(op, checker._refs[op])
    result.curves[scheme] = result.curves[scheme] + 2.0 * bound
    assert any(scheme in m for m in checker.check(op, result))


@pytest.mark.parametrize("nu, mu", workloads.IDENTITY_CASES)
def test_oracle_check_rejects_error_four_times_larger(nu, mu):
    op = _op("oracle", KineticProblem(nu=nu, c=0.7, N_a=1.2, mu=mu), workloads.ORACLE_N)
    checker, result = _checked(op)
    ref = checker._refs[op]
    for scheme, values in result.curves.items():
        worse = values.copy()
        worse[ref.index] = ref.values + 4.0 * (values[ref.index] - ref.values)
        result.curves[scheme] = worse
    assert len(checker.check(op, result)) == 2


def _verify_op():
    p = KineticProblem(nu=0.8, c=1.7, N_a=0.9)
    return workloads.Op("verify", p, UniformGrid.from_span(0.0, 1.0 / p.c, 200),
                        workloads._ladder_argv(p))


def test_verify_check_rejects_scaled_neumann_closed_form():
    op = _verify_op()
    checker, result = _checked(op)
    result.curves["closed"] = result.curves["closed"] * (1.0 + 1e-9)
    assert any("envelope" in m for m in checker.check(op, result))


def test_verify_check_rejects_verdict_that_contradicts_the_report():
    op = _verify_op()
    checker, result = _checked(op)
    result.exit_code = 1
    assert any("disagrees" in m for m in checker.check(op, result))


def test_kept_ladder_fails_and_its_report_agrees():
    p = KineticProblem(nu=0.3, c=1.0, N_a=1.0, mu=1.5)
    op = workloads.Op("verify", p, None, workloads._ladder_argv(p))
    result = workloads.run(op)
    assert result.failed and result.exit_code == 1
    assert checks.check_verify(op, result) == []


def test_tracer_counts_calls_and_restores_the_program():
    original = kinetics.closed_form_curve
    op = _op("closed_form", KineticProblem(nu=0.8, c=1.0, N_a=1.0), 50)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.run(op)
    finally:
        tracer.uninstall()
    assert kinetics.closed_form_curve is original
    m = tracer.layer_metrics()
    assert m["mittag_leffler.calls"][0] == op.grid.n
    assert m["kinetics.closed_form.self_s"][0] > 0.0


def test_reference_allows_argument_rounding_next_to_a_zero():
    # E[0.7, 0.5](-x) changes sign near x = 1.6535; a relative change of one
    # ulp in x moves N there by ~2e-13 of its value.
    p = KineticProblem(nu=0.7, c=3.563725162031566, N_a=1.3604487857220122, mu=0.5)
    t = UniformGrid.from_span(0.0, 5.0 / p.c, 2000).times()[820]
    ref, slack = checks.solution_mp(p, t)
    err = abs(kinetics.power_source_solution(p, t) - ref)
    assert checks.REL_CONTRACT * abs(ref) < err <= checks.REL_CONTRACT * abs(ref) + slack
