import math
import warnings

import numpy as np
import pytest
from scipy.special import erfc

from conftest import ml_reference, ml_reference_negative
from fracrelax.grids import DomainError, GridMismatchError, UniformGrid
from fracrelax import kinetics
from fracrelax.kinetics import (
    KineticProblem,
    RelaxationInvariantError,
    SolutionCurve,
    auto_peel_depth,
    closed_form_curve,
    differential_equation_residual,
    integral_equation_residual,
    neumann_curve,
    neumann_partial_sum,
    neumann_term,
    peeled_source,
    power_source_solution,
    power_source_solution_origin,
    relaxation_solution,
    relaxation_solution_origin,
)
from fracrelax.riemann_liouville import UnsupportedOrderError
from fracrelax.verification import run_verification

# high-precision brute-force values, frozen from 50-digit summation
GAMMA_HALF_E_HALF_HALF_M1 = 0.24212784385868789  # Gamma(0.5) E[0.5,0.5](-1)
TWO_GAMMA_32_E_HALF_32_M1 = 1.0145816947642039  # 2 Gamma(1.5) E[0.5,1.5](-1)


class TestProblemType:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nu=0.0, c=1.0, N_a=1.0),
            dict(nu=1.0, c=0.0, N_a=1.0),
            dict(nu=1.0, c=-2.0, N_a=1.0),
            dict(nu=1.0, c=1.0, N_a=math.inf),
            dict(nu=1.0, c=1.0, N_a=1.0, mu=0.0),
            dict(nu=1.0, c=1.0, N_a=1.0, mu=-1.0),
        ],
    )
    def test_invalid_problems(self, kwargs):
        with pytest.raises(DomainError):
            KineticProblem(**kwargs)

    def test_effective_exponent_and_span(self):
        p = KineticProblem(nu=0.5, c=2.0, N_a=1.0)
        assert p.mu_eff == 1.0
        assert p.default_span() == 2.5
        assert KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=0.7).mu_eff == 0.7


class TestRelaxationSolution:
    def test_classical_point(self):
        p = KineticProblem(nu=1.0, c=2.0, N_a=1.0)
        assert relaxation_solution(p, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_half_order_point(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        assert relaxation_solution(p, 1.0) == pytest.approx(
            math.e * erfc(1.0), rel=1e-10
        )

    def test_initial_condition_limit(self):
        # N(t) -> N_a as t -> a, at the rate of the leading series terms:
        # N_a E[nu](-x) = N_a (1 - x/Gamma(1+nu) + x^2/Gamma(1+2nu) - ...)
        # with x = (c t)^nu = 1e-6; the omitted x^3 term is ~1e-18 relative
        p = KineticProblem(nu=0.75, c=1.0, N_a=2.5)
        x = (1e-8) ** 0.75
        expected = 2.5 * (1.0 - x / math.gamma(1.75) + x * x / math.gamma(2.5))
        assert relaxation_solution(p, 1e-8) == pytest.approx(expected, rel=1e-13)

    def test_far_tail_stays_positive(self):
        # E[0.6](-40^0.6) lies past the asymptotic switch where the
        # expansion cannot certify itself; its fallback once gave -146.2
        p = KineticProblem(nu=0.6, c=1.0, N_a=1.0)
        value = relaxation_solution(p, 40.0)
        assert value > 0.0
        assert value == pytest.approx(
            ml_reference_negative(0.6, 40.0**0.6), rel=1e-13
        )

    def test_rejects_bad_time_and_mu(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        with pytest.raises(DomainError):
            relaxation_solution(p, 0.0)
        with pytest.raises(DomainError):
            relaxation_solution(KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=1.0), 1.0)

    def test_origin_form_value(self):
        assert relaxation_solution_origin(1.0, 1.0, 3.0, 0.5) == pytest.approx(
            3.0 * math.exp(-0.5), rel=1e-12
        )

    def test_origin_form_is_bitwise_delegation(self):
        p = KineticProblem(nu=0.6, c=1.3, N_a=2.0, a=0.0)
        for t in (0.1, 1.0, 4.0):
            assert relaxation_solution_origin(0.6, 1.3, 2.0, t) == relaxation_solution(
                p, t
            )


class TestPowerSourceSolution:
    def test_mu_one_reduces_to_relaxation(self):
        p1 = KineticProblem(nu=0.7, c=1.0, N_a=1.5)
        p2 = KineticProblem(nu=0.7, c=1.0, N_a=1.5, mu=1.0)
        for t in np.linspace(0.05, 5.0, 40):
            assert power_source_solution(p2, t) == pytest.approx(
                relaxation_solution(p1, t), rel=1e-14
            )

    def test_beta_two_point(self):
        p = KineticProblem(nu=1.0, c=1.0, N_a=1.0, mu=2.0)
        expected = 1.0 - math.exp(-1.0)  # Gamma(2) E[1,2](-1)
        assert power_source_solution(p, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_singular_source_point(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=0.5)
        assert power_source_solution(p, 1.0) == pytest.approx(
            GAMMA_HALF_E_HALF_HALF_M1, rel=1e-12
        )

    def test_origin_form(self):
        assert power_source_solution_origin(0.5, 1.5, 1.0, 2.0, 1.0) == pytest.approx(
            TWO_GAMMA_32_E_HALF_32_M1, rel=1e-12
        )
        p = KineticProblem(nu=0.5, c=1.0, N_a=2.0, a=0.0, mu=1.5)
        for t in (0.3, 1.0, 3.3):
            assert power_source_solution_origin(
                0.5, 1.5, 1.0, 2.0, t
            ) == power_source_solution(p, t)

    def test_requires_mu(self):
        with pytest.raises(DomainError):
            power_source_solution(KineticProblem(nu=0.5, c=1.0, N_a=1.0), 1.0)


class TestNeumann:
    def test_zeroth_partial_sum(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=3.25)
        assert neumann_partial_sum(p, 1.7, 0) == 3.25

    def test_converges_to_exponential(self):
        p = KineticProblem(nu=1.0, c=1.0, N_a=1.0)
        assert neumann_partial_sum(p, 1.0, 30) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_alternating_envelope(self):
        # |S_M - closed| <= |next term| while the terms decrease
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        t = 1.0
        closed = relaxation_solution(p, t)
        for M in range(1, 12):
            coef, expo = neumann_term(p, M + 1)
            nxt = abs(coef) * t**expo
            assert abs(neumann_partial_sum(p, t, M) - closed) <= nxt + 1e-15

    def test_rejects_negative_order(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        with pytest.raises(DomainError):
            neumann_partial_sum(p, 1.0, -1)
        with pytest.raises(DomainError):
            neumann_curve(p, UniformGrid.from_span(0.0, 1.0, 10), -1)


class TestNeumannCurve:
    """The array partial sum against a per-node Python-float sum."""

    PROBLEMS = [
        KineticProblem(nu=0.5, c=1.0, N_a=1.0),
        KineticProblem(nu=0.1, c=2.7, N_a=0.5),
        KineticProblem(nu=1.0, c=1.3, N_a=2.0),
        KineticProblem(nu=2.0, c=0.8, N_a=1.0),
        KineticProblem(nu=0.37, c=1.9, N_a=1.5, a=0.25),
        KineticProblem(nu=0.6, c=1.0, N_a=1.0, mu=0.5),
        KineticProblem(nu=0.2, c=2.0, N_a=1.0, mu=0.3),
        KineticProblem(nu=0.9, c=1.0, N_a=2.0, mu=2.0),
        KineticProblem(nu=1.7, c=0.6, N_a=1.0, mu=1.5),
    ]

    @staticmethod
    def reference(problem, t, M):
        # The per-node loop: one Python float power per term.
        dt = t - problem.a
        total = scale = 0.0
        for m in range(M + 1):
            coef, expo = neumann_term(problem, m)
            term = coef * (dt**expo if expo != 0.0 else 1.0)
            total += term
            scale += abs(term)
        return total, scale

    @pytest.mark.parametrize("M", [0, 1, 30])
    @pytest.mark.parametrize("problem", PROBLEMS, ids=str)
    def test_matches_per_node_sum(self, problem, M):
        grid = UniformGrid.from_span(problem.a, problem.default_span(), 200)
        curve = neumann_curve(problem, grid, M)
        for j, t in enumerate(grid.times()[1:], start=1):
            ref, scale = self.reference(problem, t, M)
            assert abs(curve.values[j] - ref) <= 4 * np.finfo(float).eps * scale
            assert neumann_partial_sum(problem, t, M) == curve.values[j]
        assert curve.singular_start == (problem.mu_eff < 1.0)

    def test_coefficients_once_per_curve(self, monkeypatch):
        calls = []

        def spy(fn):
            def wrapped(x):
                calls.append(x)
                return fn(x)

            return wrapped

        monkeypatch.setattr(kinetics, "gamma", spy(kinetics.gamma))
        monkeypatch.setattr(
            kinetics, "reciprocal_gamma", spy(kinetics.reciprocal_gamma)
        )
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        M = 30
        neumann_curve(p, UniformGrid.from_span(0.0, 5.0, 1000), M)
        assert 0 < len(calls) <= 2 * (M + 1)


class TestCurves:
    def test_closed_curve_plain(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=2.0)
        g = UniformGrid.from_span(0.0, 5.0, 50)
        curve = closed_form_curve(p, g)
        assert curve.method_tag == "closed_form"
        assert not curve.singular_start
        assert curve.values[0] == 2.0
        assert np.all(np.isfinite(curve.values))
        # positive, monotone decay
        assert np.all(curve.values > 0.0)
        assert np.all(np.diff(curve.values) <= 1e-14)

    def test_closed_curve_singular(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=0.5)
        g = UniformGrid.from_span(0.0, 5.0, 50)
        curve = closed_form_curve(p, g)
        assert curve.singular_start and math.isnan(curve.values[0])
        assert np.all(np.isfinite(curve.values[1:]))

    def test_neumann_curve_zero_terms_is_flat(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.7)
        g = UniformGrid.from_span(0.0, 1.0, 10)
        curve = neumann_curve(p, g, 0)
        assert curve.method_tag == "neumann"
        assert np.allclose(curve.values, 1.7)

    def test_curve_grid_must_match_problem(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0, a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 10)
        with pytest.raises(GridMismatchError):
            closed_form_curve(p, g)

    def test_reduction_chain_pointwise(self):
        nu, c, N0 = 0.75, 1.3, 2.0
        p1 = KineticProblem(nu=nu, c=c, N_a=N0)
        p2 = KineticProblem(nu=nu, c=c, N_a=N0, mu=1.0)
        for t in np.linspace(0.05, 5.0, 100):
            v1 = relaxation_solution(p1, t)
            v2 = power_source_solution(p2, t)
            v3 = relaxation_solution_origin(nu, c, N0, t)
            v4 = power_source_solution_origin(nu, 1.0, c, N0, t)
            assert v2 == pytest.approx(v1, abs=1e-14 * max(1.0, abs(v1)))
            assert v3 == v1
            assert v4 == v2


class TestRelaxationInvariant:
    def test_true_curves_pass(self):
        for nu in (0.3, 0.7, 1.0):
            p = KineticProblem(nu=nu, c=1.0, N_a=-2.0)
            curve = closed_form_curve(p, UniformGrid.from_span(0.0, 40.0, 400))
            kinetics._check_relaxation_invariant(p, curve.values[1:] / p.N_a)

    @pytest.mark.parametrize("corrupt", [
        lambda r: r.__setitem__(30, r[29] * (1.0 + 1e-12)),  # increases
        lambda r: r.__setitem__(0, 1.0 + 1e-15),             # above N_a
        lambda r: r.__setitem__(50, -r[50]),                  # negative
        lambda r: r.__setitem__(50, 0.0),                     # vanishes, nu < 1
        lambda r: r.__setitem__(70, math.nan),
    ])
    def test_corrupted_curve_raises(self, corrupt):
        p = KineticProblem(nu=0.6, c=1.0, N_a=1.0)
        ratio = closed_form_curve(p, UniformGrid.from_span(0.0, 5.0, 100)).values[1:]
        corrupt(ratio)
        with pytest.raises(RelaxationInvariantError):
            kinetics._check_relaxation_invariant(p, ratio)

    def test_underflow_to_zero_allowed_only_for_exponential(self):
        ratio = np.exp(-np.linspace(8.0, 800.0, 100))  # 0.0 from e^-746 on
        assert ratio[-1] == 0.0
        kinetics._check_relaxation_invariant(KineticProblem(nu=1.0, c=1.0, N_a=1.0), ratio)
        with pytest.raises(RelaxationInvariantError):
            kinetics._check_relaxation_invariant(KineticProblem(nu=0.99, c=1.0, N_a=1.0), ratio)

    def test_closed_form_curve_checks_its_values(self, monkeypatch):
        # the kind of value the series ladder once returned: E[0.6](-10) = 26489.86
        real = kinetics.ml_eval
        calls = []

        def corrupted(params, z):
            calls.append(z)
            return 26489.86 if len(calls) == 51 else real(params, z)

        monkeypatch.setattr(kinetics, "ml_eval", corrupted)
        with pytest.raises(RelaxationInvariantError, match="node 51"):
            closed_form_curve(KineticProblem(nu=0.6, c=1.0, N_a=1.0),
                              UniformGrid.from_span(0.0, 40.0, 100))

    def test_curve_matches_pointwise_solutions(self):
        # the curve and the pointwise forms share E and the prefactor
        for p in (KineticProblem(nu=0.6, c=1.3, N_a=2.0),
                  KineticProblem(nu=0.7, c=1.0, N_a=1.7, mu=1.5)):
            g = UniformGrid.from_span(0.0, 40.0, 200)
            curve = closed_form_curve(p, g)
            solution = relaxation_solution if p.mu is None else power_source_solution
            for t, v in zip(g.times()[1:], curve.values[1:]):
                assert v == solution(p, t)


class TestIntegralResidual:
    def test_true_solution_residual_shrinks(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        maxima = []
        for n in (200, 400):
            g = UniformGrid.from_span(0.0, 5.0, n)
            curve = closed_form_curve(p, g)
            r = integral_equation_residual(p, curve)
            t = g.times()
            maxima.append(np.abs(r.values[t >= 0.25]).max())
        assert maxima[1] < maxima[0]
        assert maxima[1] < 1e-3

    def test_wrong_curve_detected(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 400)
        curve = closed_form_curve(p, g)
        wrong = SolutionCurve(
            problem=p,
            grid=g,
            values=2.0 * curve.values,
            method_tag="closed_form",
        )
        r = integral_equation_residual(p, wrong)
        assert np.abs(r.values).max() >= 0.5  # ~ N_a, nowhere near zero

    def test_no_decay_limit(self):
        p = KineticProblem(nu=0.5, c=1e-12, N_a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 50)
        flat = SolutionCurve(
            problem=p, grid=g, values=np.full(51, 1.0), method_tag="closed_form"
        )
        r = integral_equation_residual(p, flat)
        # the flat curve leaves exactly c^nu I^nu N_a = c^nu N_a t^nu /
        # Gamma(1+nu), since the product-trapezoid rule is exact on
        # constants: the residual vanishes with c at the rate c^nu
        t = g.times()
        expected = (1e-12) ** 0.5 * t[1:] ** 0.5 / math.gamma(1.5)
        assert r.values[0] == 0.0
        assert r.values[1:] == pytest.approx(expected, rel=1e-12)

    def test_singular_curve_residual(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=0.5)
        maxima = []
        for n in (200, 400):
            g = UniformGrid.from_span(0.0, 5.0, n)
            curve = closed_form_curve(p, g)
            r = integral_equation_residual(p, curve)
            assert r.singular_start and math.isnan(r.values[0])
            t = g.times()
            maxima.append(np.abs(r.values[t >= 0.25]).max())
        assert maxima[1] < maxima[0]

    def test_grid_mismatch(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        other = KineticProblem(nu=0.5, c=1.0, N_a=1.0, a=1.0)
        g = UniformGrid.from_span(1.0, 5.0, 20)
        curve = closed_form_curve(other, g)
        with pytest.raises(GridMismatchError):
            integral_equation_residual(p, curve)


class TestDifferentialResidual:
    def test_interior_residual_shrinks(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        maxima = []
        for n in (200, 400):
            g = UniformGrid.from_span(0.0, 5.0, n)
            curve = closed_form_curve(p, g)
            r = differential_equation_residual(p, curve)
            assert r.singular_start and math.isnan(r.values[0])
            t = g.times()
            maxima.append(np.abs(r.values[t >= 0.25]).max())
        assert maxima[1] < maxima[0]

    def test_classical_limit_small_residual(self):
        # nu -> 1: the equation tends to N' = -cN with the exponential curve
        p = KineticProblem(nu=0.999, c=1.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 500)
        curve = closed_form_curve(p, g)
        r = differential_equation_residual(p, curve)
        t = g.times()
        assert np.abs(r.values[t >= 0.5]).max() <= 0.05

    def test_rejects_unsupported_order_and_mu(self):
        g = UniformGrid.from_span(0.0, 5.0, 20)
        p1 = KineticProblem(nu=1.0, c=1.0, N_a=1.0)
        with pytest.raises(UnsupportedOrderError):
            differential_equation_residual(p1, closed_form_curve(p1, g))
        p2 = KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=1.5)
        with pytest.raises(DomainError):
            differential_equation_residual(p2, closed_form_curve(p2, g))


class TestPeeling:
    def test_auto_depth(self):
        assert auto_peel_depth(KineticProblem(nu=0.25, c=1.0, N_a=1.0)) == 4
        assert auto_peel_depth(KineticProblem(nu=1.0, c=1.0, N_a=1.0)) == 1
        assert auto_peel_depth(KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=0.5)) == 3
        assert auto_peel_depth(KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=2.5)) == 0

    def test_neumann_terms_alternate(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        coefs = [neumann_term(p, m)[0] for m in range(5)]
        assert coefs[0] == 1.0
        signs = [math.copysign(1.0, c) for c in coefs]
        assert signs == [1.0, -1.0, 1.0, -1.0, 1.0]

    def test_singular_head_is_undefined_at_start(self):
        # mu < 1 with peel depth >= 2: the head's first two terms diverge
        # with opposite signs at t = a, so node 0 has no value to compute
        p = KineticProblem(nu=0.2, c=1.0, N_a=1.0, mu=0.5)
        g = UniformGrid.from_span(0.0, 5.0, 100)
        depth = auto_peel_depth(p)
        assert depth >= 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P, G_F = peeled_source(p, g, depth)
            run_verification(p)
        assert math.isnan(P[0])
        assert np.isfinite(P[1:]).all() and np.isfinite(G_F).all()
