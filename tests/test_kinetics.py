import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

from conftest import ml_reference, ml_reference_negative
from fracrelax.gammafn import gamma, reciprocal_gamma
from fracrelax.grids import DomainError, GridFunction, GridMismatchError, UniformGrid
from fracrelax import kinetics, mittag_leffler, verification, volterra
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
from fracrelax.riemann_liouville import (
    UnsupportedOrderError,
    rl_derivative_numeric,
    rl_integral_numeric,
)
from fracrelax.verification import run_verification
from fracrelax.volterra import OracleConfig, solve_volterra

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
            dict(nu=1.5, c=1e308, N_a=1.0),  # c^nu overflows double range
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
        # E[0.6](-40^0.6) lies past the far switch z = -10 nu, where the
        # contour's far form carries it; a fallback there once gave -146.2
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

    def test_power_overflow_refused(self):
        # (-c^nu)^m passes double range at m = 4; term 3 keeps its bits
        p = KineticProblem(nu=0.3, c=1e308, N_a=1.0)
        coef, expo = neumann_term(p, 3)
        assert coef == gamma(1.0) * -(p.rate_factor**3) * reciprocal_gamma(3 * 0.3 + 1.0)
        assert expo == 3 * 0.3
        with pytest.raises(DomainError, match=r"\(-c\^nu\)\^4 overflows double range"):
            neumann_term(p, 4)

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
        # node j sits at t - a = j h, which the a = 0 twin takes at t = j h
        twin = replace(problem, a=0.0)
        grid = UniformGrid.from_span(problem.a, problem.default_span(), 200)
        curve = neumann_curve(problem, grid, M)
        for j, dt in enumerate(grid.offsets()[1:], start=1):
            ref, scale = self.reference(twin, dt, M)
            assert abs(curve.values[j] - ref) <= 4 * np.finfo(float).eps * scale
            assert neumann_partial_sum(twin, dt, M) == curve.values[j]
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

    def test_impulse_response_curve_meets_contract(self):
        # mu = nu: N = Gamma(nu) t^(nu-1) E[nu, nu](-t^nu); past t^nu = 10 nu
        # 31 of these 50 nodes were once certified up to 3.8e-3 off
        nu = 0.6
        p = KineticProblem(nu=nu, c=1.0, N_a=1.0, mu=nu)
        g = UniformGrid.from_span(0.0, 50.0, 50)
        curve = closed_form_curve(p, g)
        for t, value in zip(g.times()[1:], curve.values[1:]):
            e = ml_reference(nu, nu, -(t**nu), dps=40 + int(t))
            ref = math.gamma(nu) * t ** (nu - 1.0) * e
            assert value == pytest.approx(ref, rel=1e-13, abs=0), t

    def test_large_mu_power_source_curve_meets_contract(self):
        # mu - nu = 28.8: a contour on E[1.2, 30] itself once certified all
        # 50 nodes wrong, up to 1.9e80 relative
        nu, mu = 1.2, 30.0
        p = KineticProblem(nu=nu, c=1.0, N_a=1.0, mu=mu)
        g = UniformGrid.from_span(0.0, 5.0, 50)
        curve = closed_form_curve(p, g)
        for t, value in zip(g.times()[1:], curve.values[1:]):
            ref = math.gamma(mu) * t ** (mu - 1.0) * ml_reference(nu, mu, -(t**nu), dps=40)
            assert value == pytest.approx(ref, rel=1e-13, abs=0), t

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


class TestCurveIsAGridFunction:
    """A SolutionCurve is a GridFunction with a problem and a method tag."""

    P = KineticProblem(nu=0.5, c=1.0, N_a=1.5, a=0.25)
    GRID = UniformGrid.from_span(0.25, 5.0, 200)

    @classmethod
    def curves(cls):
        p, g = cls.P, cls.GRID
        closed = closed_form_curve(p, g)
        return {
            "closed_form": closed,
            "neumann": neumann_curve(p, g, 30),
            "oracle": volterra.solve_volterra(p, volterra.OracleConfig(g)),
            "picard": volterra.solve_volterra(
                p, volterra.OracleConfig(g, scheme="picard")
            ),
            "restricted": kinetics.restrict_curve(
                closed, UniformGrid.from_span(0.25, 5.0, 100)
            ),
        }

    def test_every_producer_returns_a_grid_function(self):
        for name, curve in self.curves().items():
            assert isinstance(curve, SolutionCurve), name
            assert isinstance(curve, GridFunction), name
            assert curve.problem is self.P, name

    def test_curves_go_into_the_numeric_operators_as_they_are(self):
        for name, curve in self.curves().items():
            before = curve.values.copy()
            plain = GridFunction(grid=curve.grid, values=curve.values.copy())
            integral = rl_integral_numeric(curve, self.P.nu)
            assert np.array_equal(
                integral.values, rl_integral_numeric(plain, self.P.nu).values
            ), name
            derivative = rl_derivative_numeric(curve, self.P.nu)
            assert np.array_equal(
                derivative.values,
                rl_derivative_numeric(plain, self.P.nu).values,
                equal_nan=True,
            ), name
            assert np.array_equal(curve.values, before), name

    def make(self, values=None, **overrides):
        kwargs = dict(
            problem=self.P,
            grid=self.GRID,
            values=np.ones(self.GRID.n + 1) if values is None else values,
            method_tag="closed_form",
        )
        kwargs.update(overrides)
        return SolutionCurve(**kwargs)

    def test_refuses_an_unknown_method_tag(self):
        self.make()
        with pytest.raises(ValueError, match="unknown method tag"):
            self.make(method_tag="spline")

    def test_refuses_a_grid_that_does_not_start_at_a(self):
        with pytest.raises(GridMismatchError):
            self.make(grid=UniformGrid.from_span(0.0, 5.0, 200))

    def test_refuses_a_wrong_shape(self):
        for values in (np.ones(200), np.ones(202), np.ones((201, 1))):
            with pytest.raises(GridMismatchError):
                self.make(values=values)

    @pytest.mark.parametrize("singular", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_value_past_a(self, bad, singular):
        values = np.ones(self.GRID.n + 1)
        if singular:
            values[0] = math.nan
        values[17] = bad
        with pytest.raises(DomainError):
            self.make(values=values, singular_start=singular)

    def test_refuses_a_start_that_does_not_match_the_flag(self):
        values = np.ones(self.GRID.n + 1)
        with pytest.raises(DomainError):
            self.make(values=values, singular_start=True)
        values[0] = math.nan
        with pytest.raises(DomainError):
            self.make(values=values)
        assert math.isnan(self.make(values=values, singular_start=True).values[0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_refuses_an_infinite_start(self, bad):
        values = np.ones(self.GRID.n + 1)
        values[0] = bad
        with pytest.raises(DomainError):
            self.make(values=values)


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
        real = mittag_leffler.ml_eval_detailed
        calls = []

        def corrupted(params, z, summed=None):
            calls.append(z)
            res = real(params, z, summed)
            return replace(res, value=26489.86) if len(calls) == 51 else res

        monkeypatch.setattr(mittag_leffler, "ml_eval_detailed", corrupted)
        with pytest.raises(RelaxationInvariantError, match="node 51"):
            closed_form_curve(KineticProblem(nu=0.6, c=1.0, N_a=1.0),
                              UniformGrid.from_span(0.0, 40.0, 100))

    @pytest.mark.parametrize("nu, mu, c, a, span", [
        (0.6, None, 1.3, 0.0, 40.0), (0.7, 1.5, 1.0, 0.0, 40.0),
        # 5/c windows in every evaluator regime, some starting away from 0
        (0.3, None, 1.0, 0.0, 5.0), (0.48091570891331814, None, 2.9, 1.7, 5.0 / 2.9),
        (1.0, None, 2.9, -3.1, 5.0 / 2.9), (1.5, None, 1.0, 0.0, 5.0),
        (0.7, 0.5, 1.0, 0.0, 5.0), (0.5, 1.3, 0.37, 1.7, 5.0 / 0.37),
        (1.0, 2.0, 2.9, 0.0, 5.0 / 2.9), (0.9, 0.8, 1.0, -3.1, 5.0),
    ])
    def test_curve_matches_pointwise_solutions(self, nu, mu, c, a, span):
        # the curve and the pointwise forms share E and the prefactor, bitwise;
        # node j sits at t - a = j h, which the a = 0 twin takes at t = j h
        p = KineticProblem(nu=nu, c=c, N_a=1.7, a=a, mu=mu)
        twin = replace(p, a=0.0)
        g = UniformGrid.from_span(a, span, 400)
        curve = closed_form_curve(p, g)
        solution = relaxation_solution if p.mu is None else power_source_solution
        for dt, v in zip(g.offsets()[1:], curve.values[1:]):
            assert v == solution(twin, dt)
            assert v == solution(twin, float(dt))


# (nu, mu, c, a): plain and power-source curves in every evaluator regime,
# some with a window start away from 0
LADDER_PROBLEMS = [
    (0.3, None, 1.0, 0.0), (0.48091570891331814, None, 2.9, 1.7), (0.75, None, 0.37, 0.0),
    (1.0, None, 2.9, -3.1), (1.5, None, 1.0, 0.0), (0.7, 0.5, 1.0, 0.0),
    (0.5, 1.3, 0.37, 1.7), (1.0, 2.0, 2.9, 0.0), (0.9, 0.8, 1.0, -3.1),
]


class TestWindowStart:
    """Every curve and residual is sampled at t - a = j h, so a window that
    starts at a gives bitwise the values of its a = 0 twin."""

    @staticmethod
    def samples(problem):
        grid = UniformGrid.from_span(problem.a, 5.0 / problem.c, 200)
        closed = closed_form_curve(problem, grid)
        curves = [closed, neumann_curve(problem, grid, 30),
                  solve_volterra(problem, OracleConfig(grid=grid)),
                  integral_equation_residual(problem, closed)]
        if problem.mu is None and problem.nu < 1.0:
            curves.append(differential_equation_residual(problem, closed))
        return [curve.values.tobytes() for curve in curves]

    @pytest.mark.parametrize("a", [1.7, -3.1, 1e9])
    @pytest.mark.parametrize("nu, mu, c", [(nu, mu, c) for nu, mu, c, _ in LADDER_PROBLEMS])
    def test_values_equal_the_origin_twin(self, nu, mu, c, a):
        p = KineticProblem(nu=nu, c=c, N_a=1.3, a=a, mu=mu)
        assert self.samples(p) == self.samples(replace(p, a=0.0))


class TestRestriction:
    @pytest.mark.parametrize("nu, mu, c, a", LADDER_PROBLEMS)
    def test_restriction_is_bitwise_the_coarse_curve(self, nu, mu, c, a):
        p = KineticProblem(nu=nu, c=c, N_a=1.3, a=a, mu=mu)
        fine = closed_form_curve(p, UniformGrid.from_span(a, 5.0 / c, 1000))
        for n in (500, 250, 125):
            coarse = UniformGrid.from_span(a, 5.0 / c, n)
            restricted = kinetics.restrict_curve(fine, coarse)
            direct = closed_form_curve(p, coarse)
            assert restricted.grid == coarse
            assert restricted.singular_start == direct.singular_start
            assert np.array_equal(restricted.values, direct.values, equal_nan=True)

    def test_restriction_refuses_grids_that_do_not_nest(self):
        p = KineticProblem(nu=0.7, c=1.0, N_a=1.0)
        fine = closed_form_curve(p, UniformGrid.from_span(0.0, 5.0, 300))
        for coarse in (UniformGrid.from_span(0.0, 5.0, 200),   # 300 / 200 steps
                       UniformGrid.from_span(0.0, 4.0, 100),   # another span
                       UniformGrid.from_span(0.0, 5.0, 100)):  # h / 3 is not exact
            with pytest.raises(GridMismatchError):
                kinetics.restrict_curve(fine, coarse)

    def test_restriction_checks_the_invariant_again(self):
        # each step rises by 1.5e-13, inside the evaluator's slack; two steps
        # rise by 3e-13, outside it
        p = KineticProblem(nu=0.7, c=1.0, N_a=2.0)
        g = UniformGrid.from_span(0.0, 5.0, 100)
        ratio = 0.5 * (1.0 + 1.5e-13) ** np.arange(g.n)
        kinetics._check_relaxation_invariant(p, ratio)
        values = np.concatenate(([p.N_a], p.N_a * ratio))
        curve = SolutionCurve(problem=p, grid=g, values=values, method_tag="closed_form")
        with pytest.raises(RelaxationInvariantError):
            kinetics.restrict_curve(curve, UniformGrid.from_span(0.0, 5.0, 50))

    @pytest.mark.parametrize("nu, mu, c, a", LADDER_PROBLEMS[:6])
    def test_ladder_evaluates_the_closed_form_once(self, nu, mu, c, a, monkeypatch):
        p = KineticProblem(nu=nu, c=c, N_a=1.3, a=a, mu=mu)
        calls, seen = [], []
        real_curve = verification.closed_form_curve
        real_residual = verification.integral_equation_residual

        def counting(problem, grid):
            calls.append(grid.n)
            return real_curve(problem, grid)

        def capturing(problem, curve, weights=None):
            seen.append(curve)  # the ladder hands every level's curve in here
            return real_residual(problem, curve, weights=weights)

        monkeypatch.setattr(verification, "closed_form_curve", counting)
        monkeypatch.setattr(verification, "integral_equation_residual", capturing)
        verification.run_verification(p, base_n=100, levels=3)
        assert calls == [400]
        assert [curve.grid.n for curve in seen] == [100, 200, 400]
        for curve in seen:
            direct = real_curve(p, curve.grid)
            assert np.array_equal(curve.values, direct.values, equal_nan=True)

    def test_ladder_above_the_node_cap_evaluates_nothing(self, monkeypatch):
        # the finest grid, 262144 * 4 steps, is refused before any curve
        calls = []
        real = mittag_leffler.ml_eval_detailed

        def counting(params, z, summed=None):
            calls.append(z)
            return real(params, z, summed)

        monkeypatch.setattr(mittag_leffler, "ml_eval_detailed", counting)
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        with pytest.raises(DomainError, match="1048576 steps, above the cap"):
            run_verification(p, base_n=262144, levels=3)
        assert calls == []
        run_verification(p, base_n=100, levels=2)
        assert len(calls) == 200  # the spy sees the evaluations it should


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

    @pytest.mark.parametrize("mu", [None, 1.0, 1.5, 2.5])
    def test_regular_residual_is_the_unpeeled_one(self, mu):
        # depth 0: P = 0 and G_F is the forcing N_a (t-a)^(mu-1) itself
        p = KineticProblem(nu=0.7, c=1.3, N_a=0.8, mu=mu)
        g = UniformGrid.from_span(0.0, p.default_span(), 64)
        curve = closed_form_curve(p, g)
        P, G_F = peeled_source(p, g, 0)
        assert not P.any()
        t = g.times()
        forcing = p.N_a * t ** (p.mu_eff - 1.0)
        assert G_F == pytest.approx(forcing, rel=1e-15, abs=0)
        r = integral_equation_residual(p, curve)
        integral = rl_integral_numeric(curve, p.nu).values
        direct = curve.values - forcing + p.rate_factor * integral
        assert not r.singular_start
        assert r.values == pytest.approx(direct, rel=1e-12, abs=1e-15)

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

    def test_divergent_remainder_refused(self):
        # twelve peeled terms leave the forcing exponent 12 nu + mu - 1 < 0;
        # the residual of the exact solution would grow under refinement
        p = KineticProblem(nu=0.01, c=1.0, N_a=1.0, mu=0.5)
        g = UniformGrid.from_span(0.0, p.default_span(), 200)
        curve = closed_form_curve(p, g)
        with pytest.raises(DomainError, match="-0.38 still diverges at t = a") as exc:
            integral_equation_residual(p, curve)
        assert "peel_depth" not in str(exc.value)


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

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_equals_the_start_term_form(self, corrupt):
        # D^nu (N - N_a) + c^nu N against D^nu N - N_a (t-a)^-nu / Gamma(1-nu)
        # + c^nu N; the residual is a small difference of these terms, so the
        # rounding of either form is bounded relative to their magnitudes
        p = KineticProblem(nu=0.4, c=1.3, N_a=2.0)
        g = UniformGrid.from_span(0.0, p.default_span(), 200)
        curve = closed_form_curve(p, g)
        if corrupt:
            curve.values[60] *= 1.01
        t = g.times()[1:]
        terms = [rl_derivative_numeric(curve, p.nu).values[1:],
                 -p.N_a * t ** -p.nu / math.gamma(1.0 - p.nu),
                 p.rate_factor * curve.values[1:]]
        r = differential_equation_residual(p, curve)
        assert math.isnan(r.values[0])
        assert np.all(np.abs(r.values[1:] - sum(terms))
                      <= 1e-12 * sum(np.abs(term) for term in terms))
        if corrupt:
            assert np.abs(r.values[1:]).max() > 0.1

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

    def test_divergent_remainder_refused(self):
        p = KineticProblem(nu=0.01, c=1.0, N_a=1.0, mu=0.5)
        g = UniformGrid.from_span(0.0, 5.0, 100)
        assert auto_peel_depth(p) == 12
        with pytest.raises(DomainError, match=r"after 12 peeled Neumann terms"):
            peeled_source(p, g, 12)
        # one more term makes the exponent 13 nu + mu - 1 = -0.37: still refused
        with pytest.raises(DomainError):
            peeled_source(p, g, 13)
        peeled_source(p, g, 50)  # 50 nu + mu - 1 = 0: a bounded remainder
