import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from conftest import dense_weights
from fracrelax.gammafn import reciprocal_gamma
from fracrelax.grids import (
    MAX_NODES,
    DomainError,
    GridFunction,
    GridMismatchError,
    UniformGrid,
)
from fracrelax.riemann_liouville import (
    UnsupportedOrderError,
    _backward_diff_pow,
    _binomial_tails,
    build_weights,
    rl_derivative_constant,
    rl_derivative_numeric,
    rl_derivative_power,
    rl_integral_numeric,
    rl_integral_power,
)

SQRT_PI = math.sqrt(math.pi)


def observed_order(coarse, fine):
    return math.log2(coarse / fine)


class TestGridTypes:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            UniformGrid(0.0, 0.0, 10)
        with pytest.raises(DomainError):
            UniformGrid(0.0, -0.5, 10)
        with pytest.raises(DomainError):
            UniformGrid(0.0, 0.1, 0)
        with pytest.raises(DomainError):
            UniformGrid(math.inf, 0.1, 10)

    @pytest.mark.parametrize("n", [2.5, 3.0, "4", None, 0, -2, np.int64(0)])
    def test_step_count_must_be_a_positive_integer(self, n):
        with pytest.raises(DomainError):
            UniformGrid(0.0, 0.4, n)
        with pytest.raises(DomainError):
            UniformGrid.from_span(0.0, 1.0, n)

    def test_node_cap(self):
        # both ways of making a grid refuse MAX_NODES + 1 steps
        assert UniformGrid(0.0, 1e-6, MAX_NODES).n == MAX_NODES
        with pytest.raises(DomainError, match="above the cap of 1000000"):
            UniformGrid(0.0, 1e-6, MAX_NODES + 1)
        with pytest.raises(DomainError, match="above the cap"):
            UniformGrid.from_span(0.0, 1.0, MAX_NODES + 1)

    def test_grid_end_must_be_finite(self):
        # a + n h = 2e308 passes double range, though a, h and n are valid
        with pytest.raises(DomainError, match="grid end .* overflows double range"):
            UniformGrid(1e308, 1e308, 1)
        with pytest.raises(DomainError, match="grid end"):
            UniformGrid.from_span(1e308, 1e308, 2)
        assert UniformGrid(-1e308, 1e308, 1).times()[-1] == 0.0

    def test_offsets_do_not_depend_on_the_start(self):
        g, far = UniformGrid(0.0, 0.1, 10), UniformGrid(1e12, 0.1, 10)
        assert far.offsets().tobytes() == g.offsets().tobytes() == g.times().tobytes()
        assert far.times().tobytes() == (1e12 + g.offsets()).tobytes()

    def test_numpy_integer_step_count(self):
        g = UniformGrid.from_span(0.0, 1.0, np.int64(4))
        assert g == UniformGrid(0.0, 0.25, 4) and g.times().size == 5

    def test_grid_nodes(self):
        g = UniformGrid.from_span(1.0, 2.0, 4)
        assert g.h == 0.5 and g.span == 2.0
        assert np.allclose(g.times(), [1.0, 1.5, 2.0, 2.5, 3.0])
        fine = UniformGrid.from_span(1.0, 2.0, 8)
        assert fine.n == 8 and fine.h == 0.25 and fine.a == 1.0

    def test_grid_function_validation(self):
        g = UniformGrid(0.0, 0.5, 2)
        with pytest.raises(GridMismatchError):
            GridFunction(grid=g, values=np.ones(2))
        with pytest.raises(DomainError):
            GridFunction(grid=g, values=np.array([1.0, math.inf, 1.0]))
        # singular start stores NaN at node 0 only when flagged
        with pytest.raises(DomainError):
            GridFunction(grid=g, values=np.array([math.nan, 1.0, 1.0]))
        gf = GridFunction(
            grid=g, values=np.array([math.nan, 1.0, 1.0]), singular_start=True
        )
        assert np.allclose(gf.defined_values(), [1.0, 1.0])


class TestPowerRules:
    def test_integral_power_values(self):
        # 1/Gamma(1.5) = 2/sqrt(pi)
        assert rl_integral_power(0.0, 1.0, 0.5, 1.0) == pytest.approx(
            2.0 / SQRT_PI, rel=1e-13
        )
        assert rl_integral_power(0.0, 1.0, 1.0, 2.0) == pytest.approx(2.0, rel=1e-14)
        assert rl_integral_power(1.0, 2.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-14)

    def test_integral_power_domain(self):
        with pytest.raises(DomainError):
            rl_integral_power(0.0, 1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            rl_integral_power(0.0, -1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            rl_integral_power(0.0, 1.0, 0.0, 1.0)

    def test_derivative_power_values(self):
        assert rl_derivative_power(0.0, 1.0, 0.5, 1.0) == pytest.approx(
            1.0 / SQRT_PI, rel=1e-13
        )
        # first derivative of the constant 1 vanishes identically
        assert rl_derivative_power(0.0, 1.0, 1.0, 1.0) == 0.0
        # d/dt t^2 at t = 2
        assert rl_derivative_power(0.0, 3.0, 1.0, 2.0) == pytest.approx(4.0, rel=1e-14)

    def test_derivative_constant(self):
        assert rl_derivative_constant(0.0, 0.5, 1.0) == pytest.approx(
            1.0 / SQRT_PI, rel=1e-13
        )
        assert rl_derivative_constant(0.0, 0.5, 4.0) == pytest.approx(
            0.5 / SQRT_PI, rel=1e-13
        )
        # integer order: pole of the reciprocal gamma gives exact zero
        assert rl_derivative_constant(0.0, 2.0, 3.0) == 0.0


class TestWeights:
    def test_trapezoid_reduction_at_nu_one(self):
        g = UniformGrid(0.0, 0.25, 4)
        w = build_weights(g, 1.0)
        h = g.h
        assert w.c0 == pytest.approx(h / 2, rel=1e-14)
        np.testing.assert_allclose(w.a0, np.full(4, h / 2), rtol=1e-14)
        np.testing.assert_allclose(w.d2, np.full(3, h), rtol=1e-14)

    def test_first_row_closed_form(self):
        # kernel moments over one unit cell: int (1-u)^(-1/2) (1-u) du = 2/3
        # and int (1-u)^(-1/2) u du = 4/3, divided by Gamma(1/2)
        g = UniformGrid(0.0, 1.0, 1)
        w = build_weights(g, 0.5)
        assert w.a0[0] == pytest.approx((2.0 / 3.0) / SQRT_PI, rel=1e-13)
        assert w.c0 == pytest.approx((4.0 / 3.0) / SQRT_PI, rel=1e-13)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.9])
    def test_row_sums_exact_on_constants(self, nu):
        g = UniformGrid.from_span(0.0, 5.0, 600)
        w = build_weights(g, nu)
        sums = w.apply(np.ones(g.n + 1))
        t = g.times()
        expected = t**nu * reciprocal_gamma(nu + 1.0)
        rel = np.abs(sums[1:] - expected[1:]) / expected[1:]
        assert rel.max() <= 1e-12

    @pytest.mark.parametrize("nu", [0.05, 0.3, 0.5, 0.9, 1.0, 1.3, 1.7, 1.95])
    def test_weight_coefficients_match_exact_values(self, nu):
        # both sides of the literal/series cut, and m up to the node cap
        ms = [*range(1, 10), 12, 50, 1e3, 1e5, 999_999]
        p = nu + 1.0
        d2, a0 = _binomial_tails(np.array(ms, dtype=float), p)
        with mp.workdps(50):
            pm = mp.mpf(p)
            for m, got_d2, got_a0 in zip(ms, d2, a0):
                mm = mp.mpf(m)
                exact_d2 = (mm + 1) ** pm - 2 * mm**pm + (mm - 1) ** pm
                exact_a0 = (mm - 1) ** pm - mm ** (pm - 1) * (mm - pm)
                assert got_d2 == pytest.approx(float(exact_d2), rel=1e-12, abs=0), m
                assert got_a0 == pytest.approx(float(exact_a0), rel=1e-12, abs=0), m

    @pytest.mark.parametrize("nu", [0.05, 0.3, 0.9, 1.3, 1.95, 22.0, 40.0, 80.0])
    def test_weight_coefficients_near_the_start_to_an_ulp(self, nu):
        # m = 1..7, where the literal forms once lost up to 1.9e-13; at large
        # nu the series in 1/m, taken from m = 3, was 8.0e-6 off at nu = 40,
        # so every m up to 2p checks both sides of its cut at ceil(p)
        p = nu + 1.0
        ms = range(1, max(8, round(2 * p) + 1))
        d2, a0 = _binomial_tails(np.array(ms, dtype=float), p)
        with mp.workdps(50):
            pm = mp.mpf(p)
            for m, got_d2, got_a0 in zip(ms, d2, a0):
                mm = mp.mpf(m)
                exact_d2 = (mm + 1) ** pm - 2 * mm**pm + (mm - 1) ** pm
                exact_a0 = (mm - 1) ** pm - mm ** (pm - 1) * (mm - pm)
                assert got_d2 == pytest.approx(float(exact_d2), rel=1e-15, abs=0), m
                assert got_a0 == pytest.approx(float(exact_a0), rel=1e-15, abs=0), m

    def test_invalid_order(self):
        g = UniformGrid.from_span(0.0, 1.0, 8)
        with pytest.raises(DomainError):
            build_weights(g, 0.0)

    @pytest.mark.parametrize("span, n, nu", [
        (1.0, 200, 150.0),  # (m + 1)^151 overflows from m = 110 on; NaN weights
        (1000.0, 10, 200.0),  # h^nu = 100^200; an untyped OverflowError
    ])
    def test_weights_past_double_range_are_refused(self, span, n, nu):
        g = UniformGrid.from_span(0.0, span, n)
        with pytest.raises(DomainError, match="leave double range"):
            build_weights(g, nu)

    @pytest.mark.parametrize("nu", [120.0, 150.0])
    def test_weights_whose_scale_underflows_are_refused(self, nu):
        # c0 = 8^-nu / Gamma(nu + 2) is subnormal at nu = 120 and 0 at 150,
        # where every weight was 0 and the integral of 1 read 0.0 in place
        # of 1/Gamma(151) = 1.75e-263
        g = UniformGrid.from_span(0.0, 1.0, 8)
        with pytest.raises(DomainError, match="underflow"):
            build_weights(g, nu)
        with pytest.raises(DomainError, match="underflow"):
            rl_integral_numeric(GridFunction(grid=g, values=np.ones(9)), nu)

    def test_weights_with_a_normal_scale_are_kept(self):
        # c0 = 5.2e-251 at nu = 100: the integral of 1 at t = 1 is 1/Gamma(101)
        g = UniformGrid.from_span(0.0, 1.0, 8)
        out = rl_integral_numeric(GridFunction(grid=g, values=np.ones(9)), 100.0)
        assert out.values[-1] == pytest.approx(float(mp.rgamma(101)), rel=1e-13)


def _test_vectors(n):
    t = np.linspace(0.0, 1.0, n + 1)
    rng = np.random.default_rng(n)
    return {
        "ones": np.ones(n + 1),
        "random": rng.standard_normal(n + 1),
        "oscillating": np.cos(0.37 * np.pi * np.arange(n + 1)) + 0.1 * t,
    }


class TestStructuredWeights:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 600, 4000])
    def test_apply_matches_dense_matrix(self, n):
        g = UniformGrid.from_span(0.0, 5.0, n)
        for nu in (0.1, 0.3, 0.5, 0.9, 1.0, 1.7):
            w = build_weights(g, nu)
            dense = dense_weights(w)
            for name, v in _test_vectors(n).items():
                # the FFT rounds relative to each row's magnitude
                scale = (np.abs(dense) @ np.abs(v)).max()
                gap = np.abs(w.apply(v) - dense @ v).max()
                assert gap <= 1e-13 * scale, (nu, name, gap / scale)

    def test_storage_is_linear_at_the_node_cap(self):
        g = UniformGrid.from_span(0.0, 5.0, 20000)
        tracemalloc.start()
        try:
            w = build_weights(g, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a dense matrix would need 8 (n+1)^2 bytes = 3.2 GB here
        assert peak < 2e6
        assert len(w.a0) == 20000


class TestNumericIntegral:
    def test_constant_matches_power_rule(self):
        g = UniformGrid.from_span(0.0, 2.0, 50)
        f = GridFunction(grid=g, values=np.ones(51))
        out = rl_integral_numeric(f, 0.5)
        t = g.times()
        expected = t**0.5 * reciprocal_gamma(1.5)
        assert out.values[0] == 0.0
        assert np.allclose(out.values[1:], expected[1:], rtol=1e-13)

    def test_order_one_running_integral(self):
        g = UniformGrid.from_span(0.0, 2.0, 40)
        f = GridFunction(grid=g, values=np.ones(41))
        out = rl_integral_numeric(f, 1.0)
        assert np.allclose(out.values, g.times(), atol=1e-14)

    def test_linear_data_exact_under_trapezoid(self):
        g = UniformGrid.from_span(0.0, 2.0, 40)
        t = g.times()
        f = GridFunction(grid=g, values=t.copy())
        out = rl_integral_numeric(f, 1.0)
        assert np.allclose(out.values, t**2 / 2.0, atol=1e-13)

    def test_linearity(self):
        g = UniformGrid.from_span(0.0, 1.0, 30)
        t = g.times()
        f1 = GridFunction(grid=g, values=np.sin(t))
        f2 = GridFunction(grid=g, values=np.cos(t))
        combo = GridFunction(grid=g, values=2.0 * np.sin(t) - 3.0 * np.cos(t))
        lhs = rl_integral_numeric(combo, 0.7).values
        rhs = (
            2.0 * rl_integral_numeric(f1, 0.7).values
            - 3.0 * rl_integral_numeric(f2, 0.7).values
        )
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_power_law_convergence_order(self):
        errs = []
        for n in (100, 200, 400):
            g = UniformGrid.from_span(0.0, 2.0, n)
            t = g.times()
            f = GridFunction(grid=g, values=t**2)
            out = rl_integral_numeric(f, 0.5)
            exact = np.array(
                [0.0] + [rl_integral_power(0.0, 3.0, 0.5, tv) for tv in t[1:]]
            )
            errs.append(np.abs(out.values - exact).max())
        assert observed_order(errs[0], errs[1]) >= 1.8
        assert observed_order(errs[1], errs[2]) >= 1.8

    def test_semigroup_under_refinement(self):
        # I^0.4 I^0.6 f = I^1 f.  The inner integral starts like
        # t^0.6 / Gamma(1.6), and on data like t^sigma the outer stage errs
        # at the first node like h^(nu + sigma) = h^1, approached from
        # below; on a fixed interior window the gap converges at ~1 + sigma.
        gaps, interior = [], []
        for n in (100, 200):
            g = UniformGrid.from_span(0.0, 1.0, n)
            f = GridFunction(grid=g, values=np.exp(g.times()))
            once = rl_integral_numeric(
                rl_integral_numeric(f, 0.6), 0.4
            ).values
            direct = rl_integral_numeric(f, 1.0).values
            gap = np.abs(once - direct)
            gaps.append(gap.max())
            interior.append(gap[g.times() >= 0.25].max())
        assert gaps[1] < gaps[0]
        assert observed_order(interior[0], interior[1]) >= 1.5

    def test_rejects_singular_input(self):
        g = UniformGrid(0.0, 0.5, 2)
        f = GridFunction(
            grid=g, values=np.array([math.nan, 1.0, 1.0]), singular_start=True
        )
        with pytest.raises(DomainError):
            rl_integral_numeric(f, 0.5)


class TestNumericDerivative:
    def test_constant_exact(self):
        # the interpolant of a constant is the constant: the derivative of
        # the constant term is carried analytically, so this is exact
        g = UniformGrid.from_span(0.0, 2.0, 80)
        f = GridFunction(grid=g, values=np.ones(81))
        for nu in (0.3, 0.5, 0.7):
            out = rl_derivative_numeric(f, nu)
            t = g.times()
            expected = t[1:] ** (-nu) * reciprocal_gamma(1.0 - nu)
            assert out.singular_start and math.isnan(out.values[0])
            assert np.allclose(out.values[1:], expected, rtol=1e-13)

    def test_linear_data_exact(self):
        g = UniformGrid.from_span(0.0, 2.0, 80)
        t = g.times()
        f = GridFunction(grid=g, values=t.copy())
        out = rl_derivative_numeric(f, 0.5)
        expected = rl_derivative_power(0.0, 2.0, 0.5, 1.0)
        j = 40  # t = 1
        assert out.values[j] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.7])
    def test_smooth_convergence_rate(self, nu):
        # quadratic data is the simplest input the interpolant cannot
        # represent; the L1 rate 2 - nu applies
        errs = []
        for n in (100, 200, 400):
            g = UniformGrid.from_span(0.0, 2.0, n)
            t = g.times()
            f = GridFunction(grid=g, values=t**2)
            out = rl_derivative_numeric(f, nu)
            exact = np.array(
                [rl_derivative_power(0.0, 3.0, nu, tv) for tv in t[1:]]
            )
            mask = t[1:] >= 0.5
            errs.append(np.abs(out.values[1:][mask] - exact[mask]).max())
        assert observed_order(errs[0], errs[1]) >= 2.0 - nu - 0.2
        assert observed_order(errs[1], errs[2]) >= 2.0 - nu - 0.2

    @pytest.mark.parametrize("n", [1, 2, 17, 600, 4000])
    def test_matches_l1_loop(self, n):
        # reference: the L1 sum one row at a time, as a direct dot product
        g = UniformGrid.from_span(0.0, 2.0, n)
        dt = g.h * np.arange(n + 1)
        for mu in (0.1, 0.5, 0.9):
            bd = _backward_diff_pow(np.arange(1.0, n + 1.0), 1.0 - mu)
            c_conv = reciprocal_gamma(2.0 - mu) * g.h ** (-mu)
            c_start = reciprocal_gamma(1.0 - mu)
            for name, v in _test_vectors(n).items():
                out = rl_derivative_numeric(GridFunction(grid=g, values=v), mu)
                df = np.diff(v)
                for j in range(1, n + 1):
                    head = v[0] * dt[j] ** (-mu) * c_start
                    ref = head + c_conv * np.dot(df[:j], bd[j - 1 :: -1])
                    # bound: 1e-13 of the row's magnitude
                    scale = abs(head) + c_conv * np.dot(
                        np.abs(df[:j]), bd[j - 1 :: -1]
                    )
                    assert abs(out.values[j] - ref) <= 1e-13 * scale, (mu, name, j)

    @pytest.mark.parametrize("mu", [1.0, 1.5, 0.0, -0.3])
    def test_rejects_out_of_range_order(self, mu):
        g = UniformGrid.from_span(0.0, 1.0, 10)
        f = GridFunction(grid=g, values=np.ones(11))
        with pytest.raises(UnsupportedOrderError):
            rl_derivative_numeric(f, mu)
