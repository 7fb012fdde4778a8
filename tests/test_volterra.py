import math
import tracemalloc
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from conftest import dense_weights
from fracrelax import volterra
from fracrelax.grids import DomainError, GridMismatchError, UniformGrid
from fracrelax.kinetics import (
    KineticProblem,
    auto_peel_depth,
    closed_form_curve,
    peeled_source,
)
from fracrelax.riemann_liouville import build_weights
from fracrelax.volterra import (
    OracleConfig,
    PicardDivergenceError,
    UnstableResolventError,
    picard_iterate,
    solve_volterra,
)


def masked_gap(curve_a, curve_b, steps=10):
    g = curve_a.grid
    t = g.times()
    mask = t >= g.a + steps * g.h
    return np.abs(curve_a.values[mask] - curve_b.values[mask]).max()


MARCH_PROBLEMS = [
    (0.5, None), (0.75, None), (1.0, None), (0.3, 1.5), (0.6, 0.5), (0.9, 2.0), (1.7, None)
]


def march(problem, grid, row):
    """The implicit march on the peeled remainder G, one row at a time.

    ``row(j)`` returns w[j, :j+1]; the diagonal is its last entry.
    """
    P, G_F = peeled_source(problem, grid, auto_peel_depth(problem))
    cn = problem.rate_factor
    G = np.zeros(grid.n + 1)
    G[0] = G_F[0]
    for j in range(1, grid.n + 1):
        w = row(j)
        G[j] = (G_F[j] - cn * float(np.dot(w[:j], G[:j]))) / (1.0 + cn * w[j])
    return G


def dense_march(problem, grid):
    """The march on the dense weight matrix."""
    w = dense_weights(build_weights(grid, problem.nu))
    return march(problem, grid, lambda j: w[j, : j + 1])


def banded_march(problem, grid):
    """The march with each row formed from the band: O(n) memory."""
    w = build_weights(grid, problem.nu)
    return march(
        problem,
        grid,
        lambda j: np.concatenate(([w.a0[j - 1]], w.d2[: j - 1][::-1], [w.c0])),
    )


def mp_march(problem, grid, dps=40):
    """The same discrete system (double weights and forcing) solved in mpmath."""
    w = build_weights(grid, problem.nu)
    _, G_F = peeled_source(problem, grid, auto_peel_depth(problem))
    with mp.workdps(dps):
        cn = mp.mpf(problem.rate_factor)
        d2 = [mp.mpf(x) for x in w.d2[::-1]]
        denom = 1 + cn * mp.mpf(w.c0)
        G = [mp.mpf(G_F[0])]
        for j in range(1, grid.n + 1):
            s = mp.mpf(w.a0[j - 1]) * G[0] + mp.fdot(d2[grid.n - j :], G[1:j])
            G.append((mp.mpf(G_F[j]) - cn * s) / denom)
        return np.array([float(x) for x in G])


def solved_remainder(problem, grid, weights=None):
    """The remainder G that solve_volterra hands to its assembly step."""
    with mock.patch.object(volterra, "_assemble", wraps=volterra._assemble) as spy:
        solve_volterra(problem, OracleConfig(grid=grid), weights=weights)
    return spy.call_args.args[3]


class TestConfig:
    def test_validation(self):
        g = UniformGrid.from_span(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            OracleConfig(grid=g, scheme="magic")

    def test_grid_must_match_problem(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0, a=2.0)
        g = UniformGrid.from_span(0.0, 1.0, 10)
        with pytest.raises(GridMismatchError):
            solve_volterra(p, OracleConfig(grid=g))

    def test_weights_must_match(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 1.0, 10)
        for w in (build_weights(UniformGrid.from_span(0.0, 1.0, 20), 0.5), build_weights(g, 0.6)):
            with pytest.raises(GridMismatchError, match="precomputed weights"):
                solve_volterra(p, OracleConfig(grid=g), weights=w)

    @pytest.mark.parametrize("scheme", ["implicit_product_trapezoid", "picard"])
    def test_divergent_remainder_refused(self, scheme):
        # twelve peeled terms leave the forcing exponent 12 nu + mu - 1 < 0
        p = KineticProblem(nu=0.01, c=1.0, N_a=1.0, mu=0.5)
        g = UniformGrid.from_span(0.0, p.default_span(), 200)
        with pytest.raises(DomainError, match="diverges at t = a") as exc:
            solve_volterra(p, OracleConfig(grid=g, scheme=scheme))
        assert "peel_depth" not in str(exc.value)


class TestImplicitMarch:
    def test_matches_closed_form_classical(self):
        p = KineticProblem(nu=1.0, c=1.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 1000)
        oracle = solve_volterra(p, OracleConfig(grid=g))
        t = g.times()
        exact = np.exp(-t)
        assert np.abs(oracle.values - exact).max() <= 1e-5

    def test_matches_closed_form_fractional(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 400)
        oracle = solve_volterra(p, OracleConfig(grid=g))
        closed = closed_form_curve(p, g)
        assert oracle.method_tag == "oracle"
        assert masked_gap(oracle, closed) <= 1e-4

    def test_singular_source(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=0.5)
        g = UniformGrid.from_span(0.0, 5.0, 400)
        oracle = solve_volterra(p, OracleConfig(grid=g))
        closed = closed_form_curve(p, g)
        assert oracle.singular_start and math.isnan(oracle.values[0])
        assert masked_gap(oracle, closed) <= 5e-4

    @pytest.mark.parametrize("mu", [None, 1.0, 1.5, 2.5])
    def test_start_is_the_closed_form_start(self, mu):
        # node 0 is the solution's limit at t = a, bitwise, on both curves
        for nu, N_a in [(0.3, 1.7), (0.7, -1.1), (1.0, 2.0), (1.5, 0.3)]:
            p = KineticProblem(nu=nu, c=1.3, N_a=N_a, mu=mu)
            g = UniformGrid.from_span(0.0, 5.0 / 1.3, 40)
            oracle = solve_volterra(p, OracleConfig(grid=g))
            closed = closed_form_curve(p, g)
            assert oracle.values[:1].tobytes() == closed.values[:1].tobytes(), nu

    def test_no_decay_limit(self):
        # c^nu = 1e-6, so the solution departs from N_a = 2 by ~5e-6 at
        # t = 5.  Compare with its expansion N_a sum_m (-c^nu t^nu)^m /
        # Gamma(1 + m nu) through m = 2, built from powers only; the omitted
        # m = 3 term is ~2e-17, so only rounding near N_a remains.
        p = KineticProblem(nu=0.5, c=1e-12, N_a=2.0)
        g = UniformGrid.from_span(0.0, 5.0, 100)
        oracle = solve_volterra(p, OracleConfig(grid=g))
        x = (1e-12) ** 0.5 * g.times() ** 0.5
        expected = 2.0 * (1.0 - x / math.gamma(1.5) + x * x / math.gamma(2.0))
        assert np.abs(oracle.values - expected).max() <= 1e-14

    def test_mu_one_identical_to_plain(self):
        g = UniformGrid.from_span(0.0, 5.0, 200)
        plain = solve_volterra(
            KineticProblem(nu=0.5, c=1.0, N_a=1.0), OracleConfig(grid=g)
        )
        with_mu = solve_volterra(
            KineticProblem(nu=0.5, c=1.0, N_a=1.0, mu=1.0), OracleConfig(grid=g)
        )
        assert np.array_equal(plain.values, with_mu.values)

    def test_grid_refinement_self_consistency(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        g1 = UniformGrid.from_span(0.0, 5.0, 250)
        g2 = UniformGrid.from_span(0.0, 5.0, 500)
        o1 = solve_volterra(p, OracleConfig(grid=g1))
        o2 = solve_volterra(p, OracleConfig(grid=g2))
        closed = closed_form_curve(p, g1)
        t = g1.times()
        mask = t >= 10 * g1.h
        err1 = np.abs(o1.values[mask] - closed.values[mask]).max()
        gap = np.abs(o1.values[mask] - o2.values[::2][mask]).max()
        # the two-grid gap is a usable error estimate for the coarse run
        assert gap <= 2.0 * err1
        assert err1 <= 2.5 * gap

    @pytest.mark.parametrize("nu, mu", MARCH_PROBLEMS)
    def test_matches_dense_march(self, nu, mu):
        # FFT products round differently from row-by-row dot products, so
        # the two agree to rounding, not bitwise
        p = KineticProblem(nu=nu, c=2.7, N_a=1.3, mu=mu)
        for n in (1, 2, 3, 17, 500, 4000):
            g = UniformGrid.from_span(0.0, p.default_span(), n)
            reference = dense_march(p, g)
            gap = np.abs(solved_remainder(p, g) - reference).max()
            assert gap <= 1e-13 * np.abs(reference).max(), (n, gap)

    @pytest.mark.parametrize("nu", [0.1, 0.5, 1.0, 1.5, 1.95])
    def test_matches_banded_march_on_long_grids(self, nu):
        for mu in (None, 0.5, 2.0):
            p = KineticProblem(nu=nu, c=2.7, N_a=1.3, mu=mu)
            g = UniformGrid.from_span(0.0, p.default_span(), 20000)
            reference = banded_march(p, g)
            gap = np.abs(solved_remainder(p, g) - reference).max()
            assert gap <= 1e-13 * np.abs(reference).max(), (mu, gap)

    @pytest.mark.parametrize(
        "nu, c, span", [(1.0, 1000.0, 5.0), (1.7, 2.7, 40.0 / 2.7)]
    )
    def test_long_window_as_accurate_as_the_march(self, nu, c, span):
        # c^nu T^nu = 5000 and 529: rounding grows with the window in both
        # solvers, so hold the solve to the march's own distance from the
        # exact solution of the same discrete system
        p = KineticProblem(nu=nu, c=c, N_a=1.3)
        g = UniformGrid.from_span(0.0, span, 600)
        exact = mp_march(p, g)
        err_march = np.abs(dense_march(p, g) - exact).max()
        err_solve = np.abs(solved_remainder(p, g) - exact).max()
        assert err_solve <= 2.0 * err_march, (err_solve, err_march)

    @pytest.mark.parametrize("nu, mu", MARCH_PROBLEMS)
    def test_residual_of_own_system(self, nu, mu):
        # G + c^nu W G = G_F at nodes 1..n, with W G from the FFT apply that
        # Picard uses, not from the solve's own products
        p = KineticProblem(nu=nu, c=2.7, N_a=1.3, mu=mu)
        g = UniformGrid.from_span(0.0, p.default_span(), 4000)
        w = build_weights(g, nu)
        assert (w.a0 >= 0.0).all() and (w.d2 >= 0.0).all()  # so |W| = W
        G = solved_remainder(p, g, weights=w)
        _, G_F = peeled_source(p, g, auto_peel_depth(p))
        cn = p.rate_factor
        residual = np.abs(G + cn * w.apply(G) - G_F)[1:]
        scale = (np.abs(G_F) + cn * w.apply(np.abs(G)))[1:].max()
        assert residual.max() <= 1e-13 * scale, residual.max() / scale

    def test_solve_memory_is_linear(self):
        n = 100_000
        p = KineticProblem(nu=0.5, c=2.7, N_a=1.3, mu=0.5)
        g = UniformGrid.from_span(0.0, p.default_span(), n)
        w = build_weights(g, p.nu)
        tracemalloc.start()
        try:
            solve_volterra(p, OracleConfig(grid=g), weights=w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # curve, peel and resolvent take ~8 n bytes each, FFT buffers ~2n
        assert peak < 150 * n


class TestPicard:
    def test_requires_picard_scheme(self):
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 50)
        with pytest.raises(ValueError):
            picard_iterate(p, OracleConfig(grid=g))

    def test_dispatch_through_solve(self, monkeypatch):
        monkeypatch.setattr(volterra, "_PICARD_ITERATIONS", 80)
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 100)
        cfg = OracleConfig(grid=g, scheme="picard")
        assert np.array_equal(
            solve_volterra(p, cfg).values, picard_iterate(p, cfg).values
        )

    def test_matches_implicit_march(self, monkeypatch):
        # the gap is 1.15e-9 after the default 50 iterations
        monkeypatch.setattr(volterra, "_PICARD_ITERATIONS", 80)
        p = KineticProblem(nu=0.5, c=1.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 300)
        implicit = solve_volterra(p, OracleConfig(grid=g))
        iterated = picard_iterate(p, OracleConfig(grid=g, scheme="picard"))
        assert np.abs(implicit.values - iterated.values).max() <= 1e-10

    def test_single_substitution_structure(self, monkeypatch):
        # one iteration applies the integral operator to the peeled forcing
        # once: N = P + G_F - c^nu W G_F
        monkeypatch.setattr(volterra, "_PICARD_ITERATIONS", 1)
        p = KineticProblem(nu=1.0, c=0.01, N_a=1.0)
        g = UniformGrid.from_span(0.0, 1.0, 100)
        one = picard_iterate(p, OracleConfig(grid=g, scheme="picard"))
        w = build_weights(g, p.nu)
        P, G_F = peeled_source(p, g, auto_peel_depth(p))
        expected = P + G_F - p.rate_factor * w.apply(G_F)
        assert np.abs(one.values - expected).max() <= 1e-15
        # P = 1 and G_F = -c t for F = 1; the trapezoid integrates t exactly,
        # so one substitution gives 1 - c t + (c t)^2 / 2 up to roundoff
        t = g.times()
        assert np.allclose(one.values, 1.0 - 0.01 * t + (0.01 * t) ** 2 / 2, atol=1e-12)

    def test_coarse_grid_rejected_up_front(self):
        # one step of T = 5/c: c^nu c0 = (5 c / c)^0.5 / Gamma(2.5) = 1.68
        p = KineticProblem(nu=0.5, c=2.7, N_a=1.3)
        g = UniformGrid.from_span(0.0, p.default_span(), 1)
        with pytest.raises(PicardDivergenceError, match=r"c\^nu c0 = 1\.68.*larger n"):
            picard_iterate(p, OracleConfig(grid=g, scheme="picard"))
        # three steps bring c^nu c0 to 0.97: the iteration runs
        g = UniformGrid.from_span(0.0, p.default_span(), 3)
        picard_iterate(p, OracleConfig(grid=g, scheme="picard"))

    def test_divergence_alarm(self, monkeypatch):
        # c^nu c0 = 1000 * 0.001 / 2 = 0.5 passes the up-front check, but the
        # lower-triangular part still drives the iterate norm past 1e6
        monkeypatch.setattr(volterra, "_PICARD_ITERATIONS", 30)
        p = KineticProblem(nu=1.0, c=1000.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 5.0, 5000)
        with pytest.raises(PicardDivergenceError, match="iterate norm"):
            picard_iterate(p, OracleConfig(grid=g, scheme="picard"))


class TestUnstableResolvent:
    """For nu above ~1.2 and c h of ~5 or more the discrete resolvent grows
    exponentially; the solve refuses such grids instead of returning a
    blown-up solution, and without numpy warnings on the way."""

    @pytest.mark.parametrize("nu, c, span, n, growth", [
        (1.5, 1.0, 1000.0, 200, r"8\.9\d*e\+11"),
        (1.95, 1000.0, 5.0, 300, r"e\+2\d\d"),
    ])
    def test_refused(self, nu, c, span, n, growth):
        p = KineticProblem(nu=nu, c=c, N_a=1.0)
        g = UniformGrid.from_span(0.0, span, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnstableResolventError,
                               match=rf"nu = {nu}.*c h = .*{growth} \|r\[0\]\|"):
                solve_volterra(p, OracleConfig(grid=g))

    def test_stable_coarse_grid_still_solves(self):
        p = KineticProblem(nu=1.2, c=1.0, N_a=1.0)
        g = UniformGrid.from_span(0.0, 1000.0, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = solve_volterra(p, OracleConfig(grid=g))
        assert np.all(np.isfinite(curve.values))
