import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc, erfcx

from conftest import ml_reference, ml_reference_negative
import fracrelax
from fracrelax import mittag_leffler
from fracrelax.gammafn import reciprocal_gamma
from fracrelax.grids import UniformGrid
from fracrelax.kinetics import KineticProblem, closed_form_curve
from fracrelax.mittag_leffler import (
    MLOverflowError,
    MLParams,
    SeriesConvergenceError,
    ml_eval,
    ml_eval_detailed,
    ml_series,
    series_terms,
)


class TestParamsAndSwitch:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                            (math.nan, 1.0), (1.0, math.inf)])
    def test_invalid_params(self, alpha, beta):
        with pytest.raises(ValueError):
            MLParams(alpha, beta)

    def test_switch_at_ten_alpha(self, monkeypatch):
        # the asymptotic expansion is tried exactly on z < -10 alpha
        tried = []
        expansion = mittag_leffler._asymptotic_negative

        def spy(params, z, cap):
            tried.append(z)
            return expansion(params, z, cap)

        monkeypatch.setattr(mittag_leffler, "_asymptotic_negative", spy)
        for alpha, switch in ((1.0, 10.0), (0.4, 4.0)):
            ml_eval(MLParams(alpha), -switch)
            assert tried == []
            ml_eval(MLParams(alpha), -switch * (1 + 1e-9))
            assert tried == [-switch * (1 + 1e-9)]
            tried.clear()
        # rapid series convergence for alpha >= 2: series on the whole axis
        assert ml_eval_detailed(MLParams(2.0), -300.0).regime == "series"
        assert tried == []


class TestSeriesValues:
    def test_exponential_point(self):
        assert ml_series(MLParams(1.0, 1.0), 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_zero_argument_is_first_term(self):
        # only the k = 0 term survives at z = 0
        assert ml_eval(MLParams(0.7, 1.3), 0.0) == reciprocal_gamma(1.3)
        assert ml_eval(MLParams(1.0, 1.0), 0.0) == 1.0

    def test_cosine_identity_point(self):
        assert ml_series(MLParams(2.0, 1.0), -1.0) == pytest.approx(
            math.cos(1.0), rel=1e-12
        )

    def test_beta_two_identity_point(self):
        expected = (math.exp(-1.0) - 1.0) / (-1.0)
        assert ml_eval(MLParams(1.0, 2.0), -1.0) == pytest.approx(expected, rel=1e-12)

    def test_erfc_identity_point(self):
        expected = math.e * erfc(1.0)
        assert ml_eval(MLParams(0.5, 1.0), -1.0) == pytest.approx(expected, rel=1e-12)

    def test_erfcx_point_meets_contract(self):
        # E[1/2](-x) = erfcx(x); a 1e-3 series stopping tolerance once
        # returned a certified value 8.8e-4 off here
        res = ml_eval_detailed(MLParams(0.5), -0.5)
        assert res.value == pytest.approx(erfcx(0.5), rel=1e-13, abs=0)

    def test_heavy_cancellation(self):
        # plain double summation would lose every digit here
        assert ml_eval(MLParams(1.0, 1.0), -20.0) == pytest.approx(
            math.exp(-20.0), rel=1e-12
        )
        assert ml_eval(MLParams(1.0, 1.0), -50.0) == pytest.approx(
            math.exp(-50.0), rel=1e-12
        )

    def test_against_brute_force_reference(self):
        for alpha, beta, z in [(0.5, 0.5, -1.0), (0.8, 1.7, -3.0), (1.5, 1.0, -2.0),
                               (0.25, 1.0, -1.5), (1.0, 3.0, 2.5)]:
            ref = ml_reference(alpha, beta, z)
            assert ml_eval(MLParams(alpha, beta), z) == pytest.approx(ref, rel=1e-12)


class TestSeriesStructure:
    def test_terms_match_direct_formula(self):
        params = MLParams(0.7, 1.3)
        z = -2.5
        terms = list(series_terms(params, z, 20))
        for k, term in enumerate(terms):
            assert term == pytest.approx(
                z**k * reciprocal_gamma(0.7 * k + 1.3), rel=1e-15, abs=1e-300
            )

    def test_partial_sum_recurrence(self):
        params = MLParams(0.6, 1.0)
        z = -1.5
        terms = list(series_terms(params, z, 30))
        partial = np.cumsum(terms)
        # S_{K+1} - S_K equals the next term, up to the rounding of the sum
        for k in range(1, 30):
            assert partial[k] - partial[k - 1] == pytest.approx(
                terms[k], abs=4e-16 * max(1.0, abs(partial[k]))
            )

    def test_terms_reported(self):
        res = ml_eval_detailed(MLParams(1.0, 1.0), 0.0)
        assert res.terms == 1 and res.regime == "series"
        res = ml_eval_detailed(MLParams(1.0, 1.0), 1.0)
        assert 5 < res.terms < 40


class TestRegimes:
    def test_asymptotic_engages_and_matches_series(self):
        params = MLParams(0.5, 1.0)
        res = ml_eval_detailed(params, -15.0)
        assert res.regime == "asymptotic"
        forced_series = ml_series(params, -15.0)
        assert res.value == pytest.approx(forced_series, rel=1e-10)

    def test_handoff_continuity(self):
        # values on both sides of the default switch agree far inside 1e-6
        for alpha in (0.4, 0.6, 1.0):
            params = MLParams(alpha, 1.0)
            s = 10.0 * alpha
            lo = ml_eval(params, -s * (1 + 1e-9))
            hi = ml_eval(params, -s * (1 - 1e-9))
            assert lo == pytest.approx(hi, rel=1e-6)

    def test_alpha_one_far_field_uses_series_fallback(self):
        # the algebraic expansion vanishes identically at alpha = 1; the
        # evaluator must fall back to the series instead of returning 0
        res = ml_eval_detailed(MLParams(1.0, 1.0), -30.0)
        assert res.regime == "series"
        assert res.value == pytest.approx(math.exp(-30.0), rel=1e-12)

    def test_large_alpha_far_argument_uses_series(self):
        # alpha >= 2 has no asymptotic regime: the series covers z = -10
        val = ml_eval(MLParams(2.5, 1.0), -10.0)
        assert val == pytest.approx(ml_reference(2.5, 1.0, -10.0), rel=1e-12)

    def test_positive_overflow_guard(self):
        with pytest.raises(MLOverflowError):
            ml_eval(MLParams(1.0, 1.0), 800.0)
        with pytest.raises(MLOverflowError):
            ml_eval(MLParams(0.5, 1.0), 30.0**2)

    def test_non_convergence_signal(self, monkeypatch):
        monkeypatch.setattr(mittag_leffler, "_MAX_TERMS", 5)
        with pytest.raises(SeriesConvergenceError):
            ml_series(MLParams(1.0, 1.0), -30.0)

    def test_nonfinite_argument(self):
        with pytest.raises(ValueError):
            ml_eval(MLParams(1.0, 1.0), math.inf)


class TestMonotonicity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_complete_monotonicity_sampled(self, alpha):
        params = MLParams(alpha, 1.0)
        xs = np.arange(0.0, 50.0 + 1e-9, 0.1)
        values = [ml_eval(params, -x) for x in xs]
        assert all(v > 0.0 for v in values)
        assert values[0] == pytest.approx(1.0, abs=1e-14)
        assert all(v <= 1.0 + 1e-12 for v in values)
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev * (1.0 + 1e-12)


class TestNonDyadicNegativeAxis:
    """E[alpha](-x) for non-dyadic alpha against exactly formed references.

    With alpha k + 1 rounded to double inside Gamma, the mpmath ladder
    returned E[0.6](-10) = 26489.86 and E[0.4](-4) = 0.0385; dyadic alpha
    hid this because there the rounded argument is exact.
    """

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.6, 0.7, 0.9])
    def test_both_sides_of_switch(self, alpha):
        params = MLParams(alpha, 1.0)
        s = 10.0 * alpha
        xs = [0.5, 1.0, 2.0, 0.5 * s, 0.9 * s, s * (1 - 1e-9), s,
              s * (1 + 1e-9), 1.5 * s, 3.0 * s, 10.0, 30.0]
        for x in xs:
            ref = ml_reference_negative(alpha, x)
            assert ml_eval(params, -x) == pytest.approx(ref, rel=1e-13, abs=0), x

    def test_reported_values(self):
        res = ml_eval_detailed(MLParams(0.6, 1.0), -10.0)
        assert res.regime == "contour" and res.terms > 0
        ref = ml_reference_negative(0.6, 10.0)
        assert res.value == pytest.approx(ref, rel=1e-13, abs=0)
        assert res.value == pytest.approx(0.04658965, rel=1e-6)
        value = ml_eval(MLParams(0.4, 1.0), -4.0)
        ref = ml_reference_negative(0.4, 4.0)
        assert value == pytest.approx(ref, rel=1e-13, abs=0)
        assert value == pytest.approx(0.1525651, rel=1e-6)

    def test_no_mpmath_pass_where_double_pass_fails(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("mpmath series pass")

        monkeypatch.setattr(mittag_leffler, "_sum_mp", forbidden)
        for alpha in (0.3, 0.6, 0.9):
            params = MLParams(alpha, 1.0)
            s = 10.0 * alpha
            values = [ml_eval(params, -x) for x in np.linspace(0.05, 3.0 * s, 200)]
            assert all(0.0 < v <= 1.0 for v in values)
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_double_pass_kept_where_it_certifies(self):
        # ulp-level values at |z| <= 1 come from the compensated series
        for alpha in (0.3, 0.6, 0.9):
            assert ml_eval_detailed(MLParams(alpha, 1.0), -1.0).regime == "series"


def exact_reference(alpha: float, beta: float, x: float) -> float:
    """E[alpha, beta](-x) from ml_reference at a precision sized to the
    series' peak term, about exp(x^(1/alpha))."""
    digits = math.exp(math.log(x) / alpha) / math.log(10.0)
    return ml_reference(alpha, beta, -x, dps=int(40 + 1.2 * digits))


class TestDoublePassCertificate:
    """Points where the double pass certifies values 2e-14 to 6e-14 off: a
    5.8e-15 relative error of the Lanczos coefficients 1/Gamma, times the
    series' cancellation.  At E[0.48091570891331814](-1.7956008866240918)
    the same cause puts a certified value 1.14e-13 off, past the contract;
    it is the benchmark's named known-fault curve (bench/workloads.py)."""

    @pytest.mark.parametrize("alpha, x", [
        (0.17, 1.218),
        (0.6, 2.019),
        (0.69, 2.195),
        (0.82, 2.37),
    ])
    def test_certified_values_meet_contract(self, alpha, x):
        params = MLParams(alpha, 1.0)
        ref = ml_reference_negative(alpha, x)
        value, _, _ = mittag_leffler._series_double(params, -x)
        if value is not None:  # certified
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert ml_series(params, -x) == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert ml_eval(params, -x) == pytest.approx(ref, rel=1e-13, abs=0.0)


# (alpha, beta) where the contour regime carries E on the negative axis
CONTOUR_PAIRS = [(0.7, 0.5), (0.5, 0.7), (0.7, 1.5), (0.5, 1.3), (0.5, 0.5),
                 (1.0, 1.0), (1.0, 2.0), (0.3, 1.5), (0.6, 1.5), (1.2, 0.8),
                 (1.2, 1.0), (1.5, 1.0)]


class TestContourRegime:
    @pytest.mark.parametrize("alpha, beta", CONTOUR_PAIRS)
    def test_meets_contract_against_exact_reference(self, alpha, beta):
        # every node of (0, 10 alpha] on the contour itself, certified or not
        xs = np.linspace(10.0 * alpha / 12, 10.0 * alpha, 12)
        certified = 0
        for x in xs:
            v, cert, _ = mittag_leffler._contour(MLParams(alpha, beta), x)
            if cert <= 1e-13:
                certified += 1
                assert v == pytest.approx(exact_reference(alpha, beta, x), rel=1e-13, abs=0.0), x
        # uncertified only next to a zero of E, or where E = e^-x
        # (alpha = beta = 1) is too small, past x ~ 8
        assert certified >= 9

    @pytest.mark.parametrize("alpha, beta", [(0.7, 0.5), (1.0, 1.0), (1.5, 1.0)])
    def test_returned_values_meet_contract(self, alpha, beta):
        xs = np.linspace(0.5, 10.0 * alpha, 9)
        results = [ml_eval_detailed(MLParams(alpha, beta), -x) for x in xs]
        assert "contour" in {r.regime for r in results}
        for x, r in zip(xs, results):
            assert r.value == pytest.approx(exact_reference(alpha, beta, x), rel=1e-13, abs=0.0), x

    def test_pole_residues_cross_the_contour_smoothly(self):
        # E[1.5](-x) ~ (2/3) e^(x^(2/3) cos(2 pi/3)) cos(x^(2/3) sin(2 pi/3))
        # plus the algebraic tail; the poles leave the contour near x = 1
        xs = np.linspace(0.5, 3.0, 11)
        nodes = set()
        for x in xs:
            v, cert, n = mittag_leffler._contour(MLParams(1.5, 1.0), x)
            nodes.add(n)
            assert cert <= 1e-13
            assert v == pytest.approx(exact_reference(1.5, 1.0, x), rel=1e-13, abs=0.0), x
        assert len(nodes) > 1  # mu lowered next to the crossing


class _CountingMp:
    """Stands in for mpmath inside the evaluator; counts series passes."""

    def __init__(self):
        self.passes = 0

    def __getattr__(self, attr):
        return getattr(mp, attr)

    def workdps(self, dps):
        self.passes += 1
        return mp.workdps(dps)


def test_power_source_curves_rarely_reach_mpmath(monkeypatch):
    # the benchmark's power-source curves: 2000 nodes on T = 5/c
    spy = _CountingMp()
    monkeypatch.setattr(mittag_leffler, "mp", spy)
    counts = {}
    for nu, mu in [(0.7, 0.5), (0.5, 0.7), (0.7, 1.5), (0.5, 1.3)]:
        p = KineticProblem(nu=nu, c=1.0, N_a=1.0, mu=mu)
        before = spy.passes
        closed_form_curve(p, UniformGrid.from_span(0.0, 5.0, 2000))
        counts[nu, mu] = spy.passes - before
    # only next to the zero of E[0.7, 0.5] at x = 1.6535 (27 nodes measured)
    assert counts[0.5, 0.7] == counts[0.7, 1.5] == counts[0.5, 1.3] == 0
    assert counts[0.7, 0.5] <= 40


# alpha on [0.1, 1.9] and the beta of every benchmark and identity curve
SKIP_ALPHAS = [round(0.1 * i, 1) for i in range(1, 20)]


class TestDoomedPassSkip:
    """The double pass is skipped only where its certificate provably fails.

    For z = -x < -1 a floor on the pass's rounding estimate, from the series'
    peak term, is compared with the quadrature's value; the skip may move
    cost, never a value."""

    @staticmethod
    def certified_pass(params, z):
        return mittag_leffler._series_double(params, z)[0]

    @pytest.mark.parametrize("alpha", SKIP_ALPHAS)
    def test_certifying_pass_is_never_skipped(self, alpha):
        skipped = 0
        for beta in sorted({alpha, 0.5, 1.0, 1.3, 1.5, 2.0}):
            params = MLParams(alpha, beta)
            for x in np.linspace(1.0, 10.0 * alpha, 41)[1:]:
                value = self.certified_pass(params, -x)
                res = ml_eval_detailed(params, -x)
                if value is not None:
                    assert res.regime == "series" and res.value == value, (beta, x)
                else:
                    skipped += res.regime != "series"
        if alpha >= 0.3:  # x <= 10 alpha leaves little cancellation below
            assert skipped > 0

    @pytest.mark.parametrize("alpha", SKIP_ALPHAS)
    def test_floor_is_below_every_certifying_estimate(self, alpha):
        # the estimate eps (4 + 2 sqrt(k)) max(max_mag, 1) of every pass that
        # certifies lies above the floor; the floor is positive somewhere
        positive = 0
        for beta in sorted({alpha, 0.5, 1.0, 1.3, 1.5, 2.0}):
            params = MLParams(alpha, beta)
            for x in np.linspace(1.0, 10.0 * alpha, 41)[1:]:
                floor = mittag_leffler._pass_floor(params, -x)
                positive += floor > 0.0
                s, k, max_mag = mittag_leffler._sum_double(params, -x)
                est = mittag_leffler._EPS * (4.0 + 2.0 * math.sqrt(k)) * max(max_mag, 1.0)
                if s is not None and s != 0.0 and est <= 1e-13 * abs(s):
                    assert floor <= est, (beta, x)
        assert positive > 0 or alpha == 0.1  # where no x lies in (1, 10 alpha]

    @pytest.mark.parametrize("alpha, beta, x", [
        (0.3, 0.5, 1.03),  # Gamma(alpha k + beta) < 1 at both candidate k
        (0.7, 1.0, 2.5), (1.5, 1.3, 8.0), (1.9, 2.0, 15.0), (0.5, 0.5, 4.0),
    ])
    def test_floor_is_the_peak_term_bound(self, alpha, beta, x):
        k = math.floor(math.exp(math.log(x) / alpha) / alpha)
        t, j = max((mp.mpf(x) ** j * mp.rgamma(mp.mpf(alpha) * j + beta), j)
                   for j in (k, k + 1))
        expected = mittag_leffler._EPS * (4 + 2 * math.sqrt(j)) * float(t) * (1 - 1e-9)
        params = MLParams(alpha, beta)
        floor = mittag_leffler._pass_floor(params, -x)
        assert t >= 1 and floor == pytest.approx(expected, rel=1e-12, abs=0)

    def test_skip_returns_the_quadrature(self, monkeypatch):
        # a provably doomed pass is not run at all
        def forbidden(*args):
            raise AssertionError("double pass")

        monkeypatch.setattr(mittag_leffler, "_sum_double", forbidden)
        res = ml_eval_detailed(MLParams(0.5, 1.0), -4.0)
        assert res.regime == "contour"
        ref = ml_reference_negative(0.5, 4.0)
        assert res.value == pytest.approx(ref, rel=1e-13, abs=0)
        res = ml_eval_detailed(MLParams(1.0, 1.0), -6.0)
        assert res.regime == "contour"
        assert res.value == pytest.approx(math.exp(-6.0), rel=1e-13, abs=0)


class TestCompletelyMonotoneRange:
    """E[alpha](-x) for 0 < alpha < 1 from the tiny to the far axis, where
    the series, the asymptotic expansion and the contour share the work."""

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.95, 0.99])
    def test_meets_contract_across_the_range(self, alpha):
        params = MLParams(alpha, 1.0)
        for x in [0.01, 0.7, 3.0, 30.0, 1e3, 1e6]:
            value = ml_eval_detailed(params, -x).value
            ref = ml_reference_negative(alpha, x)
            assert value == pytest.approx(ref, rel=1e-13, abs=0), x

    def test_contour_certifies_the_range(self):
        uncertified = []
        for alpha in np.linspace(0.05, 0.99, 48):
            params = MLParams(float(alpha), 1.0)
            for x in np.geomspace(1e-3, 1e6, 46):
                _, cert, _ = mittag_leffler._contour(params, float(x))
                if not cert <= 1e-13:
                    uncertified.append((alpha, x))
        assert uncertified == []


class TestAlphaNearOne:
    """alpha from 0.995 to 0.999 on 10.8 <= x <= 99.9: a band where the
    contour does not always certify and the mpmath series takes nodes.
    x = 49.64 and 50.4 lie just past x^(1/alpha) = 50, where the reference
    switches from the series to the algebraic expansion only if the
    expansion certifies itself."""

    @pytest.mark.parametrize("alpha", [0.995, 0.9975, 0.998, 0.999])
    def test_meets_contract_on_the_band(self, alpha):
        params = MLParams(alpha, 1.0)
        for x in [*np.linspace(10.8, 99.9, 10), 49.64]:
            value = ml_eval_detailed(params, -float(x)).value
            ref = ml_reference_negative(alpha, float(x))
            assert value == pytest.approx(ref, rel=1e-13, abs=0), x


def test_import_does_not_load_mpmath():
    code = "import sys, fracrelax; sys.exit('mpmath' in sys.modules)"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fracrelax.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
