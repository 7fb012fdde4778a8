import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc, erfcx

from conftest import ml_reference, ml_reference_negative
import fracrelax
from fracrelax import kinetics, mittag_leffler
from fracrelax.gammafn import reciprocal_gamma
from fracrelax.grids import UniformGrid
from fracrelax.kinetics import KineticProblem, closed_form_curve
from fracrelax.mittag_leffler import (
    MLOverflowError,
    MLParams,
    MLResult,
    SeriesConvergenceError,
    ml_eval,
    ml_eval_detailed,
)


class TestParamsAndSwitch:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                            (math.nan, 1.0), (1.0, math.inf)])
    def test_invalid_params(self, alpha, beta):
        with pytest.raises(ValueError):
            MLParams(alpha, beta)

    def test_switch_at_ten_alpha(self, monkeypatch):
        # the far form, a contour on beta - 2 alpha, runs exactly on
        # z < -10 alpha; at z = -10 alpha any contour keeps beta
        tried = []
        contour = mittag_leffler._contour

        def spy(alpha, beta, xs):
            tried.extend((beta, x) for x in xs.tolist())
            return contour(alpha, beta, xs)

        monkeypatch.setattr(mittag_leffler, "_contour", spy)
        for alpha, switch in ((1.0, 10.0), (0.4, 4.0)):
            ml_eval(MLParams(alpha), -switch)
            assert all(beta == 1.0 for beta, _ in tried)
            tried.clear()
            ml_eval(MLParams(alpha), -switch * (1 + 1e-9))
            assert tried == [(1.0 - 2.0 * alpha, switch * (1 + 1e-9))]
            tried.clear()
        # rapid series convergence for alpha >= 2: series on the whole axis
        for x in (10.0, 25.0, 300.0):
            assert ml_eval_detailed(MLParams(2.0), -x).regime == "series"
        assert ml_eval_detailed(MLParams(2.5, 0.5), -100.0).regime == "series"
        assert tried == []


class TestSeriesValues:
    def test_exponential_point(self):
        assert ml_eval(MLParams(1.0, 1.0), 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_zero_argument_is_first_term(self):
        # only the k = 0 term survives at z = 0
        assert ml_eval(MLParams(0.7, 1.3), 0.0) == reciprocal_gamma(1.3)
        assert ml_eval(MLParams(1.0, 1.0), 0.0) == 1.0

    def test_cosine_identity_point(self):
        assert ml_eval(MLParams(2.0, 1.0), -1.0) == pytest.approx(
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
    def test_terms_reported(self):
        res = ml_eval_detailed(MLParams(1.0, 1.0), 0.0)
        assert res.terms == 1 and res.regime == "series"
        res = ml_eval_detailed(MLParams(1.0, 1.0), 1.0)
        assert 5 < res.terms < 40


class TestRegimes:
    def test_far_form_engages_and_matches_reference(self):
        params = MLParams(0.5, 1.0)
        res = ml_eval_detailed(params, -15.0)
        assert res.regime == "contour"
        assert res.value == pytest.approx(ml_reference_negative(0.5, 15.0), rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha, beta, x", [
        # beta = alpha, the impulse response: beta - alpha k rounds to within
        # an ulp of a pole, which once cut an algebraic expansion short and
        # certified values up to 6.7e-3 off
        (0.2, 0.2, 2.776541990147549),
        (0.4, 0.4, 5.0),
        (0.6, 0.6, 10.0),
        (0.8, 0.8, 68.79),
        (1.2, 1.2, 115.66),
        # 0.3 - 1.3 rounds to -1.0, a pole, while the exact difference is
        # not; 1/Gamma at the rounded argument was 2.4e-13 off here
        (1.3, 0.3, 3000.0),
        # beta - alpha well above 4: more algebraic terms go, so that the
        # contour sees beta' - alpha <= 3; a contour on beta = 30 once
        # certified 4.6e13 here, and one on beta - 2 alpha 2e9
        (1.2, 30.0, 100.0),
        (0.6, 10.0, 20.0),
    ])
    def test_far_field_meets_contract(self, alpha, beta, x):
        value = ml_eval(MLParams(alpha, beta), -x)
        assert value == pytest.approx(exact_reference(alpha, beta, x), rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha, beta, x", [
        # beta - alpha > 3 on both sides of z = -10 alpha: head terms split off
        # so that the contour sees beta' - alpha < 3; a contour on beta
        # itself once certified 6.0e18 at E[1.2,30](-11) (exact 9.5e-32)
        (1.2, 30.0, 11.0),
        (1.2, 30.0, 0.5),
        (0.5, 60.0, 4.5),
        (0.8, 40.0, 7.9),
        # the mpmath pass once stopped at an absolute 10^-(dps-3) and
        # returned these 1.3e-5 and 22% off
        (0.5, 20.0, 4.0),
        (1.2, 30.0, 13.0),
    ])
    def test_large_beta_meets_contract(self, alpha, beta, x):
        params = MLParams(alpha, beta)
        ref = exact_reference(alpha, beta, x)
        assert ml_eval(params, -x) == pytest.approx(ref, rel=1e-13, abs=0)
        value = mittag_leffler._series_mp(params, -x, 0.0).value
        assert value == pytest.approx(ref, rel=1e-13, abs=0)

    def test_large_beta_underflows_to_zero(self):
        # exact 2.0e-373; a contour on beta = 200 once certified 2.6e117
        assert ml_eval(MLParams(0.5, 200.0), -4.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_far_form_underflows_to_zero(self, alpha):
        # every head term and x^-m underflow; the series cancels by ~4e9
        # (alpha = 0.3) and ~4e5 digits, past any mpmath pass
        assert ml_eval(MLParams(alpha, 200.0), -1000.0) == 0.0

    @pytest.mark.parametrize("beta", [169.0, 170.0])
    def test_far_form_keeps_values_near_underflow(self, beta):
        # E ~ 1e-305 and 3e-307, still normal; the reference sums the
        # algebraic expansion in mpmath, whose terms fall ~70-fold per step
        with mp.workdps(40):
            x, am = mp.mpf(1000), mp.mpf(0.5)
            terms = (-(-x) ** -k * mp.rgamma(beta - am * k) for k in range(1, 80))
            ref = float(mp.fsum(terms))
        assert ref > 1e-307
        value = ml_eval(MLParams(0.5, beta), -1000.0)
        assert value == pytest.approx(ref, rel=1e-13, abs=0)

    def test_contour_stays_in_its_tested_range(self, monkeypatch):
        calls = []
        contour = mittag_leffler._contour

        def spy(alpha, beta, x):
            calls.append((alpha, beta, x))
            return contour(alpha, beta, x)

        monkeypatch.setattr(mittag_leffler, "_contour", spy)
        for alpha in (0.3, 0.5, 0.8, 1.2, 1.5, 1.8):
            for beta in (alpha, 1.0, 4.0, 6.0, 10.0, 20.0, 30.0, 60.0, 200.0):
                for x in [*np.linspace(0.0, 10.0 * alpha, 9)[1:], 12.0 * alpha]:
                    ml_eval(MLParams(alpha, beta), -float(x))
        assert len(calls) > 100
        for alpha, beta, x in calls:
            assert beta - alpha <= mittag_leffler._FAR_MAX_EXCESS, (alpha, beta, x)

    def test_head_term_count_is_capped(self, monkeypatch):
        # m ~ beta/alpha = 1e6 head terms would each build a Fraction; past
        # _MAX_TERMS the node goes to mpmath instead
        counts = []
        far_terms = mittag_leffler._far_terms

        def spy(alpha, beta, m):
            counts.append(m)
            return far_terms(alpha, beta, m)

        monkeypatch.setattr(mittag_leffler, "_far_terms", spy)
        assert ml_eval(MLParams(0.01, 1e4), -1.0) == 0.0
        assert ml_eval(MLParams(0.6, 10.0), -20.0) > 0.0
        assert counts == [11]
        # (beta - 3) / alpha overflows to +-inf; m stays an integer
        assert ml_eval(MLParams(1e-10, 1e300), -1e-12) == 0.0
        assert ml_eval(MLParams(1e-320, 1.0), -1.0) == pytest.approx(0.5, rel=1e-13)

    def test_handoff_continuity(self):
        # values on both sides of the default switch agree far inside 1e-6
        for alpha in (0.4, 0.6, 1.0):
            params = MLParams(alpha, 1.0)
            s = 10.0 * alpha
            lo = ml_eval(params, -s * (1 + 1e-9))
            hi = ml_eval(params, -s * (1 - 1e-9))
            assert lo == pytest.approx(hi, rel=1e-6)

    def test_alpha_one_far_field_uses_series_fallback(self):
        # the algebraic expansion vanishes identically at alpha = 1 and the
        # contour does not certify e^-30; the evaluator must fall back to
        # E[1, 1](-x) = e^-x instead of returning 0
        res = ml_eval_detailed(MLParams(1.0, 1.0), -30.0)
        assert res.regime == "contour"
        assert res.value == pytest.approx(math.exp(-30.0), rel=1e-12)

    @pytest.mark.parametrize("x", [336.0, 400.0])
    def test_alpha_one_far_field_meets_contract(self, x):
        # e^-x, where the series cancels by ~290 digits: the contour does
        # not certify it, so the node takes math.exp's value
        assert ml_eval(MLParams(1.0), -x) == pytest.approx(math.exp(-x), rel=1e-13, abs=0)

    def test_no_double_pass_past_the_far_switch(self, monkeypatch):
        # for z < -10 alpha, alpha < 2: the contour (here with e^-x), never a double pass
        sum_double = mittag_leffler._sum_double

        def forbidden(params, z):
            if z < -10.0 * params.alpha:
                raise AssertionError(f"double pass at z = {z}")
            return sum_double(params, z)

        monkeypatch.setattr(mittag_leffler, "_sum_double", forbidden)
        for x in (12.0, 20.0, 50.0):
            value = ml_eval(MLParams(1.0), -x)
            assert value == pytest.approx(math.exp(-x), rel=1e-13, abs=0), x

    def test_large_alpha_far_argument_uses_series(self):
        # alpha >= 2 has no far form: the series covers z = -10
        val = ml_eval(MLParams(2.5, 1.0), -10.0)
        assert val == pytest.approx(ml_reference(2.5, 1.0, -10.0), rel=1e-12)

    def test_positive_overflow_guard(self):
        with pytest.raises(MLOverflowError):
            ml_eval(MLParams(1.0, 1.0), 800.0)
        with pytest.raises(MLOverflowError):
            ml_eval(MLParams(0.5, 1.0), 30.0**2)
        # the peak term e^710 / sqrt(2 pi 710) fits; the mpmath value is inf
        with pytest.raises(MLOverflowError):
            ml_eval(MLParams(1.0, 1.0), 710.0)

    @pytest.mark.parametrize("alpha, z", [(0.5, 20.0), (0.3, 5.0)])
    def test_positive_values_whose_powers_overflow(self, alpha, z):
        # z^k passes double range before the terms peak, though E (1.04e174
        # and 2.25e93) does not: the node goes to mpmath, not to a refusal
        ref = ml_reference(alpha, 1.0, z)
        assert ml_eval(MLParams(alpha), z) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_exponential_up_to_double_range(self):
        assert ml_eval(MLParams(1.0), 700.0) == pytest.approx(math.exp(700.0), rel=1e-13, abs=0)
        assert math.isfinite(ml_eval(MLParams(1.0), 709.0))

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.3, 1.5, 1.9])
    @pytest.mark.parametrize("beta", [None, 1.0, 0.3, 2.0])  # None: beta = alpha
    @pytest.mark.parametrize("x", [1e200, 1e300])
    def test_far_axis_past_power_range(self, alpha, beta, x):
        # x^(1/alpha), and for 1 < alpha < 2 the residue's r^(1 - beta'), pass
        # double range, while e^(r cos theta) underflows; the head terms carry
        # E, or it underflows to 0.  At (1.3, 0.3), 0.3 - 1.3 rounds onto the
        # pole -1 and E rests on 1/Gamma's slope there, once 1.1e-12 off.  The
        # reference is the algebraic expansion, whose terms fall by x per step
        beta = alpha if beta is None else beta
        with mp.workdps(40):
            xm, am = mp.mpf(x), mp.mpf(alpha)
            ref = float(mp.fsum(-(-xm) ** -k * mp.rgamma(beta - am * k) for k in range(1, 8)))
        assert ml_eval(MLParams(alpha, beta), -x) == pytest.approx(ref, rel=1e-13, abs=0)
        with pytest.raises(MLOverflowError):
            ml_eval(MLParams(alpha, beta), x)

    def test_non_convergence_signal(self, monkeypatch):
        # a far node next to a zero of E[1.5](-x) (x ~ 24.25): no double
        # pass, the contour does not certify, and the mpmath series's peak
        # term lies past the 5-term cap
        monkeypatch.setattr(mittag_leffler, "_MAX_TERMS", 5)
        with pytest.raises(SeriesConvergenceError):
            ml_eval(MLParams(1.5, 1.0), -24.2)

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
        value, terms, max_mag = mittag_leffler._sum_double(params, -x)
        if not mittag_leffler._certifies(value, terms, max_mag):
            # not certified: the series path goes on to mpmath
            lost = math.log10(max(max_mag, 1.0) / abs(value))
            value = mittag_leffler._series_mp(params, -x, lost).value
        assert value == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert ml_eval(params, -x) == pytest.approx(ref, rel=1e-13, abs=0.0)


# (alpha, beta) where the contour regime carries E on the negative axis
CONTOUR_PAIRS = [(0.7, 0.5), (0.5, 0.7), (0.7, 1.5), (0.5, 1.3), (0.5, 0.5),
                 (1.0, 1.0), (1.0, 2.0), (0.3, 1.5), (0.6, 1.5), (1.2, 0.8),
                 (1.2, 1.0), (1.5, 1.0)]


class TestResultRecord:
    """``MLResult`` fills its fields itself, and stays a frozen dataclass."""

    def test_is_frozen(self):
        res = MLResult(0.5, "series", 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.value = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del res.terms
        assert res == MLResult(0.5, "series", 3)

    def test_equal_fields_hash_equal(self):
        a, b = MLResult(0.25, "contour", 136), MLResult(value=0.25, regime="contour", terms=136)
        assert a == b and hash(a) == hash(b)
        assert a != MLResult(0.25, "contour", 137)
        assert len({a, b, MLResult(0.25, "series", 136)}) == 2

    def test_replace_pickle_and_repr(self):
        res = ml_eval_detailed(MLParams(0.5), -3.0)
        assert dataclasses.replace(res, terms=7) == MLResult(res.value, res.regime, 7)
        assert dataclasses.replace(res) == res
        assert pickle.loads(pickle.dumps(res)) == res
        assert repr(MLResult(0.5, "series", 3)) == "MLResult(value=0.5, regime='series', terms=3)"
        assert [f.name for f in dataclasses.fields(MLResult)] == ["value", "regime", "terms"]


class TestContourRegime:
    @pytest.mark.parametrize("alpha, beta", CONTOUR_PAIRS)
    def test_meets_contract_against_exact_reference(self, alpha, beta):
        # every node of (0, 10 alpha] on the contour itself, certified or not
        xs = np.linspace(10.0 * alpha / 12, 10.0 * alpha, 12)
        certified = 0
        values, errs, _ = mittag_leffler._contour(alpha, beta, xs)
        for x, v, err in zip(xs, values, errs):
            if err <= 1e-13 * abs(v):
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
        values, errs, nodes = mittag_leffler._contour(1.5, 1.0, xs)
        for x, v, err in zip(xs, values, errs):
            assert err <= 1e-13 * abs(v)
            assert v == pytest.approx(exact_reference(1.5, 1.0, x), rel=1e-13, abs=0.0), x
        assert len(set(nodes.tolist())) > 1  # mu lowered next to the crossing


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


def mpf_pass(params: MLParams, z: float, dps: int):
    """The mpf loop ``_sum_mp`` replaced, kept as its reference: every
    product and sum an mpf rounded at the working precision."""
    alpha, beta = params.alpha, params.beta
    with mp.workdps(dps):
        zm = mp.mpf(z)
        s = mp.mpf(0)
        zk = mp.mpf(1)
        max_t = mp.mpf(0)
        stop = mp.mpf(10) ** (-(dps - 3))
        for k in range(mittag_leffler._MAX_TERMS + 1):
            term = zk * mp.rgamma(mp.mpf(alpha) * k + beta)
            if k >= 1 and abs(term) < stop * abs(s):
                lost = (float(mp.log10(max_t / abs(s)))
                        if s != 0 and max_t > 0 else float(dps))
                return float(s), k, max(lost, 0.0)
            s += term
            at = abs(term)
            if at > max_t:
                max_t = at
            zk *= zm
    raise SeriesConvergenceError(
        f"series for E[{alpha}, {beta}]({z}) did not satisfy the stopping "
        f"rule within {mittag_leffler._MAX_TERMS} terms at {dps} digits"
    )


class TestIntegerPass:
    """``_sum_mp`` sums on Python integers and gives the mpf loop's
    (value, terms, lost) bit for bit, at every precision a node's
    escalation reaches."""

    @staticmethod
    def passes(monkeypatch, call):
        """The (params, z, dps) of every pass ``call()`` makes."""
        seen = []
        real = mittag_leffler._sum_mp

        def spy(params, z, dps):
            seen.append((params, z, dps))
            return real(params, z, dps)

        monkeypatch.setattr(mittag_leffler, "_sum_mp", spy)
        call()
        monkeypatch.setattr(mittag_leffler, "_sum_mp", real)
        return seen

    @staticmethod
    def assert_same_bits(seen):
        for params, z, dps in seen:
            got, want = mittag_leffler._sum_mp(params, z, dps), mpf_pass(params, z, dps)
            bits = [[float(v).hex() for v in res] for res in (got, want)]
            assert bits[0] == bits[1], (params, z, dps)
            assert got[1].__class__ is int

    def test_nodes_next_to_the_zero_of_the_benchmark_curve(self, monkeypatch):
        # the 27 nodes of E[0.7, 0.5] a closed_form round sends to mpmath
        p = KineticProblem(nu=0.7, c=1.0, N_a=1.0, mu=0.5)
        seen = self.passes(monkeypatch, lambda: closed_form_curve(
            p, UniformGrid.from_span(0.0, 5.0, 2000)))
        assert len({z for _, z, _ in seen}) == 27
        assert all(1.6358 <= -z <= 1.6726 for _, z, _ in seen)
        self.assert_same_bits(seen)

    @pytest.mark.parametrize("alpha, beta, z, count", [
        (1.5, 1.0, -24.2, 1),  # a far node next to a zero of E
        (0.7, 0.5, -1.6535283825291351, 2),  # the double nearest a zero: 25, then 50 digits
        (0.5, 6.0, -0.05, 1),
        (0.5, 8.0, -0.85, 1),
        (1e-10, 1e300, -1e-12, 1),  # coefficients near 10^-3e302
        (1.0, 1.0, 400.0, 1),
    ])
    def test_escalations(self, monkeypatch, alpha, beta, z, count):
        params = MLParams(alpha, beta)
        seen = self.passes(monkeypatch, lambda: ml_eval(params, z))
        assert len(seen) == count
        self.assert_same_bits(seen)

    @pytest.mark.parametrize("alpha, beta, z", [(1.0, 1.0, -100.0), (0.7, 0.5, -1.6535),
                                                (0.5, 8.0, -0.05), (0.5, 1.0, 20.0)])
    def test_escalations_from_no_headroom(self, monkeypatch, alpha, beta, z):
        params = MLParams(alpha, beta)
        seen = self.passes(monkeypatch, lambda: mittag_leffler._series_mp(params, z, 0.0))
        assert seen
        self.assert_same_bits(seen)

    def test_value_past_double_range(self, monkeypatch):
        params = MLParams(1.0, 1.0)
        seen = self.passes(
            monkeypatch, lambda: pytest.raises(MLOverflowError, ml_eval, params, 710.0))
        assert [dps for *_, dps in seen] == [25]
        self.assert_same_bits(seen)
        assert mittag_leffler._sum_mp(params, 710.0, 25)[0] == math.inf

    @pytest.mark.parametrize("alpha, z", [(1.0, -30.0), (1e-320, -1.0)])
    def test_pass_that_does_not_stop(self, monkeypatch, alpha, z):
        # E[1e-320, 1](-1) = 1/2 is a contour value (TestRegimes); its
        # series is ~sum (-1)^k, which no term count stops
        monkeypatch.setattr(mittag_leffler, "_MAX_TERMS", 60)
        params = MLParams(alpha, 1.0)
        with pytest.raises(SeriesConvergenceError) as got:
            mittag_leffler._sum_mp(params, z, 40)
        with pytest.raises(SeriesConvergenceError) as want:
            mpf_pass(params, z, 40)
        assert str(got.value) == str(want.value)
        assert "within 60 terms at 40 digits" in str(got.value)

    def test_coefficient_table_is_shared(self):
        params = MLParams(0.7, 0.5)
        mittag_leffler._sum_mp(params, -1.6535, 29)
        with mp.workdps(29):
            prec = mp.mp.prec
        table = mittag_leffler._mp_coefficients(0.7, 0.5, prec)
        size = len(table)
        assert sorted(table) == list(range(size)) and size >= 50
        mittag_leffler._sum_mp(params, -1.6, 29)
        assert mittag_leffler._mp_coefficients(0.7, 0.5, prec) is table
        assert len(table) == size  # a shorter pass computes nothing new
        with mp.workdps(29):
            assert all(mp.mpf(c) == mp.rgamma(mp.mpf(0.7) * k + 0.5) for k, c in table.items())


class TestOneEstimate:
    """The peak term alone sizes a node's first mpmath pass, in a lone value
    and in a curve, stopped passes included."""

    def test_first_pass_is_sized_by_the_peak_term(self, monkeypatch):
        wrong = {}  # (alpha, beta, z, call) -> {node: (digits, expected)}
        for alpha, beta, z in [(0.7, 0.5, -1.6535283825291351),  # the double nearest a zero
                               (2.0, 1.0, -1e4),
                               (0.5, 6.0, 0.05),
                               (0.5, 6.0, -0.05),
                               (0.5, 1.0, 20.0)]:  # z^k overflows before the terms peak
            params = MLParams(alpha, beta)
            curve = [z, 0.9 * z]
            for name, call in (("lone", lambda: ml_eval(params, z)),
                               ("curve", lambda: mittag_leffler.ml_eval_many(params, curve))):
                first = {}  # node -> the digits of its first pass
                for _, zj, dps in TestIntegerPass.passes(monkeypatch, call):
                    first.setdefault(zj, dps)
                assert z in first, (alpha, beta, z, name)
                sized = {zj: max(25, int(min(mittag_leffler._MAX_DPS + 1,
                                             17 + mittag_leffler._peak_digits(params, zj) + 8)))
                         for zj in first}
                if first != sized:
                    wrong[alpha, beta, z, name] = {zj: (first[zj], sized[zj]) for zj in first}
        assert not wrong


class TestClassicalDecay:
    """At nu = 1 the closed form is N_a e^(-ct): where the contour does not
    certify E[1, 1](-x), the value is e^-x from math.exp, without mpmath."""

    @pytest.fixture(autouse=True)
    def no_mpmath(self, monkeypatch):
        def forbidden(params, z, dps):
            raise AssertionError(f"mpmath pass at z = {z}")

        monkeypatch.setattr(mittag_leffler, "_sum_mp", forbidden)

    def test_is_the_exponential(self):
        # up to x ~ 12.55 the contour still certifies some nodes, within
        # 1e-13 (E[1](-12.1547...) 2.6e-15 off); past that every value is exp's
        params = MLParams(1.0)
        xs = np.geomspace(10.0, 1e6, 60)
        want = [math.exp(-x) if x > 12.6 else pytest.approx(math.exp(-x), rel=1e-13, abs=0)
                for x in xs.tolist()]
        assert [ml_eval(params, -x) for x in xs.tolist()] == want
        assert mittag_leffler.ml_eval_many(params, -xs).tolist() == want
        assert ml_eval(params, -745.0) == math.exp(-745.0) == 5e-324

    def test_decay_curve(self):
        grid = UniformGrid.from_span(0.0, 100.0, 2000)
        curve = closed_form_curve(KineticProblem(nu=1.0, c=1.0, N_a=1.0), grid)
        assert curve.values == pytest.approx(np.exp(-grid.offsets()), rel=1e-13, abs=0)


# alpha on [0.1, 1.9] and the beta of every benchmark and identity curve
SKIP_ALPHAS = [round(0.1 * i, 1) for i in range(1, 20)]


class TestDoomedPassSkip:
    """A double pass that certifies its value is the value returned.

    Every near node (z >= -10 alpha) sums its double pass first; only where
    the pass's rounding certificate fails does the contour or mpmath take
    the node."""

    @staticmethod
    def certified_pass(params, z):
        sums = mittag_leffler._sum_double(params, z)
        return sums[0] if mittag_leffler._certifies(*sums) else None

    @pytest.mark.parametrize("alpha", SKIP_ALPHAS)
    def test_certifying_pass_is_never_skipped(self, alpha):
        handed_on = 0  # nodes whose pass fails, taken by another regime
        for beta in sorted({alpha, 0.5, 1.0, 1.3, 1.5, 2.0}):
            params = MLParams(alpha, beta)
            for x in np.linspace(1.0, 10.0 * alpha, 41)[1:]:
                value = self.certified_pass(params, -x)
                res = ml_eval_detailed(params, -x)
                if value is not None:
                    assert res.regime == "series" and res.value == value, (beta, x)
                else:
                    handed_on += res.regime != "series"
        if alpha >= 0.3:  # x <= 10 alpha leaves little cancellation below
            assert handed_on > 0


def per_pass(many):
    """The arrays of ``_sum_double_many`` as one entry per pass: the
    ``_sum_double`` tuple of a pass that completed (None for a nan value
    and for 0 terms), the int k of a pass the kernel stopped at term k."""
    value, terms, max_mag, stopped = (a.tolist() for a in many)
    return [k if stop else (None if v != v else v, k or None, m)
            for v, k, m, stop in zip(value, terms, max_mag, stopped)]


def assert_stopped_passes_fail(params, zs, many):
    """Each pass of ``many`` (``per_pass`` of the kernel at ``zs``) that
    completed is the scalar tuple; each the kernel stopped, at z < 0, is one
    that ``_certifies`` rejects, and it stopped no later than the scalar
    pass."""
    stopped = 0
    for z, got in zip(zs, many):
        one = mittag_leffler._sum_double(params, z)
        if isinstance(got, tuple):
            assert got == one, z
        else:
            assert z < 0.0 and not mittag_leffler._certifies(*one), z
            assert 1 <= got <= one[1], z
            stopped += 1
    return stopped


class TestLockstepPasses:
    """``_sum_double_many`` gives every node whose pass completes the tuple
    of ``_sum_double``, and ``ml_eval_many`` every node the value of
    ``ml_eval``."""

    @staticmethod
    def scalar(params, zs):
        return [mittag_leffler._sum_double(params, z) for z in zs]

    @pytest.mark.parametrize("alpha", SKIP_ALPHAS + [2.0, 2.5])
    def test_equals_the_scalar_pass(self, alpha):
        stopped = 0
        for beta in sorted({alpha, 0.5, 1.0, 1.3, 2.0}):
            params = MLParams(alpha, beta)
            zs = np.linspace(-10.0 * alpha, 1.0, 201).tolist()
            many = per_pass(mittag_leffler._sum_double_many(params, zs))
            stopped += assert_stopped_passes_fail(params, zs, many)
        # alpha >= 2: _quadrature takes no node, so no pass may stop
        assert (stopped > 0) == (alpha < 2.0)

    def test_overflowing_powers(self):
        # z^k overflows at different k, beside passes that stop
        params = MLParams(2.5)
        zs = [-1e100, -1e10, -1e300, -50.0, -1e100, -0.5, 3.0]
        many = per_pass(mittag_leffler._sum_double_many(params, zs))
        assert many == self.scalar(params, zs)
        assert many[0][0] is None and many[0] == mittag_leffler._sum_double(params, -1e100)

    def test_long_passes(self):
        # past the 64- and 256-entry coefficient tables
        for alpha, zs in [(0.1, [1.0, 1.2, 1.3, -1.0, 1e-3]), (0.05, [1.0, 0.5, -0.5, -1e-3]),
                          (3e-4, [1.13, 1.12, 0.5])]:  # terms that reach inf
            params = MLParams(alpha)
            many = per_pass(mittag_leffler._sum_double_many(params, zs))
            assert many == self.scalar(params, zs)
            assert max(k for _, k, _ in many) > 256
            assert min(k for _, k, _ in many) < 64

    def test_curves_equal_the_pointwise_values(self, monkeypatch):
        seen = []
        real = mittag_leffler._sum_double_many

        def spy(params, zs):
            seen.append((params, np.array(zs)))
            return real(params, zs)

        monkeypatch.setattr(mittag_leffler, "_sum_double_many", spy)
        for nu, mu, span in [(0.5, None, 40.0), (0.7, 0.5, 5.0), (2.5, None, 5.0),
                             (1.5, 1.3, 20.0)]:
            p = KineticProblem(nu=nu, c=1.0, N_a=1.0, mu=mu)
            params = MLParams(nu, p.mu_eff)
            zs = (-(UniformGrid.from_span(0.0, span, 300).times()[1:] ** nu)).tolist()
            values = mittag_leffler.ml_eval_many(params, zs)
            assert values.tolist() == [ml_eval(params, z) for z in zs]
        # the kernel sees only near nodes: z >= -10 alpha where alpha < 2
        assert len(seen) == 4
        for params, zs in seen:
            assert params.alpha >= 2.0 or (zs >= -10.0 * params.alpha).all()
            assert zs.size > 1

    def test_lone_near_node_keeps_the_scalar_pass(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("lockstep kernel")

        monkeypatch.setattr(mittag_leffler, "_sum_double_many", forbidden)
        params = MLParams(0.5)
        zs = [-0.5, -20.0, -30.0]
        assert mittag_leffler.ml_eval_many(params, zs).tolist() == [
            ml_eval(params, z) for z in zs]

    def test_passes_that_do_not_stop(self, monkeypatch):
        # both forms hand back (None, None, max_mag) for ml_eval_detailed to
        # refuse; beside them passes stop, and powers overflow
        monkeypatch.setattr(mittag_leffler, "_MAX_TERMS", 5)
        params = MLParams(0.5)
        zs = [-3.0, 1e-9, -1e200, 2.0, 0.0]
        many = per_pass(mittag_leffler._sum_double_many(params, zs))
        assert many == self.scalar(params, zs)
        assert [k is None for _, k, _ in many] == [True, False, False, True, False]

    def test_kernel_sees_two_nodes_or_more(self, monkeypatch):
        sizes = []
        real = mittag_leffler._sum_double_many

        def spy(params, zs):
            sizes.append(len(zs))
            return real(params, zs)

        monkeypatch.setattr(mittag_leffler, "_sum_double_many", spy)
        params = MLParams(0.5)
        for z in (-0.5, -3.0, -30.0, 2.0):
            ml_eval(params, z)
        # no near node, one near node, two near nodes, a curve past a block
        for zs in ([-30.0, -40.0], [-30.0, -0.5], [-0.5, -30.0, -3.0],
                   -np.linspace(0.01, 20.0, 600)):
            mittag_leffler.ml_eval_many(params, zs)
        assert sizes == [2, 150]  # the curve's near nodes, z >= -10 alpha


class TestOnePath:
    """A lone value and a curve's node take the same staging, and each node's
    double pass is judged once; refusals come from ``ml_eval_detailed``, at
    the node, with the messages they always had."""

    def test_pass_that_does_not_stop_is_refused(self):
        with pytest.raises(SeriesConvergenceError, match=re.escape(
                "series for E[0.0001, 1.0](0.999) did not satisfy the stopping "
                "rule within 10000 terms")):
            ml_eval(MLParams(1e-4), 0.999)

    def test_positive_overflow_is_refused(self):
        with pytest.raises(MLOverflowError, match=re.escape(
                "E[1.0, 1.0](800.0) exceeds double range")):
            ml_eval(MLParams(1.0), 800.0)

    @pytest.mark.parametrize("zs", [
        [0.5, 0.999, 1.5],  # the pass that does not stop comes first
        [0.5, 1.5, 0.999],  # the peak term past double range comes first
        [-0.5, math.nan, 1.5],  # a non-finite z comes first
        [-30.0, 1.5, -3.0],  # far nodes, without a pass, around a refusal
    ])
    def test_curve_raises_the_first_refusal(self, zs):
        params = MLParams(1e-4)
        with pytest.raises((ArithmeticError, ValueError)) as lone:
            for z in zs:
                ml_eval(params, z)
        # the whole message: an mpmath pass's refusal extends the double pass's
        with pytest.raises(type(lone.value), match=f"^{re.escape(str(lone.value))}$"):
            mittag_leffler.ml_eval_many(params, zs)

    @pytest.mark.parametrize("contour", [True, False])
    def test_each_pass_is_judged_once(self, monkeypatch, contour):
        # a verdict per completed pass; a stopped pass is never judged, with
        # or without a contour value for its node
        verdicts, stopped = [], []
        real, kernel = mittag_leffler._certifies, mittag_leffler._sum_double_many

        def spy(res, k, max_mag):
            verdicts.extend(np.atleast_1d(np.asarray(res, dtype=float)).tolist())
            return real(res, k, max_mag)

        def kernel_spy(params, zs):
            many = kernel(params, zs)
            stopped.extend(r for r in per_pass(many) if not isinstance(r, tuple))
            return many

        monkeypatch.setattr(mittag_leffler, "_certifies", spy)
        monkeypatch.setattr(mittag_leffler, "_sum_double_many", kernel_spy)
        if not contour:
            monkeypatch.setattr(mittag_leffler, "_quadrature",
                                lambda params, z: [None] * z.size)
        # near nodes that certify, that go on to the contour, and far ones
        for params, zs in [(MLParams(0.7), -np.linspace(0.01, 20.0, 700)),
                           (MLParams(0.7, 0.5), -np.linspace(1.5, 1.8, 40)),
                           (MLParams(2.5), np.linspace(-30.0, 3.0, 50))]:
            if not contour:  # mpmath takes every node left: keep them few
                zs = zs[::10]
            verdicts.clear()
            stopped.clear()
            mittag_leffler.ml_eval_many(params, zs)
            near = np.count_nonzero(mittag_leffler._near(params, zs))
            assert len(verdicts) == near - len(stopped)
            assert (len(stopped) > 0) == (params.alpha < 2.0)
        for z in (-0.5, -5.0, -30.0):  # two near nodes, then one far
            verdicts.clear()
            ml_eval(MLParams(0.7), z)
            assert len(verdicts) == (z >= -7.0)

    def test_overflowing_node_gets_no_pass(self, monkeypatch):
        # the peak-term rule refuses z before any pass is summed, in a lone
        # value and in a curve
        def forbidden(params, z):
            raise AssertionError(f"double pass at z = {z}")

        seen = []
        kernel = mittag_leffler._sum_double_many

        def spy(params, zs):
            seen.extend(np.asarray(zs).tolist())
            return kernel(params, zs)

        monkeypatch.setattr(mittag_leffler, "_sum_double", forbidden)
        monkeypatch.setattr(mittag_leffler, "_sum_double_many", spy)
        for params, z in [(MLParams(1e-4), 1.5), (MLParams(1.0), 800.0)]:
            with pytest.raises(MLOverflowError, match=re.escape(
                    f"E[{params.alpha}, {params.beta}]({z}) exceeds double range")):
                ml_eval(params, z)
        with pytest.raises(MLOverflowError):
            mittag_leffler.ml_eval_many(MLParams(1.0), [-0.5, 800.0, -1.0, 900.0])
        assert seen == [-0.5, -1.0]


# alpha on 0.05..1.95 and the beta of the stop-rule scan; beta = None is alpha
STOP_ALPHAS = [round(0.05 + 0.1 * i, 2) for i in range(20)]
STOP_BETAS = [0.1, 0.3, None, 0.5, 1.0, 1.3, 1.5, 2.0, 3.0, 5.0]


class TestStopRule:
    """The lockstep kernel stops a pass only where it provably cannot
    certify; a stopped node that the contour does not certify goes to
    mpmath as its lone value does, so every value and refusal stays that of
    ``ml_eval``."""

    def test_stops_only_passes_that_fail(self):
        # 40 000 passes; lowering either margin of the rule to 0.5 stops
        # certifying passes here
        stopped = 0
        for alpha in STOP_ALPHAS:
            for beta in STOP_BETAS:
                params = MLParams(alpha, alpha if beta is None else beta)
                zs = (-np.linspace(0.0, 10.0 * alpha, 201)[1:]).tolist()
                many = per_pass(mittag_leffler._sum_double_many(params, zs))
                stopped += assert_stopped_passes_fail(params, zs, many)
        assert stopped > 10_000

    def test_checking_every_term_changes_no_value(self, monkeypatch):
        # the 40 000-pass scan and the benchmark curves with the rule
        # tested at every term: each pass that completes there is the same
        # tuple, each stop at the default interval falls on a multiple of
        # it and is a stop at every term too, no later; and every value
        # keeps its bits
        every = mittag_leffler._STOP_EVERY
        assert every > 1
        scans = [(MLParams(alpha, alpha if beta is None else beta),
                  (-np.linspace(0.0, 10.0 * alpha, 201)[1:]).tolist())
                 for alpha in STOP_ALPHAS for beta in STOP_BETAS]
        args = []
        real = kinetics.ml_eval_many

        def spy(params, zs):
            args.append((params, list(zs)))
            return real(params, zs)

        monkeypatch.setattr(kinetics, "ml_eval_many", spy)
        for nu, mu, span in BENCH_CURVES:
            p = KineticProblem(nu=nu, c=1.0, N_a=1.0, mu=mu)
            closed_form_curve(p, UniformGrid.from_span(0.0, span, 2000))
        assert len(args) == 16 and all(max(zs) <= 0.0 for _, zs in args)
        kernel = mittag_leffler._sum_double_many
        default = [per_pass(kernel(params, zs)) for params, zs in scans]
        values = [real(params, zs).tolist() for params, zs in args]
        monkeypatch.setattr(mittag_leffler, "_STOP_EVERY", 1)
        moved = 0
        for (params, zs), many in zip(scans, default):
            for z, got, one in zip(zs, many, per_pass(kernel(params, zs))):
                if isinstance(one, tuple):
                    assert got == one, (params, z)
                else:
                    moved += isinstance(got, tuple)
                if not isinstance(got, tuple):
                    assert got % every == 0 and isinstance(one, int) and one <= got, (params, z)
        assert moved > 0  # passes the default interval lets complete
        assert [real(params, zs).tolist() for params, zs in args] == values

    @pytest.mark.parametrize("alpha, beta", [(0.7, 1.0), (0.7, 0.5), (1.5, 1.0)])
    def test_stopped_passes_without_contour_values(self, monkeypatch, alpha, beta):
        # no node has a contour value: each stopped pass's node takes
        # mpmath, sized from the peak term as the lone value's is
        stopped = []
        kernel = mittag_leffler._sum_double_many

        def spy(params, zs):
            many = kernel(params, zs)
            stopped.extend(r for r in per_pass(many) if not isinstance(r, tuple))
            return many

        monkeypatch.setattr(mittag_leffler, "_sum_double_many", spy)
        monkeypatch.setattr(mittag_leffler, "_quadrature",
                            lambda params, z: [None] * z.size)
        params = MLParams(alpha, beta)
        zs = -np.linspace(0.05, 10.0 * alpha, 40)
        assert mittag_leffler.ml_eval_many(params, zs).tolist() == [
            ml_eval(params, z) for z in zs.tolist()]
        assert stopped

    def test_terms_on_the_far_benchmark_curve(self, monkeypatch):
        # the nu = 0.3 curve on 40/c: 1 947 near nodes, whose full passes
        # sum 514 060 terms; the kernel, testing its rule at every 8th
        # term, sums 34 170 (1 738 passes stopped)
        sums = []
        kernel = mittag_leffler._sum_double_many

        def spy(params, zs):
            many = kernel(params, zs)
            sums.append((params, np.asarray(zs), per_pass(many)))
            return many

        monkeypatch.setattr(mittag_leffler, "_sum_double_many", spy)
        closed_form_curve(KineticProblem(nu=0.3, c=1.0, N_a=1.0),
                          UniformGrid.from_span(0.0, 40.0, 2000))
        [(params, zs, many)] = sums
        assert zs.size == 1947
        assert sum(r if isinstance(r, int) else r[1] for r in many) == 34_170
        assert sum(not isinstance(r, tuple) for r in many) == 1738
        assert sum(mittag_leffler._sum_double(params, z)[1] for z in zs.tolist()) == 514_060


# The closed-form curves of the benchmark: (nu, mu or None, window in 1/c),
# c = 1, 2000 nodes; the last one is the curve of the known fault.
BENCH_CURVES = ([(nu, None, span) for span in (5.0, 40.0) for nu in (0.3, 0.7, 0.9)]
                + [(0.5, None, 400.0), (0.7, 0.5, 5.0), (0.5, 0.7, 5.0), (0.7, 1.5, 5.0),
                   (0.5, 1.3, 5.0), (0.5, None, 5.0), (1.0, None, 5.0), (0.5, 0.5, 5.0),
                   (1.0, 2.0, 5.0), (0.48091570891331814, None, 5.0)])


class TestBatchedContour:
    """``_contour`` and ``_quadrature`` on an array of x give every x the
    bits of its own one-row call, which is how a lone value is evaluated;
    and a row sums as a 1-D division of its own would."""

    @staticmethod
    def single(alpha, beta, x):
        value, err, nodes = mittag_leffler._contour(alpha, beta, np.array([x]))
        return float(value[0]), float(err[0]), int(nodes[0])

    @staticmethod
    def one_dimensional(alpha, beta, x):
        # the contour at one x as one 1-D division and two 1-D sums
        mu, residue, residue_scale, disc = (
            mittag_leffler._pole_terms(alpha, beta, x) if alpha > 1.0
            else (mittag_leffler._CONTOUR_MU, 0.0, 0.0, 0.0))
        c, e = mittag_leffler._contour_nodes(alpha, beta, mu)
        t = (c / (e + x)).imag
        err = mittag_leffler._CONTOUR_ROUNDING * (float(np.abs(t).sum()) + residue_scale)
        return float(t.sum()) + residue, err + disc, t.size

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 1.8, 1.99])
    def test_rows_equal_single_calls(self, alpha):
        # 203 rows, past one 2-D block and not a multiple of it; for
        # alpha > 1 the poles cross the contour in this range, where mu is
        # lowered
        xs = np.geomspace(1e-3, 10.0 * alpha, 203)
        assert xs.size > mittag_leffler._CONTOUR_ROWS and xs.size % mittag_leffler._CONTOUR_ROWS
        for beta in sorted({alpha, 1.0, alpha + 0.5, alpha - 2.0}):
            value, err, nodes = mittag_leffler._contour(alpha, beta, xs)
            singles = [self.single(alpha, beta, x) for x in xs.tolist()]
            assert list(zip(value.tolist(), err.tolist(), nodes.tolist())) == singles
            assert singles == [self.one_dimensional(alpha, beta, x) for x in xs.tolist()]
            assert (len(set(nodes.tolist())) > 1) == (alpha > 1.0)

    def test_one_row(self):
        # a lone value's contour: one row, summed as the 1-D division
        for alpha, beta, x in [(0.5, 1.0, 3.0), (1.5, 1.0, 1.0), (1.99, 0.5, 0.3)]:
            assert self.single(alpha, beta, x) == self.one_dimensional(alpha, beta, x)

    @pytest.mark.parametrize("alpha, beta", [
        (0.1, 1.0), (0.3, 1.0), (0.7, 0.5), (1.0, 1.0), (1.5, 1.0), (1.99, 2.0),
        (0.5, 6.0),  # beta - alpha > 3: heads split off on the whole axis
        (0.9, 30.0), (0.3, 200.0)])
    def test_quadrature_rows_equal_single_calls(self, alpha, beta):
        # both sides of x = 10 alpha, where m rises to 2 (or stays larger)
        params = MLParams(alpha, beta)
        zs = np.append(-np.geomspace(1e-2, 1e4, 301), [-1000.0, 0.0, 2.0])
        many = mittag_leffler._quadrature(params, zs)
        assert many == [mittag_leffler._quadrature(params, np.array([z]))[0] for z in zs.tolist()]
        assert many[-2:] == [None, None]  # z >= 0 is not its regime
        assert sum(res is not None for res in many) > 100

    def test_underflow_to_zero_is_certified(self):
        params = MLParams(0.3, 200.0)
        res = mittag_leffler._quadrature(params, np.array([-1000.0]))[0]
        assert res.value == 0.0 and res.regime == "contour"
        assert ml_eval_detailed(params, -1000.0) == res

    def test_exponential_underflow_to_zero_is_certified(self):
        # E[1](-x) = e^-x rounds to 0.0 past x = 1075 ln 2 ~ 745.13
        params = MLParams(1.0)
        for z in (-760.0, -1000.0, -1e5):
            start = time.perf_counter()
            res = ml_eval_detailed(params, z)
            assert time.perf_counter() - start < 0.1, z
            assert res.value == 0.0 and res.regime == "contour", z
        assert mittag_leffler.ml_eval_many(params, [-760.0, -1000.0]).tolist() == [0.0, 0.0]
        # the double 1075 ln 2 lies above the real one: e^-x rounds to 0.0 there
        assert float(mp.exp(-mp.mpf(mittag_leffler._UNDERFLOW_LOG))) == 0.0

    def test_each_node_passes_the_detailed_evaluator_once(self, monkeypatch):
        seen = []
        real = mittag_leffler.ml_eval_detailed

        def spy(params, z, summed=None):
            seen.append(z)
            return real(params, z, summed)

        monkeypatch.setattr(mittag_leffler, "ml_eval_detailed", spy)
        # 1100 nodes, past two 512-node blocks; then a one-node curve
        for params, zs in [(MLParams(0.7), -np.linspace(0.01, 60.0, 1100)),
                           (MLParams(0.7), np.array([-25.0]))]:
            seen.clear()
            values = mittag_leffler.ml_eval_many(params, zs)
            assert seen == zs.tolist()
            assert values.tolist() == [real(params, z).value for z in zs.tolist()]

    def test_benchmark_curves_equal_the_pointwise_values(self, monkeypatch):
        args = []
        real = kinetics.ml_eval_many

        def spy(params, zs):
            args.append((params, list(zs)))
            return real(params, zs)

        monkeypatch.setattr(kinetics, "ml_eval_many", spy)
        for nu, mu, span in BENCH_CURVES:
            p = KineticProblem(nu=nu, c=1.0, N_a=1.0, mu=mu)
            closed_form_curve(p, UniformGrid.from_span(0.0, span, 2000))
        assert len(args) == 16
        for params, zs in args:
            assert real(params, zs).tolist() == [ml_eval(params, z) for z in zs]


class TestCompletelyMonotoneRange:
    """E[alpha](-x) for 0 < alpha < 1 from the tiny to the far axis, where
    the series and the contour with its far form share the work."""

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.95, 0.99])
    def test_meets_contract_across_the_range(self, alpha):
        params = MLParams(alpha, 1.0)
        for x in [0.01, 0.7, 3.0, 30.0, 1e3, 1e6]:
            value = ml_eval_detailed(params, -x).value
            ref = ml_reference_negative(alpha, x)
            assert value == pytest.approx(ref, rel=1e-13, abs=0), x

    def test_contour_certifies_the_range(self):
        uncertified = []
        xs = np.geomspace(1e-3, 1e6, 46)
        for alpha in np.linspace(0.05, 0.99, 48):
            values, errs, _ = mittag_leffler._contour(float(alpha), 1.0, xs)
            for x, v, err in zip(xs, values, errs):
                if not err <= 1e-13 * abs(v):
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

    @pytest.mark.parametrize("alpha", [0.995, 0.9975, 0.999, 1.001, 1.005])
    def test_far_form_certifies_beta_equal_alpha(self, alpha):
        # 1/Gamma(beta - alpha) vanishes and E ~ x^-2 / Gamma(-alpha); a
        # contour on the remainder after one algebraic term misses these
        params = MLParams(alpha, alpha)
        xs = np.geomspace(10.0 * alpha, 1e6, 41)[1:]
        for x, res in zip(xs, mittag_leffler._quadrature(params, -xs)):
            assert res is not None and res.regime == "contour", x


def test_import_does_not_load_mpmath():
    code = "import sys, fracrelax; sys.exit('mpmath' in sys.modules)"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fracrelax.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
