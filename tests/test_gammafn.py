import math
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrelax.gammafn import (
    GammaDomainError,
    GammaOverflowError,
    gamma,
    reciprocal_gamma,
    sinpi,
)
from fracrelax.riemann_liouville import rl_derivative_power

SQRT_PI = math.sqrt(math.pi)


class TestGammaValues:
    def test_integers_exact(self):
        assert gamma(1.0) == 1.0
        assert gamma(2.0) == 1.0
        assert gamma(5.0) == 24.0
        assert gamma(13.0) == float(math.factorial(12))

    def test_half_integer(self):
        # independent value: sqrt(pi) from the square root, not from gamma
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
        # cross-check through the reflection formula at x = 1/2
        assert gamma(0.5) ** 2 == pytest.approx(math.pi, rel=1e-13)

    def test_negative_half_integers(self):
        assert gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)
        assert gamma(-2.5) == pytest.approx(-8.0 * SQRT_PI / 15.0, rel=1e-13)

    def test_accuracy_against_mpmath(self):
        # deterministic sample over the contract range [-170, 170]
        mp.mp.dps = 40
        worst = 0.0
        for i in range(400):
            x = -170.0 + 340.0 * (i + 0.5) / 400 + 0.000123
            if x <= 0 and abs(x - round(x)) < 1e-3:
                continue
            ref = mp.gamma(x)
            rel = abs((mp.mpf(gamma(x)) - ref) / ref)
            worst = max(worst, float(rel))
        assert worst <= 1e-13

    def test_contract_edges(self):
        mp.mp.dps = 40
        for x in (170.0, -170.2, 169.5, -169.5):
            ref = mp.gamma(x)
            assert float(abs((mp.mpf(gamma(x)) - ref) / ref)) <= 1e-13


class TestGammaErrors:
    @pytest.mark.parametrize("x", [0.0, -1.0, -3.0, -120.0])
    def test_poles_raise(self, x):
        with pytest.raises(GammaDomainError) as exc:
            gamma(x)
        assert exc.value.argument == x

    def test_nan_raises(self):
        with pytest.raises(GammaDomainError):
            gamma(math.nan)

    def test_overflow_flagged(self):
        with pytest.raises(GammaOverflowError):
            gamma(172.0)
        with pytest.raises(GammaOverflowError):
            gamma(math.inf)
        # just below the threshold still finite
        assert math.isfinite(gamma(171.6))

    def test_overflow_next_to_zero_pole(self):
        # |Gamma(x)| ~ 1/|x| exceeds double range for 0 < |x| < ~5.6e-309
        for x in (2.225073858507e-311, -2.225073858507e-311, 5e-309):
            with pytest.raises(GammaOverflowError) as exc:
                gamma(x)
            assert exc.value.argument == x
        assert gamma(1e-300) == pytest.approx(1e300, rel=1e-12)


class TestReciprocalGamma:
    def test_poles_give_exact_zero(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(-150.0) == 0.0

    def test_positive_integers(self):
        assert reciprocal_gamma(2.0) == 1.0
        assert reciprocal_gamma(1.0) == 1.0
        assert reciprocal_gamma(5.0) == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_total_beyond_overflow(self):
        # 1/Gamma underflows smoothly instead of raising
        assert reciprocal_gamma(200.0) == pytest.approx(
            float(mp.rgamma(200)), rel=1e-12
        )
        assert reciprocal_gamma(400.0) == 0.0
        assert reciprocal_gamma(math.inf) == 0.0

    def test_near_pole_not_zero(self):
        assert reciprocal_gamma(-3.0 + 1e-10) != 0.0

    @pytest.mark.parametrize("x", [-171.1, -171.5, -172.5, -199.999999999, -999999.5])
    def test_overflow_past_double_range(self, x):
        # |1/Gamma(x)| = |x sin(pi x)| Gamma(-x) / pi passes ~1.8e308 between these poles
        with mp.workdps(40):
            assert abs(mp.rgamma(x)) > sys.float_info.max
        with pytest.raises(GammaOverflowError, match=r"^1/gamma\(.*\) overflows") as exc:
            reciprocal_gamma(x)
        assert exc.value.argument == x

    @pytest.mark.parametrize("x", [-171.999999999999, -171.000000001, -171.05, -171.09])
    def test_finite_past_double_range_of_gamma(self, x):
        # next to the poles, and where x sin(pi x) Gamma(-x) alone would overflow
        with mp.workdps(40):
            expected = float(mp.rgamma(x))
        assert reciprocal_gamma(x) == pytest.approx(expected, rel=1e-13)

    def test_poles_past_double_range_of_gamma(self):
        assert reciprocal_gamma(-172.0) == reciprocal_gamma(-200.0) == 0.0
        # the value before the overflow refusal, bit for bit
        assert reciprocal_gamma(-171.999999999999) == 2.1233656703634494e+299

    def test_overflow_reaches_operator_rules(self):
        # D^nu (t - a)^(rho - 1) needs 1/Gamma(rho - nu) = 1/Gamma(-199.8)
        with pytest.raises(GammaOverflowError, match=r"^1/gamma\(-199\.8\) overflows"):
            rl_derivative_power(0.0, 0.5, 200.3, 1.0)


class TestIdentities:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
    def test_reflection(self, x):
        lhs = gamma(x) * gamma(1.0 - x) * sinpi(x) / math.pi
        assert lhs == pytest.approx(1.0, rel=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-169.5, max_value=169.5))
    def test_reciprocal_consistency(self, x):
        # stay away from the poles where gamma is undefined
        if x <= 0 and abs(x - round(x)) < 1e-3:
            return
        with mp.workdps(30):
            overflows = math.isinf(float(mp.gamma(x)))
        if overflows:
            # 0 < x < ~5.6e-309: Gamma(x) ~ 1/x is beyond double range, so
            # gamma must say so, while 1/Gamma(x) = x (1 + O(x)) stays exact
            with pytest.raises(GammaOverflowError):
                gamma(x)
            assert reciprocal_gamma(x) == pytest.approx(x, rel=1e-12)
            return
        assert reciprocal_gamma(x) * gamma(x) == pytest.approx(1.0, rel=1e-12)
