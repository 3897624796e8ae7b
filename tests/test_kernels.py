"""Slope/curvature kernels, their series coefficients, and the log-gap."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from meanbounds import (
    MeanKind,
    curvature_coefficient,
    curvature_kernel,
    eval_mean,
    log_gap,
    log_gap_slope,
    log_mean_normalized,
    sharp_factor,
    slope_kernel,
)

from oracles import curvature_oracle, gap_oracle, log_gap_residual, slope_oracle

P_GRID = [-2.0, -0.5, 0.5, 1.0, 1.2, 4.0 / 3.0, 1.5, 2.0, 3.0]
DBL_MAX = np.finfo(float).max


# --- slope kernel -----------------------------------------------------------


def test_slope_matches_high_precision_reference():
    ts = np.concatenate([np.logspace(-6, -1, 8), np.linspace(0.15, 15.0, 25), [30.0, 50.0]])
    for p in P_GRID:
        for t in ts:
            want = float(slope_oracle(t, p))
            got = slope_kernel(float(t), p)
            # the closed form subtracts arctan(tanh t) from a same-sized
            # exponential term, leaving absolute noise of a few ulp of t
            scale = max(abs(want), abs(t) ** 3 * 1e-3)
            assert abs(got - want) <= 5e-13 * scale + 5e-16 * float(t), (t, p)


def test_slope_series_and_closed_form_agree_at_the_crossover():
    for p in P_GRID:
        below = slope_kernel(0.0999, p)
        above = slope_kernel(0.1001, p)
        mid = float(slope_oracle(0.1, p))
        assert below == pytest.approx(float(slope_oracle(0.0999, p)), rel=1e-12, abs=1e-16)
        assert above == pytest.approx(float(slope_oracle(0.1001, p)), rel=1e-12, abs=1e-16)
        assert below < mid < above or above < mid < below


def test_slope_small_t_cubic_coefficient():
    # f1(t) = (4/3 - p) t^3 + O(t^5)
    for p in P_GRID:
        t = 1e-4
        assert slope_kernel(t, p) / t**3 == pytest.approx(4.0 / 3.0 - p, abs=1e-7)


def test_slope_small_t_at_large_exponents():
    # below t = 0.1 the kernel must not grow with |p| t, up to and past cosh
    # overflow at |p| t ~ 710
    for p in (-1e4, -50.0, 50.0, 1e3, 1e4, 1e6):
        for t in (1e-3, 0.05, 0.0999):
            want = float(slope_oracle(t, p))
            assert slope_kernel(t, p) == pytest.approx(want, rel=1e-13), (t, p)


def test_slope_large_t_limit():
    # tanh(pt) -> 1 for p > 0, so f1 -> 1/2 - pi/4 + decaying exponentials
    limit = 0.5 - math.pi / 4
    for p in (2.0, 3.0):
        assert slope_kernel(50.0, p) == pytest.approx(limit, rel=1e-13)
    assert slope_kernel(50.0, 1.2) == pytest.approx(float(slope_oracle(50.0, 1.2)), rel=1e-13)


def test_slope_at_zero_and_domain():
    for p in P_GRID:
        assert slope_kernel(0.0, p) == 0.0
    with pytest.raises(ValueError):
        slope_kernel(-0.5, 2.0)


def test_slope_sign_structure():
    ts = np.logspace(-6, math.log10(50.0), 400)
    ones = np.array([slope_kernel(float(t), 1.0) for t in ts])
    assert np.all(ones > 0)
    third = np.array([slope_kernel(float(t), 4.0 / 3.0) for t in ts])
    assert np.all(third < 0)
    for p in (1.1, 1.2, 1.3):
        vals = np.array([slope_kernel(float(t), p) for t in ts])
        signs = np.sign(vals)
        changes = np.count_nonzero(signs[:-1] != signs[1:])
        assert changes == 1, p
        assert signs[0] > 0 > signs[-1], p


def test_slope_factors_through_mean_difference():
    # f1 = arctan(tanh t) * [cosh((p-1)t)/cosh(pt)] * (T_norm - Lehmer_{p-1,norm})
    # with T the second Seiffert mean; an independent arrangement.
    for p in (0.5, 1.2, 2.0):
        for t in (0.3, 1.0, 2.5, 6.0):
            seiffert = math.exp(log_mean_normalized(MeanKind("second-seiffert"), t))
            lehmer = math.exp(log_mean_normalized(MeanKind.lehmer(p - 1.0), t))
            factor = math.atan(math.tanh(t)) * math.cosh((p - 1.0) * t) / math.cosh(p * t)
            want = factor * (seiffert - lehmer)
            assert slope_kernel(t, p) == pytest.approx(want, rel=1e-11)


# --- curvature kernel -------------------------------------------------------


def test_curvature_matches_high_precision_reference():
    ts = np.concatenate([np.logspace(-6, -0.5, 10), np.linspace(0.5, 6.0, 12)])
    for p in P_GRID:
        for t in ts:
            want = float(curvature_oracle(t, p))
            got = curvature_kernel(float(t), p)
            # the closed form is a difference of cosh terms, so its absolute
            # noise floor scales with the largest summand, not with the value
            summand = math.cosh(max(2.0, abs(p), abs(2.0 - p)) * float(t))
            assert abs(got - want) <= 1e-13 * abs(want) + 5e-15 * summand, (t, p)


def test_curvature_product_arrangement():
    # 4 sinh^2(t) cosh^2(pt/2) - 4p cosh(t) sinh^2(t/2) - sinh(2t) sinh(pt)
    for p in (0.5, 1.2, 4.0 / 3.0, 2.0):
        for t in np.linspace(0.1, 5.0, 15):
            product = (
                4.0 * math.sinh(t) ** 2 * math.cosh(p * t / 2.0) ** 2
                - 4.0 * p * math.cosh(t) * math.sinh(t / 2.0) ** 2
                - math.sinh(2.0 * t) * math.sinh(p * t)
            )
            got = curvature_kernel(float(t), p)
            assert got == pytest.approx(product, rel=1e-10, abs=1e-11), (t, p)


def test_curvature_at_unit_parameter_collapses():
    # p=1: the kernel reduces to 2(cosh t - 1)
    for t in np.logspace(-4, 0.7, 12):
        assert curvature_kernel(float(t), 1.0) == pytest.approx(
            2.0 * (math.cosh(t) - 1.0), rel=1e-12
        )


def test_curvature_parameter_derivative():
    # d f2 / dp = -2(cosh t - 1) cosh t - 2 t sinh t cosh((p-1)t)
    for p in (0.8, 1.2, 1.5):
        for t in (0.5, 1.5, 3.0):
            h = 1e-6
            fd = (curvature_kernel(t, p + h) - curvature_kernel(t, p - h)) / (2 * h)
            closed = -2.0 * (math.cosh(t) - 1.0) * math.cosh(t) - 2.0 * t * math.sinh(
                t
            ) * math.cosh((p - 1.0) * t)
            assert fd == pytest.approx(closed, rel=1e-6), (t, p)


def test_curvature_drives_slope_derivative():
    # d f1/dt = f2(2t, p) / (4 cosh(2t) cosh^2(pt))
    for p in (0.7, 1.2, 1.8):
        for t in (0.4, 1.0, 2.0):
            h = 1e-6 * max(1.0, t)
            fd = (slope_kernel(t + h, p) - slope_kernel(t - h, p)) / (2 * h)
            closed = curvature_kernel(2.0 * t, p) / (
                4.0 * math.cosh(2.0 * t) * math.cosh(p * t) ** 2
            )
            assert fd == pytest.approx(closed, rel=1e-7), (t, p)


def test_slope_derivative_identity_to_high_precision():
    # the identity above holds exactly: checked at 60 digits, 16 (t, p) points,
    # with f1 spelled out apart from slope_oracle
    def f1(t, p):
        return -mp.atan(mp.tanh(t)) + mp.sinh(t) * (mp.cosh(t) - mp.tanh(p * t) * mp.sinh(t))

    worst = 0
    with mp.workdps(60):
        for p in map(mp.mpf, ("-2", "-0.5", "1.2", "3")):
            for t in map(mp.mpf, ("0.05", "0.7", "2", "6")):
                derivative = mp.diff(lambda s: f1(s, p), t)
                closed = curvature_oracle(2 * t, p) / (4 * mp.cosh(2 * t) * mp.cosh(p * t) ** 2)
                worst = max(worst, abs(derivative / closed - 1))
    assert worst < 1e-45


def test_slope_oracle_keeps_the_callers_precision():
    # mp.diff raises the precision it evaluates at; an oracle that pinned its
    # own lower precision would return equal values on both sides, and 0.0
    with mp.workdps(100):
        t, p = mp.mpf("0.05"), mp.mpf("1.2")
        derivative = mp.diff(lambda s: slope_oracle(s, p), t)
        closed = curvature_oracle(2 * t, p) / (4 * mp.cosh(2 * t) * mp.cosh(p * t) ** 2)
        assert abs(derivative / closed - 1) < mp.mpf("1e-40")


def test_curvature_series_branch_is_continuous():
    for p in (0.5, 1.2, 2.0):
        below = curvature_kernel(0.000999, p)
        above = curvature_kernel(0.001001, p)
        mid = 2.0 * (4.0 - 3.0 * p) * 0.001**2 / 2.0
        assert below == pytest.approx(mid, rel=2e-2)
        assert above == pytest.approx(mid, rel=2e-2)
        assert below == pytest.approx(float(curvature_oracle(0.000999, p)), rel=1e-9)


def test_single_crossing_of_the_kernel_on_a_dense_grid():
    ts = np.logspace(-4, math.log10(40.0), 10_000)
    for p in (1.1, 1.2, 1.3):
        values = np.array([curvature_kernel(float(t), p) for t in ts])
        signs = np.sign(values)
        assert np.count_nonzero(signs[:-1] != signs[1:]) == 1, p


def test_curvature_at_zero():
    for p in P_GRID:
        assert curvature_kernel(0.0, p) == 0.0


def test_curvature_past_cosh_overflow():
    # past t = 355 cosh(2t) overflows; at p = 1 its weight is 0 and the
    # kernel, 2 cosh t - 2, stays finite up to t = 710
    want = float(curvature_oracle(400.0, 1.0))
    assert curvature_kernel(400.0, 1.0) == pytest.approx(want, rel=1e-14)
    # past DBL_MAX: signed infinities, with no RuntimeWarning
    assert curvature_kernel(400.0, 1.2) == -math.inf
    assert curvature_kernel(400.0, 0.5) == math.inf
    np.testing.assert_array_equal(curvature_kernel(np.array([711.0, 2e3]), 1.0), math.inf)


def test_curvature_domain():
    # like its siblings, the curvature kernel is defined for t >= 0 only
    with pytest.raises(ValueError):
        curvature_kernel(-0.5, 1.2)
    with pytest.raises(ValueError):
        curvature_kernel(np.array([0.5, -1e-300]), 1.2)


def _curvature_to_its_cancellation(t, p):
    """curvature_oracle with digits for -p - 1 and for the terms' t^2 cancellation."""
    t, p = float(t), float(p)
    with mp.workdps(50 + int(math.log10(abs(p) + 1.0)) + int(2.0 * max(0.0, -math.log10(t)))):
        return curvature_oracle(t, p)


def test_curvature_at_large_exponents_matches_the_oracle():
    # past the series' range (max(|p-2|, |p|, 2) t < 1) its 8 terms do not
    # converge, and from |p| = 3e19 they overflow; the closed row
    # 2(1-p) sinh^2 t - 2 sinh((p-1)t) sinh t + 4p sinh^2(t/2) has terms of
    # O(|p| t^2) that do not cancel, and is about ulp(|p| t) off: 3.5e-14 at
    # worst here, all short of the far row at |p| t = 700
    ts = np.concatenate([np.logspace(-8, -3, 11), [1e-150, 1e-25, 5e-4, 0.03, 0.2]])
    for p in (3e3, 1e4, -1e4, 1e5, 1e6, -1e6, 1e9, 1e17, -1e17, 1e20):
        for t in ts[abs(p) * ts < 700.0]:
            want = _curvature_to_its_cancellation(t, p)
            assert abs(curvature_kernel(float(t), p) - want) <= 1e-13 * abs(want), (t, p)
    np.testing.assert_array_equal(
        curvature_kernel(np.array([5e-4, 0.2]), 1e6), [curvature_kernel(5e-4, 1e6), -math.inf]
    )


def test_curvature_just_above_the_series_radius():
    # the closed row's terms are O(t^2); at p = 4/3 f2 = O(t^4), so just above
    # t = 1e-3 they cancel by 1/t^2, and 1.3e-9 is left
    for p, bound in ((1.2, 1e-13), (0.5, 1e-13), (4.0 / 3.0, 1e-8)):
        for t in (np.nextafter(1e-3, 1.0), 1.5e-3, 3e-3):
            want = _curvature_to_its_cancellation(t, p)
            assert abs(curvature_kernel(t, p) - want) <= bound * abs(want), (t, p)


def test_curvature_far_row_at_huge_exponents():
    # past 700 / max(|p-2|, |p|, 2) the far row keeps every term of the closed
    # row: near its start at |p| = 1e100 the value is -t e^(p t)-sized, far
    # below the p-sized terms of the cosh form; 5.5e-14 at worst here
    points = [(701.0 / abs(p), p) for p in (1e6, -1e6)] + [
        (scaled / abs(p), p)
        for p in (1e100, 1e200, -1e200, 1e308, -1e308)
        for scaled in (701.0, 750.0, 800.0)
    ]
    for t, p in points:
        want = _curvature_to_its_cancellation(t, p)
        assert abs(curvature_kernel(t, p) - want) <= 2e-13 * abs(want), (t, p)


def test_curvature_past_dbl_max_is_a_signed_infinity():
    # scalar and array, with no warning under the suite's filterwarnings
    for p in (1.2, 0.5, 1.0, -3.0, 1e6, -1e6, 1e17, -1e17, 1e308, -1e308):
        rate = max(abs(p - 2.0), abs(p), 2.0)
        ts = [1e3 / rate, 1e4 / rate, 1e100 / rate, 5e-4, 0.7, 400.0, 1e300, DBL_MAX]
        wants = [_curvature_to_its_cancellation(t, p) for t in ts]
        ts = [t for t, want in zip(ts, wants) if abs(want) > DBL_MAX]
        infs = [math.copysign(math.inf, want) for want in wants if abs(want) > DBL_MAX]
        assert len(ts) >= 3, p
        assert [curvature_kernel(t, p) for t in ts] == infs, p
        np.testing.assert_array_equal(curvature_kernel(np.array(ts), p), infs)


# --- series coefficients ----------------------------------------------------


def test_coefficient_exact_values():
    third = Fraction(4, 3)
    assert curvature_coefficient(1, third) == 0
    for p in (Fraction(1, 2), Fraction(6, 5), third, 2):
        assert curvature_coefficient(1, p) == 2 * (4 - 3 * p)
    with pytest.raises(ValueError):
        curvature_coefficient(0, 1.2)


def test_coefficient_closed_form_at_upper_endpoint():
    # u_n(4/3) = -(4^{2n} - 2^{2n})/3^{2n} - (2^{2n} - 8)/3 for n >= 2
    third = Fraction(4, 3)
    for n in range(2, 41):
        closed = -Fraction(4**(2 * n) - 2**(2 * n), 3**(2 * n)) - Fraction(
            2**(2 * n) - 8, 3
        )
        assert curvature_coefficient(n, third) == closed, n


def test_coefficient_recurrence():
    # u_{n+1} - u_n = -(p-1)[(3-p)(2-p)^{2n} + 3*4^n + (p+1) p^{2n}]
    for p in (Fraction(1, 2), Fraction(5, 4), Fraction(4, 3), Fraction(2)):
        for n in range(1, 20):
            step = curvature_coefficient(n + 1, p) - curvature_coefficient(n, p)
            closed = -(p - 1) * ((3 - p) * (2 - p) ** (2 * n) + 3 * 4**n + (p + 1) * p ** (2 * n))
            assert step == closed, (p, n)


def test_coefficients_decrease_inside_the_critical_band():
    for p in (1.05, 1.1, 1.2, 1.3, 1.33):
        values = [curvature_coefficient(n, p) for n in range(1, 32)]
        assert all(x > y for x, y in zip(values, values[1:])), p


def test_coefficient_growth_rate():
    # u_n / 4^n -> 1 - p
    for p in (1.1, 1.2, 1.3):
        assert curvature_coefficient(60, p) / 4.0**60 == pytest.approx(1.0 - p, abs=1e-6)


def test_series_sums_to_the_kernel():
    # sum u_n t^{2n} / (2n)! reproduces the closed form
    for p in (0.5, 1.0, 1.2, 4.0 / 3.0, 2.0):
        for t in np.linspace(0.3, 5.0, 12):
            total, term_scale = 0.0, abs(float(t)) ** 2
            for n in range(1, 60):
                term = curvature_coefficient(n, p) * float(t) ** (2 * n) / math.factorial(2 * n)
                total += term
                if n > 4 and abs(term) < 1e-18 * max(1.0, abs(total)):
                    break
            assert total == pytest.approx(curvature_kernel(float(t), p), rel=1e-10), (t, p)
            assert term_scale > 0


# --- log-gap ----------------------------------------------------------------


def test_log_gap_matches_high_precision_reference():
    ts = np.concatenate([np.logspace(-5, -1, 6), np.linspace(0.2, 10.0, 15), [25.0, 45.0]])
    for p in (-1.5, -0.5, 0.5, 1.0, 1.2351702290504027, 4.0 / 3.0, 2.0):
        for t in ts:
            want = float(gap_oracle(t, p))
            got = log_gap(float(t), p)
            # noise floor: the gap is a difference of two log-profiles of
            # magnitude ~ t^2 (small t) / ~ t (large t), carrying tens of ulp
            floor = 1e-14 * max(float(t) ** 2, float(t))
            assert abs(got - want) <= 1e-13 * abs(want) + floor, (t, p)


def test_log_gap_small_t_quadratic_coefficient():
    # F(t,p) = -(p - 4/3) t^2 / 2 + O(t^4)
    for p in (-1.0, 0.5, 1.2, 2.0):
        t = 1e-4
        assert log_gap(t, p) / t**2 == pytest.approx(-(p - 4.0 / 3.0) / 2.0, abs=1e-6)


def test_log_gap_large_t_limit_is_the_sharp_factor():
    for p in (0.1, 0.5, 1.0, 4.0 / 3.0, 2.0, 10.0):
        t = max(45.0, 40.0 / p)
        assert log_gap(t, p) == pytest.approx(math.log(sharp_factor(p)), abs=1e-12)


def test_log_gap_zero_limit_and_domain():
    assert abs(log_gap(1e-9, 2.0)) < 1e-15
    # at p = 0 M_p is the geometric mean, as for MeanKind.power(0): the gap is log B bit for bit
    t = np.array([0.0, 5e-324, 1e-9, 0.05, 0.3, 0.7, 20.0, 700.0, 709.78, 1e300])
    gap = log_mean_normalized(MeanKind("sandor-yang"), t) - log_mean_normalized(
        MeanKind("geometric"), t
    )
    for p in (0.0, -0.0, 0):
        np.testing.assert_array_equal(log_gap(t, p).view(np.int64), gap.view(np.int64))
        scalars = [log_gap(x, p) for x in t.tolist()]
        np.testing.assert_array_equal(np.array(scalars).view(np.int64), gap.view(np.int64))
    with pytest.raises(ValueError):
        log_gap(-1.0, 2.0)


def test_a_nan_or_infinite_exponent_raises():
    t = np.array([5e-4, 0.7, 400.0])
    for fn in (slope_kernel, curvature_kernel, log_gap_slope):
        for p in (math.nan, math.inf, -math.inf, np.float64("nan"), "inf"):
            for x in (0.7, t):
                with pytest.raises(ValueError, match="^p must be finite$"):
                    fn(x, p)
    for x in (0.7, t):
        with pytest.raises(ValueError, match="^p must not be NaN$"):
            log_gap(x, math.nan)
    # at p = +/-inf M_p is max/min, so the gap is log m(t) -/+ t
    sandor_yang = log_mean_normalized(MeanKind("sandor-yang"), t)
    np.testing.assert_allclose(log_gap(t, math.inf), sandor_yang - t, rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(log_gap(t, -math.inf), sandor_yang + t, rtol=1e-15)
    assert log_gap(0.7, math.inf) == log_gap(t, math.inf)[1]


def test_log_gap_monotone_structure():
    ts = np.logspace(-4, 1.5, 60)
    slopes_low = np.array([log_gap_slope(float(t), 1.0) for t in ts])
    assert np.all(slopes_low > 0)
    slopes_high = np.array([log_gap_slope(float(t), 4.0 / 3.0) for t in ts])
    assert np.all(slopes_high < 0)


def test_log_gap_slope_matches_finite_differences():
    for p in (-1.0, 0.5, 1.2, 2.0):
        for t in np.logspace(-3, 1.2, 20):
            t = float(t)
            h = 1e-5 * max(1.0, t)
            fd = (log_gap(t + h, p) - log_gap(t - h, p)) / (2 * h)
            slope = log_gap_slope(t, p)
            assert abs(fd - slope) <= 1e-6 * abs(slope) + 1e-9, (t, p)


def test_log_gap_slope_at_tiny_t():
    # d/dt log_gap ~ (4/3 - p) t, with no t^3 or sinh^2 t formed on the way
    for p in (0.5, 1.2, 2.0):
        for t in (1e-300, 1e-170, 1e-120, 1e-60):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = log_gap_slope(t, p)
            assert got == pytest.approx((4.0 / 3.0 - p) * t, rel=1e-14), (t, p)
    # and F'(0) = 0 for every finite p, scalar and array
    for p in (-1e308, -3.0, 0.0, 0.5, 1.0, 1.2, 4.0 / 3.0, 2.0, 1e6, 1e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_gap_slope(0.0, p) == 0.0, p
            assert log_gap_slope(np.array([0.0, 0.05, 0.5]), p)[0] == 0.0, p


def test_log_gap_slope_past_sinh_overflow():
    # slope_kernel and sinh^2 t overflow here; the quotient is taken in logs
    for t, p in ((360.0, -2.0), (2000.0, -2.0), (360.0, 0.9)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_gap_slope(t, p)
        with mp.workdps(60 + int(t)):
            want = slope_oracle(t, p) / mp.sinh(t) ** 2
        assert abs(got - want) <= 1e-12 * abs(want), (t, p, got)


def test_log_gap_slope_in_logs_from_a_tenth():
    # one row takes the quotient in logs from t = 0.1 on; its error, relative
    # to |F'| + arctan(tanh t)/sinh^2 t (the size of the two terms it
    # subtracts), grows with the logs of size |p| t: 8.7e-14 at worst here
    worst = 0.0
    for p in (-3.0, -0.5, 0.5, 1.0, 1.2, 4.0 / 3.0, 2.0, 5.0, 10.0):
        for t in np.logspace(-1, math.log10(350.0), 40):
            with mp.workdps(60 + int(t)):
                sinh2 = mp.sinh(t) ** 2
                want = slope_oracle(t, p) / sinh2
                scale = abs(want) + mp.atan(mp.tanh(t)) / sinh2
                worst = max(worst, float(abs(log_gap_slope(float(t), p) - want) / scale))
    assert worst <= 2e-13


def test_log_gap_slope_shares_sign_with_slope_kernel():
    for p in (0.5, 1.2, 1.5):
        for t in (0.01, 0.5, 2.0, 8.0):
            assert math.copysign(1.0, log_gap_slope(t, p)) == math.copysign(
                1.0, slope_kernel(t, p)
            )


def test_log_gap_residual_under_direct_evaluation():
    pairs = [(1.0, 3.0), (0.5, 8.0), (2.0, 2.002), (1.0, math.exp(4.0))]
    for p in (-2.0, 0.5, 1.0, 4.0 / 3.0, 2.0):
        for a, b in pairs:
            assert log_gap_residual(a, b, p) <= 1e-11, (a, b, p)
    with pytest.raises(ValueError):
        log_gap_residual(3.0, 3.0, 2.0)
