"""Single-sign-change detection and positive-root bracketing for series."""

import math
from fractions import Fraction

import numpy as np
import pytest

from meanbounds import (
    CoefficientSeq,
    curvature_coefficient,
    curvature_kernel,
    detect_sign_change,
    series_positive_root,
)


# --- sign-change detection ----------------------------------------------------


def test_detects_the_simplest_pattern():
    assert detect_sign_change([1.0, -1.0]) == 0
    assert detect_sign_change([2.0, 1.0, -0.5, -3.0]) == 1
    assert detect_sign_change([1.0, 0.0, -1.0]) == 0


def test_rejects_patterns_without_a_single_change():
    assert detect_sign_change([1.0, 2.0, 3.0]) is None
    assert detect_sign_change([-1.0, -2.0]) is None
    assert detect_sign_change([1.0, -1.0, 1.0]) is None
    assert detect_sign_change([0.0, -1.0]) is None
    with pytest.raises(ValueError):
        detect_sign_change([])


def test_curvature_coefficients_have_the_pattern_inside_the_band():
    for p in (1.05, 1.2, 1.3):
        coeffs = [float(curvature_coefficient(n, p)) for n in range(1, 40)]
        idx = detect_sign_change(coeffs)
        assert idx is not None
        assert coeffs[idx] > 0 and coeffs[idx + 1] <= 0


def test_curvature_coefficients_at_the_sharp_exponent_have_no_positive_head():
    # at p = 4/3 the leading coefficient vanishes and the rest are negative
    coeffs = [float(curvature_coefficient(n, Fraction(4, 3))) for n in range(1, 40)]
    assert detect_sign_change(coeffs) is None


def test_sequence_wrapper_and_evaluation():
    seq = CoefficientSeq.from_coeffs((1.0, 1.0, -1.0))
    assert seq.sign_change_index == 1
    assert seq(0.0) == 1.0
    assert seq(2.0) == 1.0 + 2.0 - 4.0
    with pytest.raises(ValueError):
        CoefficientSeq.from_coeffs((1.0, 2.0))


# --- positive-root bracketing --------------------------------------------------


def test_root_of_linear_and_quadratic_prototypes():
    seq = CoefficientSeq.from_coeffs((1.0, -1.0))
    assert series_positive_root(seq, radius=10.0) == 1.0
    golden = CoefficientSeq.from_coeffs((1.0, 1.0, -1.0))
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(series_positive_root(golden, radius=10.0) - phi) <= math.ulp(phi)


def test_root_brackets_a_true_sign_change():
    seq = CoefficientSeq.from_coeffs((2.0, 0.5, -0.25, -1.0))
    root = series_positive_root(seq, radius=50.0)
    assert seq(root * (1.0 - 1e-9)) > 0 > seq(root * (1.0 + 1e-9))


def test_curvature_series_root_matches_direct_bisection():
    # root of the kernel in the variable x = t^2, against bisection on the
    # closed form in t
    p = Fraction(6, 5)
    coeffs = tuple(
        float(curvature_coefficient(n, p) / math.factorial(2 * n)) for n in range(1, 45)
    )
    seq = CoefficientSeq.from_coeffs(coeffs)
    t_series = math.sqrt(series_positive_root(seq, radius=40.0))

    lo, hi = 0.5, 6.0
    assert curvature_kernel(lo, float(p)) > 0 > curvature_kernel(hi, float(p))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if curvature_kernel(mid, float(p)) > 0:
            lo = mid
        else:
            hi = mid
    t_direct = 0.5 * (lo + hi)
    assert t_series == pytest.approx(t_direct, rel=1e-9)


def test_single_crossing_of_the_kernel_on_a_dense_grid():
    ts = np.logspace(-4, math.log10(40.0), 10_000)
    for p in (1.1, 1.2, 1.3):
        values = np.array([curvature_kernel(float(t), p) for t in ts])
        signs = np.sign(values)
        assert np.count_nonzero(signs[:-1] != signs[1:]) == 1, p


def test_no_root_inside_radius_raises():
    seq = CoefficientSeq.from_coeffs((1.0, 1.0, -1e-9))
    with pytest.raises(ValueError, match="no sign change"):
        series_positive_root(seq, radius=10.0)
