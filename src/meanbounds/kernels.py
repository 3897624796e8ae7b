"""Kernel functions controlling the sharp mean comparisons.

The comparisons between the sandor-yang mean and the power-mean family all
reduce to one scalar function of the half log ratio t and the exponent p:

    log_gap(t, p) = log B(e^-t, e^t) - log M_p(e^-t, e^t),

whose t-derivative is slope_kernel(t, p) / sinh^2(t) with

    slope_kernel(t, p) = -arctan(tanh t) + sinh(t) cosh(t) - tanh(pt) sinh^2(t)
                       = -arctan(tanh t) + sinh(t) cosh((p-1)t) / cosh(pt),

and the t-derivative of slope_kernel is in turn governed by

    curvature_kernel(t, p) = cosh((p-2)t) - cosh(pt) + (1-p) cosh(2t)
                             + 2p cosh(t) - p - 1
                           = sum_{n>=1} curvature_coefficient(n, p) t^(2n)/(2n)!

with curvature_coefficient(n, p) = (2-p)^(2n) - p^(2n) + (1-p) 4^n + 2p.

Both kernels vanish to high order at t = 0 while being differences of O(1)
terms, so each carries a Maclaurin branch that preserves the sign of values
as small as 1e-31 which the closed forms would drown in rounding noise.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .means import MeanKind, _lognorm_power, _lognorm_sandor_yang, eval_mean, half_log_ratio
from .numerics import (
    _atan_tanh_coeffs,
    _cosh_coeffs,
    _elementwise,
    _horner,
    _logcosh,
    _logsinh,
    _piecewise,
    _series_quotient,
    _sinh_coeffs,
    atan_tanh,
)

_SLOPE_SERIES_RADIUS = 0.1
_SLOPE_SERIES_TERMS = 16
_CURV_SERIES_RADIUS = 1e-3
_CURV_SERIES_TERMS = 8
# cosh(700) = 5e303: up to here the closed form's terms and sum stay finite
_CURV_CLOSED_MAX_ARG = 700.0


def curvature_coefficient(n: int, p):
    """(2-p)^(2n) - p^(2n) + (1-p) 4^n + 2p for n >= 1.

    Plain arithmetic throughout: exact when fed Fraction/int, float otherwise.
    """
    if n < 1:
        raise ValueError("coefficient index must be >= 1")
    return (2 - p) ** (2 * n) - p ** (2 * n) + (1 - p) * 4**n + 2 * p


@lru_cache(maxsize=None)
def _float_coeffs(table):
    """The first _SLOPE_SERIES_TERMS coefficients of an exact table, as floats."""
    return [float(c) for c in table(_SLOPE_SERIES_TERMS)]


def _slope_series_table(p: float):
    """x = t^2 coefficients of slope_kernel(t, p) / t^3.

    Built as the odd-series quotient sinh(t) cosh((p-1)t) / cosh(pt) minus the
    arctan(tanh) series.  The leading coefficient is (4/3 - p).
    """
    n = _SLOPE_SERIES_TERMS
    sinh_c = _float_coeffs(_sinh_coeffs)
    atan_c = _float_coeffs(_atan_tanh_coeffs)
    cosh_c = _float_coeffs(_cosh_coeffs)
    q = p - 1.0
    cosh_q = [cosh_c[k] * q ** (2 * k) for k in range(n)]
    cosh_p = [cosh_c[k] * p ** (2 * k) for k in range(n)]
    # numerator: sinh(t) * cosh((p-1)t), odd series
    num = [sum(sinh_c[i] * cosh_q[k - i] for i in range(k + 1)) for k in range(n)]
    # divide by cosh(pt), then subtract the arctan(tanh t) coefficients
    quot = _series_quotient(num, cosh_p)
    return np.array([quot[k] - atan_c[k] for k in range(1, n)])


def _slope_kernel(t, p: float):
    def series(t):
        return _horner(_slope_series_table(p), t * t) * np.power(t, 3)

    def closed(t):
        with np.errstate(over="ignore"):
            core = np.exp(_logsinh(t) + _logcosh((p - 1.0) * t) - _logcosh(p * t))
        return core - atan_tanh(t)

    return _piecewise(t, ((lambda t: t < _SLOPE_SERIES_RADIUS, series), (None, closed)))


@_elementwise("nonnegative")
def slope_kernel(t, p: float):
    """f(t) = -arctan(tanh t) + sinh(t) cosh(t) - tanh(pt) sinh^2(t).

    Continuous extension 0 at t = 0; behaves like (4/3 - p) t^3 near zero and
    tends to 1/2 - pi/4 as t -> infinity when p > 1.
    """
    return _slope_kernel(t, float(p))


@_elementwise("nonnegative")
def curvature_kernel(t, p: float):
    """cosh((p-2)t) - cosh(pt) + (1-p)cosh(2t) + 2p cosh(t) - p - 1, for t >= 0."""
    p = float(p)
    terms = ((1.0, p - 2.0), (-1.0, p), (1.0 - p, 2.0), (2.0 * p, 1.0))  # w cosh(k t)

    def series(t):
        x = np.square(t)
        coeffs = [
            curvature_coefficient(n, p) / math.factorial(2 * n)
            for n in range(1, _CURV_SERIES_TERMS + 1)
        ]
        return _horner(coeffs, x) * x

    def far(t):
        # rate t > 350 here, so the kernel is sum w e^(|k| t)/2 to within
        # e^-350; summed relative to e^(rate t), it turns +/-inf past DBL_MAX
        live = [(w, abs(k)) for w, k in terms if w != 0.0]
        rate = max(k for _, k in live)
        scaled = sum(0.5 * w * np.exp((k - rate) * t) for w, k in live)
        with np.errstate(over="ignore"):
            half = np.exp(0.5 * rate * t)
            return scaled * half * half

    def closed(t):
        return sum(w * np.cosh(k * t) for w, k in terms) - p - 1.0

    far_from = _CURV_CLOSED_MAX_ARG / max(abs(k) for _, k in terms)
    return _piecewise(
        t,
        (
            (lambda t: t < _CURV_SERIES_RADIUS, series),
            (lambda t: t > far_from, far),
            (None, closed),
        ),
    )


@_elementwise("nonnegative")
def log_gap(t, p: float):
    """log B - log M_p on the normalized pair (e^-t, e^t).

    Vanishes at t = 0; tends to pi/4 - log2/2 + log2/p - 1 as t -> infinity
    for p > 0.  Requires p != 0 (the power mean exponent appears as 1/p).
    """
    p = float(p)
    if p == 0.0:
        raise ValueError("log_gap requires a nonzero exponent")
    return _lognorm_sandor_yang(t) - _lognorm_power(p, t)


@_elementwise("positive")
def log_gap_slope(t, p: float):
    """d/dt of log_gap = slope_kernel(t, p) / sinh^2(t), for t > 0."""
    with np.errstate(over="ignore"):
        return _slope_kernel(t, float(p)) / np.square(np.sinh(t))


def log_gap_residual(a: float, b: float, p: float) -> float:
    """|log B(a,b) - log M_p(a,b) - log_gap(t, p)| with t the half log ratio.

    Cross-checks the normalized kernel against the direct pair evaluation;
    the contract is a residual below 1e-11.
    """
    if a == b:
        raise ValueError("residual check requires distinct arguments")
    t = half_log_ratio(a, b)
    lhs = math.log(eval_mean(MeanKind("sandor-yang"), a, b)) - math.log(
        eval_mean(MeanKind.power(p), a, b)
    )
    return abs(lhs - log_gap(t, p))
