"""Kernel functions controlling the sharp mean comparisons.

The comparisons between the sandor-yang mean and the power-mean family all
reduce to one scalar function of the half log ratio t and the exponent p:

    log_gap(t, p) = log B(e^-t, e^t) - log M_p(e^-t, e^t),

whose t-derivative is slope_kernel(t, p) / sinh^2(t) with

    slope_kernel(t, p) = -arctan(tanh t) + sinh(t) cosh(t) - tanh(pt) sinh^2(t)
                       = -arctan(tanh t) + sinh(t) cosh((p-1)t) / cosh(pt),

and the t-derivative of slope_kernel is exactly

    d/dt slope_kernel(t, p) = curvature_kernel(2t, p) / (4 cosh(2t) cosh^2(pt))

where

    curvature_kernel(t, p) = cosh((p-2)t) - cosh(pt) + (1-p) cosh(2t)
                             + 2p cosh(t) - p - 1
                           = sum_{n>=1} curvature_coefficient(n, p) t^(2n)/(2n)!

with curvature_coefficient(n, p) = (2-p)^(2n) - p^(2n) + (1-p) 4^n + 2p.

Both kernels vanish to high order at t = 0 while being differences of O(1)
terms, which the closed forms would drown in rounding noise.  Below t = 0.1
the slope kernel uses the product-to-sum identity

    cosh(t) cosh((p-1)t) - cosh(pt) = -sinh((p-1)t) sinh(t),

which leaves slope_kernel(t, p) / sinh^2(t) as a sum of two O(t) terms,

    -sinh((p-1)t) / (cosh(pt) cosh(t)) - g(tanh t) / cosh^2(t),

with g(y) = (arctan y - y)/y^2 from the arctan series.  No t^3 factor is
formed, so this quotient, which log_gap_slope returns, keeps its relative
accuracy down to the smallest normal t.  Below t = 1e-3 the curvature kernel
sums its Maclaurin series, whose coefficients are exact in p.
"""

from __future__ import annotations

import math

import numpy as np

from .means import _lognorm_power, _lognorm_sandor_yang
from .numerics import (
    _ATAN_SERIES_Y,
    _COSH_MAX_ARG,
    _atan_series,
    _elementwise,
    _horner,
    _logcosh,
    _logsinh,
    _piecewise,
    _square,
)

_CURV_SERIES_RADIUS = 1e-3
_CURV_SERIES_TERMS = 8


def curvature_coefficient(n: int, p):
    """(2-p)^(2n) - p^(2n) + (1-p) 4^n + 2p for n >= 1.

    Plain arithmetic throughout: exact when fed Fraction/int, float otherwise.
    """
    if n < 1:
        raise ValueError("coefficient index must be >= 1")
    return (2 - p) ** (2 * n) - p ** (2 * n) + (1 - p) * 4**n + 2 * p


def _slope_over_sinh2(t, p: float):
    """slope_kernel(t, p) / sinh^2(t) by product to sum, for t < 0.1.

    There tanh t < 0.1 too, inside the arctan series' range.
    """
    y = np.tanh(t)
    c = np.cosh(t)
    if abs(p) < 2.0:
        a = np.sinh((p - 1.0) * t) / np.cosh(p * t)
    else:  # the same, but finite for any p t; it cancels by at most a factor 2
        a = np.tanh(p * t) * c - np.sinh(t)
    return -(a + _atan_series(y) * (y / c)) / c


def _slope_closed(t, p: float):
    with np.errstate(over="ignore"):
        core = np.exp(_logsinh(t) + _logcosh((p - 1.0) * t) - _logcosh(p * t))
    return core - np.arctan(np.tanh(t))


_SLOPE_ROWS = (
    (lambda t, p: t < _ATAN_SERIES_Y, lambda t, p: _square(np.sinh(t)) * _slope_over_sinh2(t, p)),
    (None, _slope_closed),
)


@_elementwise("nonnegative")
def slope_kernel(t, p: float):
    """f(t) = -arctan(tanh t) + sinh(t) cosh(t) - tanh(pt) sinh^2(t).

    Continuous extension 0 at t = 0; behaves like (4/3 - p) t^3 near zero and
    tends to 1/2 - pi/4 as t -> infinity when p > 1.
    """
    return _piecewise(t, _SLOPE_ROWS, float(p))


def _curv_terms(p: float):
    """The (w, k) of the curvature kernel's terms w cosh(k t)."""
    return ((1.0, p - 2.0), (-1.0, p), (1.0 - p, 2.0), (2.0 * p, 1.0))


def _curv_series(t, p: float):
    x = _square(t)
    ns = range(1, _CURV_SERIES_TERMS + 1)
    coeffs = [curvature_coefficient(n, p) / math.factorial(2 * n) for n in ns]
    return _horner(coeffs, x) * x


def _curv_far(t, p: float):
    # rate t > 350 here, so the kernel is sum w e^(|k| t)/2 to within
    # e^-350; summed relative to e^(rate t), it turns +/-inf past DBL_MAX
    live = [(w, abs(k)) for w, k in _curv_terms(p) if w != 0.0]
    rate = max(k for _, k in live)
    scaled = sum(0.5 * w * np.exp((k - rate) * t) for w, k in live)
    with np.errstate(over="ignore"):
        half = np.exp(0.5 * rate * t)
        return scaled * half * half


def _curv_far_from(p: float) -> float:
    """700 / max(|p - 2|, |p|, 2), the largest |k| of the terms: where cosh(k t) nears overflow."""
    return _COSH_MAX_ARG / (p if p > 2.0 else 2.0 - p if p < 0.0 else 2.0)


# disjoint: for |p| > 7e5 the far row starts below the series radius and takes
# over, as the series is far outside its range at p t = 700
_CURV_ROWS = (
    (lambda t, p: (t < _CURV_SERIES_RADIUS) & (t <= _curv_far_from(p)), _curv_series),
    (lambda t, p: t > _curv_far_from(p), _curv_far),
    (None, lambda t, p: sum(w * np.cosh(k * t) for w, k in _curv_terms(p)) - p - 1.0),
)


@_elementwise("nonnegative")
def curvature_kernel(t, p: float):
    """cosh((p-2)t) - cosh(pt) + (1-p)cosh(2t) + 2p cosh(t) - p - 1, for t >= 0."""
    return _piecewise(t, _CURV_ROWS, float(p))


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


def _slope_over_sinh2_far(t, p: float):
    """cosh((p-1)t) / (cosh(pt) sinh t) - arctan(tanh t) / sinh^2 t in logs, for t > 350."""
    log_sinh = _logsinh(t)
    core = np.exp(_logcosh((p - 1.0) * t) - _logcosh(p * t) - log_sinh)
    return core - np.arctan(np.tanh(t)) * np.exp(-2.0 * log_sinh)


_SLOPE_OVER_SINH2_ROWS = (
    (lambda t, p: t < _ATAN_SERIES_Y, _slope_over_sinh2),
    (lambda t, p: t > 350.0, _slope_over_sinh2_far),
    (None, lambda t, p: _slope_closed(t, p) / _square(np.sinh(t))),
)


@_elementwise("positive")
def log_gap_slope(t, p: float):
    """d/dt of log_gap = slope_kernel(t, p) / sinh^2(t), for t > 0."""
    with np.errstate(over="ignore"):
        return _piecewise(t, _SLOPE_OVER_SINH2_ROWS, float(p))
