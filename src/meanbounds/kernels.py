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
accuracy down to the smallest normal t.  From t = 0.1 on, log_gap_slope
takes the same quotient in logs, which cannot overflow.

The curvature kernel's cosh terms are O(|p|) while it is O(|p| t^2) near
t = 0.  Two identities,

    cosh((p-2)t) - cosh(pt) = -2 sinh((p-1)t) sinh(t),
    (1-p) cosh(2t) + 2p cosh(t) - p - 1 = 2(1-p) sinh^2(t) + 4p sinh^2(t/2),

remove every O(p) cancellation, and its closed row sums their right-hand
sides.  Below t = 1e-3 it sums its Maclaurin series instead, whose
coefficients are exact in p, while max(|p-2|, |p|, 2) < 1e3: its 8 terms
converge while that maximum times t stays below 1.  Where that maximum
times t passes 700, the closed row is summed relative to its largest
exponential, so that it turns +/-inf only past DBL_MAX.
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

# the 8-term series holds while max(|p-2|, |p|, 2) t < 1: it runs below
# t = 1e-3 for that maximum below 1e3
_CURV_SERIES_RADIUS = 1e-3
_CURV_SERIES_RATE = 1e3
# (n, (2n)!) of the series' 8 terms, built once, not per call
_CURV_SERIES_TERMS = [(n, math.factorial(2 * n)) for n in range(1, 9)]


def curvature_coefficient(n: int, p):
    """(2-p)^(2n) - p^(2n) + (1-p) 4^n + 2p for n >= 1.

    Plain arithmetic throughout: exact when fed Fraction/int, float otherwise.
    """
    if n < 1:
        raise ValueError("coefficient index must be >= 1")
    return (2 - p) ** (2 * n) - p ** (2 * n) + (1 - p) * 4**n + 2 * p


def _exponent(p) -> float:
    """The exponent p as a float; NaN and +/-inf raise."""
    p = float(p)
    if not -math.inf < p < math.inf:
        raise ValueError("p must be finite")
    return p


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
    tends to 1/2 - pi/4 as t -> infinity when p > 1.  p must be finite.
    """
    return _piecewise(t, _SLOPE_ROWS, _exponent(p))


def _curv_series(t, p: float, rate: float):
    x = _square(t)
    coeffs = [curvature_coefficient(n, p) / factorial for n, factorial in _CURV_SERIES_TERMS]
    return _horner(coeffs, x) * x


def _curv_closed(t, p: float, rate: float):
    # 2(1-p) sinh^2 t - 2 sinh((p-1)t) sinh t + 4p sinh^2(t/2), the factor 2 last
    s, h = np.sinh(t), np.sinh(0.5 * t)
    return 2.0 * (((1.0 - p) * s - np.sinh((p - 1.0) * t)) * s + 2.0 * (p * h) * h)


def _curv_far(t, p: float, rate: float):
    # the closed row over e^(rate t), with 2 sinh x = -e^x expm1(-2x): no term
    # is dropped, none exceeds max(1, |p|) and no exp overflows; the product
    # turns +/-inf past DBL_MAX
    m = abs(p - 1.0)
    with np.errstate(over="ignore"):
        e1, e2 = np.expm1(-t), np.expm1(-2.0 * t)
        terms = (
            (math.copysign(0.5, 1.0 - p) * np.expm1(-2.0 * m * t) * e2, m + 1.0),
            (0.5 * (1.0 - p) * e2 * e2, 2.0),
            (p * e1 * e1, 1.0),
        )
        scaled = sum(w * np.exp(min(k - rate, 0.0) * t) for w, k in terms)
        half = np.exp(0.5 * rate * t)
        return scaled * half * half


# disjoint: the series needs rate t < 1, the far row rate t > 700, where
# e^(rate t) nears overflow
_CURV_ROWS = (
    (lambda t, p, rate: (t < _CURV_SERIES_RADIUS) & (rate < _CURV_SERIES_RATE), _curv_series),
    (lambda t, p, rate: t > _COSH_MAX_ARG / rate, _curv_far),
    (None, _curv_closed),
)


@_elementwise("nonnegative")
def curvature_kernel(t, p: float):
    """cosh((p-2)t) - cosh(pt) + (1-p)cosh(2t) + 2p cosh(t) - p - 1, for t >= 0 and finite p."""
    p = _exponent(p)
    m = p - 1.0 if p > 1.0 else 1.0 - p
    # the largest k of the closed row's terms e^(k t) with a nonzero weight:
    # m + 1 = |p - 1| + 1 (sinh(m t) sinh t), 2 unless p = 1, and 1; so
    # max(|p-2|, |p|, 2), but 1 at p = 1
    rate = 1.0 + (m if m > 1.0 else 1.0) if m else 1.0
    return _piecewise(t, _CURV_ROWS, p, rate)


@_elementwise("nonnegative")
def log_gap(t, p: float):
    """log B - log M_p on the normalized pair (e^-t, e^t).

    Vanishes at t = 0; tends to pi/4 - log2/2 + log2/p - 1 as t -> infinity
    for p > 0.  p is any exponent but NaN, as for MeanKind.power: M_0 is the
    geometric mean and M_p at p = +/-inf is max/min.
    """
    p = float(p)
    if p != p:
        raise ValueError("p must not be NaN")
    return _lognorm_sandor_yang(t) - _lognorm_power(p, t)


def _slope_over_sinh2_logs(t, p: float):
    """cosh((p-1)t) / (cosh(pt) sinh t) - arctan(tanh t) / sinh^2 t in logs, for t >= 0.1."""
    # the exp arguments stay below log 22 and log 100 in exact arithmetic only: the O(|p| t)
    # logs round, so at p = -3 the result is 2.117 for 2 at t = 1e15 and exp overflows from 3e18
    log_sinh = _logsinh(t)
    core = np.exp(_logcosh((p - 1.0) * t) - _logcosh(p * t) - log_sinh)
    return core - np.arctan(np.tanh(t)) * np.exp(-2.0 * log_sinh)


_SLOPE_OVER_SINH2_ROWS = (
    (lambda t, p: t < _ATAN_SERIES_Y, _slope_over_sinh2),
    (None, _slope_over_sinh2_logs),
)


@_elementwise("nonnegative")
def log_gap_slope(t, p: float):
    """d/dt of log_gap = slope_kernel(t, p) / sinh^2(t), for t >= 0 and finite p; 0 at t = 0."""
    return _piecewise(t, _SLOPE_OVER_SINH2_ROWS, _exponent(p))
