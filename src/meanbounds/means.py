"""Bivariate means in direct and half-log-ratio form.

Fifteen classical means of two positive numbers are supported, identified by
kebab-case tags.  Every mean M here is symmetric and positively homogeneous
of degree 1, so with

    t = log sqrt(max(a,b) / min(a,b))        (the "half log ratio")

it factors as M(a, b) = sqrt(a*b) * m(t), where m is the value of the mean on
the normalized pair (e^-t, e^t).  All numerical work happens on m(t), which
turns each mean into a hyperbolic-function expression:

    power p        cosh^(1/p)(p t)               (geometric mean at p = 0)
    lehmer p       cosh((p+1) t) / cosh(p t)
    log            sinh(t) / t
    identric       exp(t/tanh(t) - 1)
    first-seiffert sinh(t) / arctan(sinh t)
    second-seiffert sinh(t) / arctan(tanh t)
    neuman-sandor  sinh(t) / asinh(tanh t)
    yang           sqrt(2) sinh(t) / arctan(sqrt(2) sinh t)
    sandor         cosh(t) exp(arctan(sinh t)/sinh(t) - 1)
    sandor-yang    cosh^(1/2)(2t) exp(arctan(tanh t)/tanh(t) - 1)
    toader         (2/pi) * int_0^{pi/2} sqrt(e^{2t} sin^2 + e^{-2t} cos^2)

Each mean is one table row, which its MeanKind carries: its log m(t)
evaluator and the two fingerprints that pin sharp endpoints, the t^2
coefficient of log m(t) at t -> 0 and the offset lim (log m(t) - t) at
t -> infinity.  Harmonic to quadratic are the power rows at p = -1, 0, 1, 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .numerics import (
    LOG2,
    _ATAN_RATIO_ROWS,
    _GAUSS_KUMMER,
    _elementwise,
    _ellipe_agm,
    _horner,
    _logcosh,
    _logsinh,
    _piecewise,
    _sinh_clipped,
    _square,
)

# Toader: the Gauss-Kummer series below t = 0.3, where h = tanh^2 t < 0.085
# and its 13 terms in _GAUSS_KUMMER leave out 1.5e-18 of S(h); the AGM
# above, where t + log(2E/pi) cancels by a factor of at most 4.6.
_TOADER_SERIES_T = 0.3

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MeanKind:
    """Tagged mean identifier; `power` and `lehmer` carry a real parameter."""

    tag: str
    param: float | None = None
    _row: tuple = field(init=False, repr=False, compare=False)  # made once, by __post_init__

    def __post_init__(self):
        if self.tag in PARAMETRIC_TAGS:
            if self.param is None:
                raise ValueError(f"mean '{self.tag}' requires a parameter")
            p = float(self.param)
            if math.isnan(p):
                raise ValueError("mean parameter must not be NaN")
            if self.tag == "lehmer" and math.isinf(p):
                raise ValueError("lehmer mean does not accept an infinite parameter")
            object.__setattr__(self, "param", p)
            evaluator, c2, omega = _FAMILIES[self.tag]
            row = (partial(evaluator, p), c2(p), omega(p))
        elif self.tag in PLAIN_TAGS:
            if self.param is not None:
                raise ValueError(f"mean '{self.tag}' takes no parameter")
            row = _PLAIN[self.tag]
        else:
            raise ValueError(f"unknown mean '{self.tag}'")
        object.__setattr__(self, "_row", row)

    def __reduce__(self):
        return MeanKind, (self.tag, self.param)

    @classmethod
    def power(cls, p) -> "MeanKind":
        return cls("power", float(p))

    @classmethod
    def lehmer(cls, p) -> "MeanKind":
        return cls("lehmer", float(p))

    def label(self) -> str:
        if self.tag in PARAMETRIC_TAGS:
            return f"{self.tag}:{self.param:g}"
        return self.tag


def parse_mean(text: str) -> MeanKind:
    """Parse a CLI-style mean name: a plain tag or `power:p` / `lehmer:p`."""
    name, sep, param = text.partition(":")
    if not sep:
        return MeanKind(name)
    try:
        value = float(param)
    except ValueError:
        raise ValueError(f"bad parameter {param!r} for mean '{name}'") from None
    return MeanKind(name, value)


# Past a ratio of 1e300 the relative gap (hi - lo)/lo may overflow; there
# t > 345, so the difference of the logs is relative-accurate.  The test
# lo / hi < 1e-300 cannot overflow, and is subnormal only past that ratio.
_HALF_LOG_RATIO_ROWS = (
    (lambda lo, hi: lo / hi < 1e-300, lambda lo, hi: 0.5 * (np.log(hi) - np.log(lo))),
    (None, lambda lo, hi: 0.5 * np.log1p((hi - lo) / lo)),
)


def _half_log_ratio(a, b):
    if type(a) is np.ndarray:
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return _piecewise(lo, _HALF_LOG_RATIO_ROWS, hi)
    # past the boundary neither is NaN, so one comparison orders them; t comes
    # back a Python float, for the cheap arithmetic of the rows built on it
    lo, hi = (a, b) if a <= b else (b, a)
    return float(_piecewise(lo, _HALF_LOG_RATIO_ROWS, hi))


@_elementwise("positive", arrays=2)
def half_log_ratio(a, b):
    """t = log sqrt(max/min); zero iff a = b.

    Computed through log1p of the relative gap, which stays fully accurate
    when a and b agree to many digits (log(b) - log(a) would not), and as
    the difference of the logs past a ratio of 1e300, where the gap may
    overflow.
    """
    return _half_log_ratio(a, b)


# --- normalized log-mean evaluators ----------------------------------------
#
# Each evaluator takes t > 0, an array or a Python float, and returns log m(t)
# elementwise.  t == 0, where several forms are 0/0, is a row of its own in
# eval_mean and in log_mean_normalized, whose table takes the evaluator f:
_LOGNORM_ROWS = ((lambda t, f: t == 0.0, lambda t, f: np.zeros_like(t)), (None, lambda t, f: f(t)))


# below |p| = 1e-8: p t^2/2 while |p t| < 1e-8, within (p t)^2/6 < 2e-17, as (p t/2)^2 may
# underflow (2^200 p t stays normal); beyond, t times a ratio of at most 1, so |log m| <= t
_POWER_SMALL_P = 1e-8
_TINY_P_ROWS = (
    (lambda t, p: t < _POWER_SMALL_P / abs(p), lambda t, p: p * 2.0**200 * t * (t / 2.0**201)),
    (None, lambda t, p: t * (_logcosh(p * t) / (p * t))),
)


def _lognorm_power(p: float, t):
    if p == 0.0:
        return t * 0.0  # +0.0: every t that reaches an evaluator is positive and finite
    if math.isinf(p):
        return +t if p > 0 else -t  # +t: a copy of an array
    if abs(p) < _POWER_SMALL_P:
        return _piecewise(t, _TINY_P_ROWS, p)
    return _logcosh(p * t) / p


def _lognorm_lehmer(p: float, t):
    return _logcosh((p + 1.0) * t) - _logcosh(p * t)


def _lognorm_sandor_yang(t):
    # log cosh(2t)/2 split as log cosh(t) + log(1 + tanh^2 t)/2: every term is
    # relative-accurate, so the t^2 leading behaviour survives cancellation.
    # One y = tanh t serves it and the ratio arctan(y)/y - 1.
    y = np.tanh(t)
    return _logcosh(t) + 0.5 * np.log1p(_square(y)) + _piecewise(y, _ATAN_RATIO_ROWS)


def _toader_series(t):
    # log(cosh t (1 + h S(h))), with log cosh t = -log(1 - h)/2
    h = _square(np.tanh(t))
    series = h * _horner(_GAUSS_KUMMER, h)
    return np.log1p(series) - 0.5 * np.log1p(-h)


_TOADER_ROWS = (
    (lambda t: t < _TOADER_SERIES_T, _toader_series),
    (None, lambda t: t + np.log((2.0 / math.pi) * _ellipe_agm(-np.expm1(-4.0 * t)))),
)


# --- one row per mean --------------------------------------------------------
#
# A plain mean's row is (evaluator of log m(t) for t > 0, c2, omega), where
# log m(t) = c2 t^2 + O(t^4) as t -> 0 and omega = lim (log m(t) - t) as t -> inf,
# -inf when the mean grows slower than e^t.  A family's row holds the same
# three as functions of its parameter: evaluator(p, t), c2(p), omega(p).

_FAMILIES = {
    "power": (_lognorm_power, lambda p: p / 2.0, lambda p: -LOG2 / p if p > 0 else -math.inf),
    "lehmer": (
        _lognorm_lehmer,
        lambda p: p + 0.5,
        lambda p: 0.0 if p > 0 else (-LOG2 if p == 0 else -math.inf),
    ),
}
PARAMETRIC_TAGS = tuple(_FAMILIES)

_PLAIN = {
    "harmonic": MeanKind.power(-1.0)._row,
    "geometric": MeanKind.power(0.0)._row,
    "arithmetic": MeanKind.power(1.0)._row,
    "quadratic": MeanKind.power(2.0)._row,
    "log": (lambda t: _logsinh(t) - np.log(t), 1.0 / 6.0, -math.inf),
    "identric": (lambda t: t / np.tanh(t) - 1.0, 1.0 / 3.0, -1.0),
    "first-seiffert": (
        lambda t: _logsinh(t) - np.log(np.arctan(_sinh_clipped(t))),
        1.0 / 3.0,
        -math.log(math.pi),
    ),
    "second-seiffert": (
        lambda t: _logsinh(t) - np.log(np.arctan(np.tanh(t))),
        5.0 / 6.0,
        LOG2 - math.log(math.pi),
    ),
    "neuman-sandor": (
        lambda t: _logsinh(t) - np.log(np.arcsinh(np.tanh(t))),
        2.0 / 3.0,
        -math.log(2.0 * math.log(1.0 + math.sqrt(2.0))),
    ),
    "yang": (
        lambda t: _logsinh(t) + 0.5 * LOG2 - np.log(np.arctan(_SQRT2 * _sinh_clipped(t))),
        2.0 / 3.0,
        0.5 * LOG2 - math.log(math.pi),
    ),
    "sandor": (
        lambda t: _logcosh(t) + _piecewise(_sinh_clipped(t), _ATAN_RATIO_ROWS),
        1.0 / 6.0,
        -(1.0 + LOG2),
    ),
    "toader": (lambda t: _piecewise(t, _TOADER_ROWS), 3.0 / 4.0, LOG2 - math.log(math.pi)),
    "sandor-yang": (_lognorm_sandor_yang, 2.0 / 3.0, math.pi / 4.0 - 1.0 - 0.5 * LOG2),
}

PLAIN_TAGS = tuple(_PLAIN)


def quadratic_coefficient(kind: MeanKind) -> float:
    """c2 with log m(t) = c2 * t^2 + O(t^4) as t -> 0."""
    return kind._row[1]


def growth_offset(kind: MeanKind) -> float:
    """lim_{t->inf} (log m(t) - t); -inf when the mean grows slower than e^t."""
    return kind._row[2]


@_elementwise("nonnegative", lead=1)
def log_mean_normalized(kind: MeanKind, t):
    """log of the mean evaluated on the pair (e^-t, e^t), elementwise."""
    return _piecewise(t, _LOGNORM_ROWS, kind._row[0])


def _halved(t, a, b, lognorm):
    half = np.exp(0.5 * lognorm(t))
    return half * (np.sqrt(a) * np.sqrt(b)) * half


# the half log ratio is 0 exactly where a == b (+a copies an array); log m <= t,
# so exp(log m) is finite up to t = log(DBL_MAX) = 709.78
_EVAL_ROWS = (
    (lambda t, a, b, lognorm: t == 0.0, lambda t, a, b, lognorm: +a),
    (lambda t, a, b, lognorm: t > 709.78, _halved),
    # log m first, so that sqrt(ab) is not held while it is evaluated
    (None, lambda t, a, b, lognorm: np.exp(lognorm(t)) * (np.sqrt(a) * np.sqrt(b))),
)


@_elementwise("positive", arrays=2, lead=1)
def eval_mean(kind: MeanKind, a, b):
    """Evaluate a mean on positive a, b.

    Equal arguments return a exactly (every supported mean is a mean value);
    otherwise the value is sqrt(ab) * exp(log m(t)), which is overflow-safe at
    any argument ratio: past t = log(DBL_MAX), where exp(log m) may overflow,
    it is h * sqrt(ab) * h with h = exp(log m / 2).  Power(+/-inf) returns
    max/min exactly.
    """
    if kind.tag == "power" and math.isinf(kind.param):
        return np.maximum(a, b) if kind.param > 0 else np.minimum(a, b)

    return _piecewise(_half_log_ratio(a, b), _EVAL_ROWS, a, b, kind._row[0])
