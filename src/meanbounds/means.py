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

The module also publishes the two analytic fingerprints of each normalized
mean that pin sharp comparison endpoints: the t^2 coefficient of log m(t)
at t -> 0 and the offset lim (log m(t) - t) at t -> infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import (
    LOG2,
    _atan_sinh_ratio_m1,
    _atan_tanh_ratio_m1,
    _elementwise,
    _ellipe_agm,
    _gauss_kummer_table,
    _horner,
    _logcosh,
    _logsinh,
    _piecewise,
)

PLAIN_TAGS = (
    "harmonic",
    "geometric",
    "arithmetic",
    "quadratic",
    "log",
    "identric",
    "first-seiffert",
    "second-seiffert",
    "neuman-sandor",
    "yang",
    "sandor",
    "toader",
    "sandor-yang",
)
PARAMETRIC_TAGS = ("power", "lehmer")

# Toader: the Gauss-Kummer series below t = 0.3, where h = tanh^2 t < 0.085
# and 13 terms leave out 1.5e-18 of S(h); the AGM above, where
# t + log(2E/pi) cancels by a factor of at most 4.6.
_TOADER_SERIES_T = 0.3
_TOADER_SERIES_TERMS = 13

# Below this |p| the power mean switches to its second-order expansion in p;
# both branches agree to better than 1e-12 at the boundary.
_POWER_SMALL_P = 1e-8

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MeanKind:
    """Tagged mean identifier; `power` and `lehmer` carry a real parameter."""

    tag: str
    param: float | None = None

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
        elif self.tag in PLAIN_TAGS:
            if self.param is not None:
                raise ValueError(f"mean '{self.tag}' takes no parameter")
        else:
            raise ValueError(f"unknown mean '{self.tag}'")

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
    if name not in PARAMETRIC_TAGS:
        raise ValueError(f"mean '{name}' takes no parameter")
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
    return _piecewise(np.minimum(a, b), _HALF_LOG_RATIO_ROWS, np.maximum(a, b))


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
# Each evaluator takes t > 0, an array or a numpy scalar, and returns log m(t)
# elementwise.  t == 0, where several forms are 0/0, is a branch of its own in
# log_mean_normalized and eval_mean.


def _lognorm_power(p: float, t):
    if p == 0.0:
        return np.zeros_like(t)
    if math.isinf(p):
        return t.copy() if p > 0 else -t
    if abs(p) < _POWER_SMALL_P:
        return 0.5 * p * t * t
    return _logcosh(p * t) / p


def _lognorm_lehmer(p: float, t):
    return _logcosh((p + 1.0) * t) - _logcosh(p * t)


# sinh overflows past ~710; its arctan is already pi/2 to machine precision
# long before the clip point, so clipping is exact here.
def _sinh_clipped(t):
    return np.sinh(np.minimum(t, 300.0))


def _lognorm_sandor_yang(t):
    # log cosh(2t)/2 split as log cosh(t) + log(1 + tanh^2 t)/2: every term is
    # relative-accurate, so the t^2 leading behaviour survives cancellation.
    return _logcosh(t) + 0.5 * np.log1p(np.square(np.tanh(t))) + _atan_tanh_ratio_m1(t)


def _toader_series(t):
    # log(cosh t (1 + h S(h))), with log cosh t = -log(1 - h)/2
    h = np.square(np.tanh(t))
    series = h * _horner(_gauss_kummer_table(_TOADER_SERIES_TERMS), h)
    return np.log1p(series) - 0.5 * np.log1p(-h)


_TOADER_ROWS = (
    (lambda t: t < _TOADER_SERIES_T, _toader_series),
    (None, lambda t: t + np.log((2.0 / math.pi) * _ellipe_agm(-np.expm1(-4.0 * t)))),
)


_PLAIN_LOGNORM = {
    "harmonic": lambda t: _lognorm_power(-1.0, t),
    "geometric": lambda t: _lognorm_power(0.0, t),
    "arithmetic": lambda t: _lognorm_power(1.0, t),
    "quadratic": lambda t: _lognorm_power(2.0, t),
    "log": lambda t: _logsinh(t) - np.log(t),
    "identric": lambda t: t / np.tanh(t) - 1.0,
    "first-seiffert": lambda t: _logsinh(t) - np.log(np.arctan(_sinh_clipped(t))),
    "second-seiffert": lambda t: _logsinh(t) - np.log(np.arctan(np.tanh(t))),
    "neuman-sandor": lambda t: _logsinh(t) - np.log(np.arcsinh(np.tanh(t))),
    "yang": lambda t: _logsinh(t) + 0.5 * LOG2 - np.log(np.arctan(_SQRT2 * _sinh_clipped(t))),
    "sandor": lambda t: _logcosh(t) + _atan_sinh_ratio_m1(t),
    "toader": lambda t: _piecewise(t, _TOADER_ROWS),
    "sandor-yang": _lognorm_sandor_yang,
}


def _lognorm(kind: MeanKind):
    """The evaluator of log m(t) for t > 0."""
    if kind.tag == "power":
        return partial(_lognorm_power, kind.param)
    if kind.tag == "lehmer":
        return partial(_lognorm_lehmer, kind.param)
    return _PLAIN_LOGNORM[kind.tag]


@_elementwise("nonnegative", lead=1)
def log_mean_normalized(kind: MeanKind, t):
    """log of the mean evaluated on the pair (e^-t, e^t), elementwise."""
    return _piecewise(t, ((lambda t: t == 0.0, np.zeros_like), (None, _lognorm(kind))))


def eval_mean_normalized(kind: MeanKind, t):
    """The mean on the normalized pair (e^-t, e^t); sqrt(ab) factored to 1."""
    return np.exp(log_mean_normalized(kind, t))


@_elementwise("positive", arrays=2, lead=1)
def eval_mean(kind: MeanKind, a, b):
    """Evaluate a mean on positive a, b.

    Equal arguments return a exactly (every supported mean is a mean value);
    otherwise the value is sqrt(ab) * exp(log m(t)), which is overflow-safe at
    any argument ratio.  Power(+/-inf) returns max/min exactly.
    """
    if kind.tag == "power" and math.isinf(kind.param):
        return np.maximum(a, b) if kind.param > 0 else np.minimum(a, b)

    lognorm = _lognorm(kind)

    def scaled(t, a, b):
        # log m first, so that sqrt(ab) is not held while it is evaluated
        return np.exp(lognorm(t)) * (np.sqrt(a) * np.sqrt(b))

    # the half log ratio is 0 exactly where a == b
    rows = ((lambda t, a, b: t == 0.0, lambda t, a, b: a.copy()), (None, scaled))
    return _piecewise(_half_log_ratio(a, b), rows, a, b)


def toader_mean(a, b):
    """The elliptic-integral mean (2/pi) int_0^{pi/2} sqrt(a^2 cos^2 + b^2 sin^2).

    The Gauss-Kummer series for argument ratios below e^0.6, the AGM
    evaluation of the complete elliptic integral at and beyond.
    """
    return eval_mean(MeanKind("toader"), a, b)


# --- analytic endpoint fingerprints ----------------------------------------

_QUAD_COEFF = {
    "log": 1.0 / 6.0,
    "identric": 1.0 / 3.0,
    "first-seiffert": 1.0 / 3.0,
    "second-seiffert": 5.0 / 6.0,
    "neuman-sandor": 2.0 / 3.0,
    "yang": 2.0 / 3.0,
    "sandor": 1.0 / 6.0,
    "toader": 3.0 / 4.0,
    "sandor-yang": 2.0 / 3.0,
    "harmonic": -0.5,
    "geometric": 0.0,
    "arithmetic": 0.5,
    "quadratic": 1.0,
}

_GROWTH_OFFSET = {
    "log": -math.inf,
    "identric": -1.0,
    "first-seiffert": -math.log(math.pi),
    "second-seiffert": LOG2 - math.log(math.pi),
    "neuman-sandor": -math.log(2.0 * math.log(1.0 + math.sqrt(2.0))),
    "yang": 0.5 * LOG2 - math.log(math.pi),
    "sandor": -(1.0 + LOG2),
    "toader": LOG2 - math.log(math.pi),
    "sandor-yang": math.pi / 4.0 - 1.0 - 0.5 * LOG2,
    "harmonic": -math.inf,
    "geometric": -math.inf,
    "arithmetic": -LOG2,
    "quadratic": -0.5 * LOG2,
}


def quadratic_coefficient(kind: MeanKind) -> float:
    """c2 with log m(t) = c2 * t^2 + O(t^4) as t -> 0."""
    if kind.tag == "power":
        return kind.param / 2.0
    if kind.tag == "lehmer":
        return kind.param + 0.5
    return _QUAD_COEFF[kind.tag]


def growth_offset(kind: MeanKind) -> float:
    """lim_{t->inf} (log m(t) - t); -inf when the mean grows slower than e^t."""
    if kind.tag == "power":
        return -LOG2 / kind.param if kind.param > 0 else -math.inf
    if kind.tag == "lehmer":
        if kind.param > 0:
            return 0.0
        return -LOG2 if kind.param == 0 else -math.inf
    return _GROWTH_OFFSET[kind.tag]
