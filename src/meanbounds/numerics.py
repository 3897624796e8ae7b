"""Low-level numeric primitives shared by the mean and kernel evaluators.

Everything here is overflow-safe binary64: log-of-hyperbolic helpers with
large-argument branches, exact-rational Maclaurin tables for the ratio
expansions that would otherwise cancel catastrophically near zero, the
Gauss-Kummer coefficients of the Toader mean, and an AGM evaluation of the
complete elliptic integral of the second kind.  It also holds the four
helpers the package shares: the scalar/array boundary of its public
functions, the branch table of every piecewise evaluator, Horner's rule and
bisection.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce, wraps

import numpy as np

LOG2 = math.log(2.0)

# Number of t^2 terms kept by the small-argument Maclaurin branches. With a
# switch radius of 0.1 the first dropped term is below 1e-26 of the total.
_SERIES_TERMS = 14
_SERIES_RADIUS = 0.1


def _elementwise(domain=None, arrays=1, lead=0):
    """The scalar/array boundary of every public elementwise function.

    The decorated function receives its `arrays` array arguments, those after
    its first `lead` ones, checked to be `domain` ("positive" or
    "nonnegative"; NaN is neither).  When all of them are scalars it gets them
    as numpy float64 scalars and the result comes back as a float; otherwise
    it gets float arrays of at least one dimension and its array comes back.
    """
    check = {"positive": operator.gt, "nonnegative": operator.ge}.get(domain)

    def decorate(fn):
        names = fn.__code__.co_varnames[: lead + arrays]

        def reject():
            raise ValueError(f"{' and '.join(names[lead:])} must be {domain}")

        @wraps(fn)
        def boundary(*args, **kwargs):
            if kwargs:
                args += tuple(kwargs.pop(name) for name in names[len(args) :])
            arrs = [np.asarray(x, dtype=float) for x in args[lead : lead + arrays]]
            if all(arr.ndim == 0 for arr in arrs):
                xs = [arr[()] for arr in arrs]
                if check and not all(check(x, 0.0) for x in xs):
                    reject()
                return float(fn(*args[:lead], *xs, *args[lead + arrays :], **kwargs))
            arrs = [arr.reshape(1) if arr.ndim == 0 else arr for arr in arrs]
            if check and not all(check(arr.min(initial=math.inf), 0.0) for arr in arrs):
                reject()
            return fn(*args[:lead], *arrs, *args[lead + arrays :], **kwargs)

        return boundary

    return decorate


def _piecewise(x, rows, *more):
    """A piecewise function of x: rows are (predicate, fn), the last (None, fn).

    The predicates are disjoint and the last row takes every x they leave.
    Each predicate and fn gets x followed by `more`, broadcast to x's shape.
    On a numpy scalar x only the live row runs, with no mask.  On an array
    each fn runs on the elements of its row, or on all of x when they are
    all of its row.
    """
    if not isinstance(x, np.ndarray):
        for predicate, fn in rows:
            if predicate is None or predicate(x, *more):
                return fn(x, *more)
    if more:
        more = np.broadcast_arrays(x, *more)[1:]
    masks = [predicate(x, *more) for predicate, _ in rows[:-1]]
    counts = [np.count_nonzero(mask) for mask in masks]
    counts.append(x.size - sum(counts))
    if x.size in counts:
        return rows[counts.index(x.size)][1](x, *more)
    masks.append(~reduce(operator.or_, masks))
    out = None
    for mask, count, (_, fn) in zip(masks, counts, rows):
        if count:
            value = fn(x[mask], *[y[mask] for y in more]) if more else fn(x[mask])
            if out is None:  # only now: the first row's temporaries are freed
                out = np.empty_like(x)
            out[mask] = value
    return out


def _horner(coeffs, x):
    """sum_k coeffs[k] * x^k by Horner's rule, elementwise in x."""
    # the first step from acc = 0, as x * 0.0 keeps the shape and NaNs of x
    acc = x * 0.0 + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _bisect(goes_right, lo, hi, steps, rel_width=0.0):
    """Midpoint of [lo, hi] after bisecting towards the switch of goes_right.

    goes_right(x) is True left of the switch point and False right of it.
    Stops after `steps` halvings, once hi - lo <= rel_width * hi, or once
    the midpoint rounds to an end, where every further step returns it.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if goes_right(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_width * hi:
            break
    return 0.5 * (lo + hi)


_LOGCOSH_ROWS = (
    (lambda a: a < 1.0, lambda a: np.log1p(2.0 * np.square(np.sinh(0.5 * a)))),
    (lambda a: a > 20.0, lambda a: a - LOG2 + np.log1p(np.exp(-2.0 * a))),
    (None, lambda a: np.log(np.cosh(a))),
)


@_elementwise()
def logcosh(x):
    """log(cosh(x)) without overflow, accurate down to x = 0."""
    return _piecewise(np.abs(x), _LOGCOSH_ROWS)


_LOGSINH_ROWS = (
    (lambda x: x > 20.0, lambda x: x - LOG2 + np.log1p(-np.exp(-2.0 * x))),
    (None, lambda x: np.log(np.sinh(x))),
)


@_elementwise()
def logsinh(x):
    """log(sinh(x)) for x > 0 without overflow."""
    return _piecewise(x, _LOGSINH_ROWS)


# the undecorated functions, for callers already past the boundary
_logcosh, _logsinh = logcosh.__wrapped__, logsinh.__wrapped__


def atan_tanh(x):
    """arctan(tanh(x)); saturates cleanly at pi/4."""
    return np.arctan(np.tanh(x))


# --- Maclaurin tables ------------------------------------------------------
#
# All coefficient tables are built from the exact rational series of cosh,
# sinh and their reciprocals/quotients so there are no hand-typed constant
# lists to mistype.  Index k holds the coefficient of t^(2k) (even series)
# or t^(2k+1) (odd series).


@lru_cache(maxsize=None)
def _cosh_coeffs(n):
    return tuple(Fraction(1, math.factorial(2 * k)) for k in range(n))


@lru_cache(maxsize=None)
def _sinh_coeffs(n):
    return tuple(Fraction(1, math.factorial(2 * k + 1)) for k in range(n))


def _series_quotient(num, den):
    """Power-series coefficients of num/den, for den[0] == 1.

    Solved as q_k = num_k - sum_{j=1..k} den_j q_{k-j}, in this order on floats.
    """
    q = []
    for k in range(len(num)):
        q.append(num[k] - sum(den[j] * q[k - j] for j in range(1, k + 1)))
    return q


@lru_cache(maxsize=None)
def _sech_coeffs(n):
    return tuple(_series_quotient((Fraction(1),) + (0,) * (n - 1), _cosh_coeffs(n)))


@lru_cache(maxsize=None)
def _tanh_coeffs(n):
    # tanh = sinh / cosh, an odd series over an even one.
    return tuple(_series_quotient(_sinh_coeffs(n), _cosh_coeffs(n)))


@lru_cache(maxsize=None)
def _atan_tanh_coeffs(n):
    # d/dt arctan(tanh t) = 1/cosh(2t), so the t^(2k+1) coefficient is
    # sech_k * 4^k / (2k+1).
    s = _sech_coeffs(n)
    return tuple(s[k] * Fraction(4**k, 2 * k + 1) for k in range(n))


@lru_cache(maxsize=None)
def _atan_sinh_coeffs(n):
    # d/dt arctan(sinh t) = 1/cosh(t).
    s = _sech_coeffs(n)
    return tuple(s[k] / (2 * k + 1) for k in range(n))


@lru_cache(maxsize=None)
def _odd_ratio_table(num, den):
    """x = t^2 coefficients of num(t)/den(t) - 1 for the odd series num, den."""
    q = _series_quotient(num(_SERIES_TERMS), den(_SERIES_TERMS))
    return np.array([float(v) for v in q[1:]])


def _ratio_rows(num, den, direct):
    """Rows of num(a)/den(a) - 1: the t^2 series below _SERIES_RADIUS."""

    def series(a):
        x = np.square(a)
        return _horner(_odd_ratio_table(num, den), x) * x

    return ((lambda a: a < _SERIES_RADIUS, series), (None, direct))


_ATAN_TANH_RATIO_ROWS = _ratio_rows(
    _atan_tanh_coeffs, _tanh_coeffs, lambda a: np.arctan(np.tanh(a)) / np.tanh(a) - 1.0
)
_ATAN_SINH_RATIO_ROWS = _ratio_rows(
    _atan_sinh_coeffs, _sinh_coeffs, lambda a: np.arctan(np.sinh(a)) / np.sinh(a) - 1.0
)


@_elementwise()
def atan_tanh_ratio_m1(x):
    """arctan(tanh x)/tanh(x) - 1, relative-accurate for all x >= 0.

    The direct quotient loses all its digits below x ~ 1e-8 (the ratio is
    1 - 2x^2/3 + ...); the series branch keeps the t^2 leading term exact.
    """
    return _piecewise(x, _ATAN_TANH_RATIO_ROWS)


@_elementwise()
def atan_sinh_ratio_m1(x):
    """arctan(sinh x)/sinh(x) - 1, relative-accurate for all x >= 0."""
    return _piecewise(x, _ATAN_SINH_RATIO_ROWS)


_atan_tanh_ratio_m1 = atan_tanh_ratio_m1.__wrapped__
_atan_sinh_ratio_m1 = atan_sinh_ratio_m1.__wrapped__


# --- elliptic integrals ---------------------------------------------------


@lru_cache(maxsize=None)
def _gauss_kummer_table(n):
    """binom(1/2, k)^2 for k = 1..n: the Toader mean of (e^-t, e^t) is
    cosh(t) (1 + h S(h)) with h = tanh^2 t and these coefficients in S
    (Gauss-Kummer; Linderholm & Segal, Math. Mag. 68, 1995)."""
    return np.array(
        [float(Fraction(math.comb(2 * k, k), 4**k * (2 * k - 1)) ** 2) for k in range(1, n + 1)]
    )


def _agm(m):
    a = 1.0
    b = np.sqrt(1.0 - m)
    c2sum = 0.5 * m
    pow2 = 1.0
    # 8 steps: at m = 1 - 2^-53, the largest m below 1, b starts at 2^-26.5;
    # four steps bring b/a to 0.86, four quadratic ones take the relative gap
    # from 0.07 below 2^-53.  Seven steps change the last bit of some E(m).
    for _ in range(8):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c2sum = c2sum + pow2 * c * c
        pow2 *= 2.0
    return math.pi / (2.0 * a) * (1.0 - c2sum)


# at m == 1, b is 0 and a only halves each step: the limit is 1
_ELLIPE_ROWS = ((lambda m: m == 1.0, np.ones_like), (None, _agm))


@_elementwise()
def ellipe_agm(m):
    """Complete elliptic integral E(m) = int_0^{pi/2} sqrt(1 - m sin^2) dθ.

    Arithmetic-geometric-mean iteration; quadratic convergence gives full
    binary64 accuracy on m in [0, 1] (m = 1 returns the exact limit 1).
    """
    return _piecewise(m, _ELLIPE_ROWS)


_ellipe_agm = ellipe_agm.__wrapped__
