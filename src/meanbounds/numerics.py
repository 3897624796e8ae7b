"""Low-level numeric primitives shared by the mean and kernel evaluators.

Everything here is overflow-safe binary64: log-of-hyperbolic helpers with
large-argument branches, exact-rational Maclaurin tables for the ratio
expansions that would otherwise cancel catastrophically near zero, cached
Gauss-Legendre nodes, and an AGM evaluation of the complete elliptic
integral of the second kind.  It also holds the three helpers the package
shares: the scalar/array boundary of its public functions, Horner's rule
and bisection.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

LOG2 = math.log(2.0)

# Number of t^2 terms kept by the small-argument Maclaurin branches. With a
# switch radius of 0.1 the first dropped term is below 1e-26 of the total.
_SERIES_TERMS = 14
_SERIES_RADIUS = 0.1


def _elementwise(domain=None, arrays=1, lead=0):
    """The scalar/array boundary of every public elementwise function.

    The decorated function receives its `arrays` array arguments, those after
    its first `lead` ones, as float arrays of at least one dimension, checked
    to be `domain` ("positive" or "nonnegative"; NaN is neither).  It returns
    a float when all of them were scalars and its array otherwise.
    """
    check = {"positive": operator.gt, "nonnegative": operator.ge}.get(domain)

    def decorate(fn):
        names = fn.__code__.co_varnames[: lead + arrays]

        @wraps(fn)
        def boundary(*args, **kwargs):
            if kwargs:
                args += tuple(kwargs.pop(name) for name in names[len(args) :])
            arrs = []
            scalar = True
            for x in args[lead : lead + arrays]:
                arr = np.asarray(x, dtype=float)
                if arr.ndim == 0:
                    arr = arr.reshape(1)
                else:
                    scalar = False
                if check and not check(arr.min(initial=math.inf), 0.0):
                    raise ValueError(f"{' and '.join(names[lead:])} must be {domain}")
                arrs.append(arr)
            out = fn(*args[:lead], *arrs, *args[lead + arrays :], **kwargs)
            return float(out[0]) if scalar else out

        return boundary

    return decorate


def _horner(coeffs, x):
    """sum_k coeffs[k] * x^k by Horner's rule, elementwise in x."""
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def _bisect(goes_right, lo, hi, steps, rel_width=0.0):
    """Midpoint of [lo, hi] after bisecting towards the switch of goes_right.

    goes_right(x) is True left of the switch point and False right of it.
    Stops after `steps` halvings, or once hi - lo <= rel_width * hi.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if goes_right(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_width * hi:
            break
    return 0.5 * (lo + hi)


@_elementwise()
def logcosh(x):
    """log(cosh(x)) without overflow, accurate down to x = 0."""
    a = np.abs(x)
    out = np.empty_like(a)
    small = a < 1.0
    big = a > 20.0
    mid = ~(small | big)
    out[small] = np.log1p(2.0 * np.sinh(0.5 * a[small]) ** 2)
    out[mid] = np.log(np.cosh(a[mid]))
    ab = a[big]
    out[big] = ab - LOG2 + np.log1p(np.exp(-2.0 * ab))
    return out


@_elementwise()
def logsinh(x):
    """log(sinh(x)) for x > 0 without overflow."""
    out = np.empty_like(x)
    big = x > 20.0
    out[~big] = np.log(np.sinh(x[~big]))
    xb = x[big]
    out[big] = xb - LOG2 + np.log1p(-np.exp(-2.0 * xb))
    return out


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


@lru_cache(maxsize=None)
def _sech_coeffs(n):
    # sech * cosh = 1, solved triangularly.
    c = _cosh_coeffs(n)
    s = [Fraction(1)]
    for k in range(1, n):
        s.append(-sum(s[k - j] * c[j] for j in range(1, k + 1)))
    return tuple(s)


@lru_cache(maxsize=None)
def _tanh_coeffs(n):
    # tanh * cosh = sinh, solved triangularly (odd/even convolution).
    c = _cosh_coeffs(n)
    h = _sinh_coeffs(n)
    t = [Fraction(1)]
    for k in range(1, n):
        t.append(h[k] - sum(t[k - j] * c[j] for j in range(1, k + 1)))
    return tuple(t)


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


def _odd_ratio_minus_one(num, den, n):
    """x = t^2 coefficients of num(t)/den(t) - 1 for odd series num, den."""
    r = [Fraction(1)]
    for k in range(1, n):
        r.append(num[k] - sum(r[k - j] * den[j] for j in range(1, k + 1)))
    return np.array([float(v) for v in r[1:]])


@lru_cache(maxsize=None)
def _atan_tanh_ratio_table():
    n = _SERIES_TERMS
    return _odd_ratio_minus_one(_atan_tanh_coeffs(n), _tanh_coeffs(n), n)


@lru_cache(maxsize=None)
def _atan_sinh_ratio_table():
    n = _SERIES_TERMS
    return _odd_ratio_minus_one(_atan_sinh_coeffs(n), _sinh_coeffs(n), n)


def _ratio_minus_one(a, table, direct):
    out = np.empty_like(a)
    small = a < _SERIES_RADIUS
    x = a[small] ** 2
    out[small] = _horner(table, x) * x
    out[~small] = direct(a[~small])
    return out


@_elementwise()
def atan_tanh_ratio_m1(x):
    """arctan(tanh x)/tanh(x) - 1, relative-accurate for all x >= 0.

    The direct quotient loses all its digits below x ~ 1e-8 (the ratio is
    1 - 2x^2/3 + ...); the series branch keeps the t^2 leading term exact.
    """
    return _ratio_minus_one(
        x, _atan_tanh_ratio_table(), lambda a: np.arctan(np.tanh(a)) / np.tanh(a) - 1.0
    )


@_elementwise()
def atan_sinh_ratio_m1(x):
    """arctan(sinh x)/sinh(x) - 1, relative-accurate for all x >= 0."""
    return _ratio_minus_one(
        x, _atan_sinh_ratio_table(), lambda a: np.arctan(np.sinh(a)) / np.sinh(a) - 1.0
    )


# --- quadrature and elliptic integrals -------------------------------------


@lru_cache(maxsize=None)
def gauss_legendre_quadrant(n: int):
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, pi/2]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) * (math.pi / 4.0), w * (math.pi / 4.0)


@_elementwise()
def ellipe_agm(m):
    """Complete elliptic integral E(m) = int_0^{pi/2} sqrt(1 - m sin^2) dθ.

    Arithmetic-geometric-mean iteration; quadratic convergence gives full
    binary64 accuracy on m in [0, 1] (m = 1 returns the exact limit 1).
    """
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    c2sum = 0.5 * m
    pow2 = 1.0
    for _ in range(26):
        c = 0.5 * (a - b)
        if np.all(c < 1e-18):
            break
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c2sum += pow2 * c * c
        pow2 *= 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = math.pi / (2.0 * a) * (1.0 - c2sum)
    out[m == 1.0] = 1.0
    return out
