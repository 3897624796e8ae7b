"""Low-level numeric primitives shared by the mean and kernel evaluators.

Everything here is overflow-safe binary64: log cosh, one closed row up to
|x| = 700 and a far row beyond, where 2 sinh^2(x/2) nears overflow, so that
an ordinary array never splits; log sinh, with a far row past 20; the rows
of arctan(y)/y - 1, its Taylor series in y below y = 0.1, where the direct
quotient would cancel; the Gauss-Kummer coefficients of the Toader mean;
and an AGM evaluation of the complete elliptic integral E.  These are
private, one entry each, called past the boundary on Python floats and
numpy float64 arrays.  The module also holds the helpers the package shares:
the boundary of the package's public functions with its block cutter, the
branch table of every piecewise evaluator, Horner's rule and bisection.

At the boundary a positional Python float in the domain passes as it is,
checked by one chained comparison.  Any other float (np.float64 is one)
converts with float(), anything else with np.asarray(x, dtype=float), whose
0-d result is a scalar; an int or a Fraction past DBL_MAX raises the
ValueError of any infinite argument.  Past the boundary a scalar is a Python
float: its arithmetic and comparisons give numpy's bits at a fraction of the
cost of numpy scalars, and a ufunc gives the same bits for a float as for an
np.float64.  An array call whose broadcast holds more than _BLOCK = 2^15
elements runs in blocks of that size, cut by _blocks (as are the verify
sweeps and chain_margins), so that one call's temporaries stay near 2 MiB
and in cache.  Those 256 KiB temporaries exceed glibc's default 128 KiB mmap
threshold, so a fresh process maps and faults them in on every call until
the threshold grows; the CLI's pair sweep raises it for its own process.
"""

from __future__ import annotations

import math
import operator
from functools import reduce, wraps
from itertools import takewhile

import numpy as np

LOG2 = math.log(2.0)

# elements per block of a large array call (see _elementwise); 2^14 to 2^16
# run at the same speed
_BLOCK = 2**15


def _blocks(*arrs):
    """Consecutive _BLOCK-element flat slices of the broadcast arrays, as lists.

    An array of the broadcast shape gives views, writable where it is, unless
    it is strided and is copied once; a partly broadcast array is copied one
    block at a time, so that its broadcast is never built whole; a
    one-element array is passed as is in every block.
    """
    shape = np.broadcast_shapes(*(arr.shape for arr in arrs))
    flats = [
        arr.reshape(1)
        if arr.size == 1
        else np.ravel(arr) if arr.shape == shape else np.broadcast_to(arr, shape).flat
        for arr in arrs
    ]
    for i in range(0, math.prod(shape), _BLOCK):
        yield [flat if len(flat) == 1 else flat[i : i + _BLOCK] for flat in flats]


def _elementwise(domain, arrays=1, lead=0):
    """The scalar/array boundary of every public elementwise function.

    The decorated function receives its `arrays` array arguments, those after
    its first `lead` ones, checked to be finite and `domain` ("positive" or
    "nonnegative"; NaN is neither).  When all of them are scalars (a float,
    or anything whose np.asarray is 0-d) it gets them as Python floats and
    the result comes back as a float; otherwise it gets float arrays of at
    least one dimension and its array comes back.  Positional Python floats
    in the domain skip the conversion.  A broadcast of more than _BLOCK
    elements is checked whole, then computed in the blocks that _blocks
    cuts, into one output.
    """
    # the least float of the domain: math.ulp(0.0) is the least positive one
    least = {"positive": math.ulp(0.0), "nonnegative": 0.0}[domain]

    def decorate(fn):
        names = fn.__code__.co_varnames[: lead + arrays]
        message = f"{' and '.join(names[lead:])} must be {domain} and finite"

        @wraps(fn)
        def boundary(*args, **kwargs):
            if not kwargs:
                for x in args[lead : lead + arrays]:
                    if type(x) is not float or not least <= x < math.inf:
                        break
                else:
                    return float(fn(*args))
            else:  # up to the first missing one; fn raises Python's TypeError for the rest
                args += tuple(map(kwargs.pop, takewhile(kwargs.__contains__, names[len(args) :])))
            xs, scalar = [], True
            for x in args[lead : lead + arrays]:
                if not isinstance(x, float):
                    try:
                        x = np.asarray(x, dtype=float)
                    except OverflowError:  # an int or a Fraction past DBL_MAX
                        raise ValueError(message) from None
                if type(x) is np.ndarray and x.ndim:
                    scalar = False
                    lo, hi = x.min(initial=math.inf), x.max(initial=0.0)
                else:
                    lo = hi = x = float(x)
                if not (least <= lo and hi < math.inf):
                    raise ValueError(message)
                xs.append(x)
            if scalar:
                return float(fn(*args[:lead], *xs, *args[lead + arrays :], **kwargs))
            arrs = [np.atleast_1d(x) for x in xs]
            broadcast = np.broadcast(*arrs)
            if broadcast.size <= _BLOCK:
                return fn(*args[:lead], *arrs, *args[lead + arrays :], **kwargs)
            out = np.empty(broadcast.shape)
            # out is contiguous, so its slices are writable views of it
            for out_block, *blocks in _blocks(out, *arrs):
                out_block[...] = fn(*args[:lead], *blocks, *args[lead + arrays :], **kwargs)
            return out

        return boundary

    return decorate


def _piecewise(x, rows, *more):
    """A piecewise function of x: rows are (predicate, fn), the last (None, fn).

    The predicates are disjoint and the last row takes every x they leave.
    Each predicate and fn gets x followed by `more`: its arrays broadcast to
    x's shape and split with x, anything else (a parameter, an evaluator) as
    it is, so that rows are built once, not per call.  On a scalar x only
    the live row runs, with no mask.  On an array each fn runs on the
    elements of its row, or on all of x when they are all of its row.
    """
    if type(x) is not np.ndarray:
        for predicate, fn in rows:
            if predicate is None or predicate(x, *more):
                return fn(x, *more)
    shape = x.shape
    more = [y if getattr(y, "shape", shape) == shape else np.broadcast_to(y, shape) for y in more]
    masks = [predicate(x, *more) for predicate, _ in rows[:-1]]
    counts = [np.count_nonzero(mask) for mask in masks]
    counts.append(x.size - sum(counts))
    if x.size in counts:
        return rows[counts.index(x.size)][1](x, *more)
    masks.append(~reduce(operator.or_, masks))
    out = None
    for mask, count, (_, fn) in zip(masks, counts, rows):
        if count:
            # indices once per row: gathers and scatters by index beat the mask
            idx = np.nonzero(mask)
            value = fn(x[idx], *[y[idx] if isinstance(y, np.ndarray) else y for y in more])
            if out is None:  # only now: the first row's temporaries are freed
                out = np.empty_like(x)
            out[idx] = value
    return out


def _square(x):
    """np.square's bits, at a fifth of its cost on a numpy scalar.

    A call, so that a temporary argument (a sinh block) is freed before the caller's next
    operation, which an inlined (s := ...) * s would hold it through (log1p in _LOGCOSH_ROWS).
    """
    return x * x


def _horner(coeffs, x):
    """sum_k coeffs[k] * x^k by Horner's rule, elementwise in x."""
    if type(x) is not np.ndarray:
        x = float(x)  # numpy's bits, at a fraction of a numpy scalar's cost per step
    # the first step from acc = 0, as x * 0.0 keeps the shape and NaNs of x
    acc = x * 0.0 + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= x  # in place: the same rounding as acc * x + c, no temporary
        acc += c
    return acc


def _bisect(goes_right, lo, hi, steps):
    """Midpoint of [lo, hi] after bisecting towards the switch of goes_right.

    goes_right(x) is True left of the switch point and False right of it.
    Stops after `steps` halvings, or once the midpoint rounds to an end,
    where every further step returns it.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if goes_right(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# cosh(700) = 5e303: up to here cosh, and the sums built on it, stay finite
_COSH_MAX_ARG = 700.0


def _log_half_exp(x):
    """x - log 2: log cosh x and log sinh x once e^(-2x) is below a quarter ulp of it."""
    return x - LOG2


# past 700, e^(-2a) < e^(-1400) underflows to 0, so the far row is exact
_LOGCOSH_ROWS = (
    (lambda a: a > _COSH_MAX_ARG, _log_half_exp),
    (None, lambda a: np.log1p(2.0 * _square(np.sinh(0.5 * a)))),
)


def _logcosh(x):
    """log(cosh(x)) without overflow, within 2 ulp for all x.

    log1p(2 sinh^2(x/2)) keeps every digit down to x = 0 and is finite up to
    |x| = 700; beyond, where it nears overflow, |x| - log 2, as the remaining
    log1p(e^(-2|x|)) is 0 in binary64.
    """
    return _piecewise(abs(x), _LOGCOSH_ROWS)


# past 20, log1p(-e^(-2x)) > -4.3e-18 is under a quarter ulp of x - log 2: the far row is exact
_LOGSINH_ROWS = (
    (lambda x: x > 20.0, _log_half_exp),
    (None, lambda x: np.log(np.sinh(x))),
)


def _logsinh(x):
    """log(sinh(x)) for x > 0 without overflow."""
    return _piecewise(x, _LOGSINH_ROWS)


# sinh overflows past ~710, so x clips at _COSH_MAX_ARG; arctan(sinh) is pi/2 and
# arctan(sinh)/sinh - 1 is -1.0 to machine precision long before, so clipping is
# exact.  min clips a scalar at a fraction of the cost of np.minimum, same bits.
def _sinh_clipped(x):
    if type(x) is np.ndarray:
        return np.sinh(np.minimum(x, _COSH_MAX_ARG))
    return np.sinh(min(x, _COSH_MAX_ARG))


# arctan(y)/y - 1 = sum_{k>=1} (-1)^k y^(2k)/(2k+1).  Below y = 0.1 the nine
# terms kept here leave out less than 2^-60 of the sum; above it the direct
# quotient cancels by a factor of at most 300.
_ATAN_SERIES_Y = 0.1
_ATAN_SERIES = [(-1) ** k / (2 * k + 1) for k in range(1, 10)]


def _atan_series(y):
    """(arctan(y)/y - 1)/y^2 for |y| < 0.1, by Horner's rule in y^2."""
    return _horner(_ATAN_SERIES, _square(y))


# rows of arctan(y)/y - 1 in y >= 0, within 5e-14 relative: at y = tanh x
# and y = sinh x, against mpmath on 8 000 x in [1e-150, 10], the worst is
# 3.6e-14, just past the switch (sinh x = 0.1003), where the quotient cancels
_ATAN_RATIO_ROWS = (
    (lambda y: y < _ATAN_SERIES_Y, lambda y: _atan_series(y) * _square(y)),
    (None, lambda y: np.arctan(y) / y - 1.0),
)


# --- elliptic integrals ---------------------------------------------------


# binom(1/2, k)^2 for k = 1..13: the Toader mean of (e^-t, e^t) is
# cosh(t) (1 + h S(h)) with h = tanh^2 t and these coefficients in S
# (Gauss-Kummer; Linderholm & Segal, Math. Mag. 68, 1995).  Each is a dyadic
# rational, and int / int rounds correctly, so each float is exact.
_GAUSS_KUMMER = [math.comb(2 * k, k) ** 2 / (4**k * (2 * k - 1)) ** 2 for k in range(1, 14)]


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


def _ellipe_agm(m):
    """Complete elliptic integral E(m) = int_0^{pi/2} sqrt(1 - m sin^2) dθ, m in [0, 1].

    Arithmetic-geometric-mean iteration, with the exact limit 1 at m = 1.
    Against mpmath it is within 3 ulp on m in [0, 0.9] and within 24 ulp on
    10^3 log-spaced 1 - m in [1e-16, 0.1] (23.2 at 1 - m = 5.5e-15), where
    the sum of the c_n^2 cancels against 1.
    """
    return _piecewise(m, _ELLIPE_ROWS)
