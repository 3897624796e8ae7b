"""The private primitives against a raised-precision reference.

They are called as the evaluators call them, past the boundary: on numpy
float64 scalars and float arrays.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from meanbounds.numerics import (
    _ATAN_RATIO_ROWS,
    LOG2,
    _ellipe_agm,
    _logcosh,
    _logsinh,
    _piecewise,
    _sinh_clipped,
)

# arctan(y)/y - 1 at y = tanh x and at y = sinh x, as sandor-yang and sandor form it
RATIOS = {
    "tanh": (lambda x: _piecewise(np.tanh(x), _ATAN_RATIO_ROWS), mp.tanh),
    "sinh": (lambda x: _piecewise(_sinh_clipped(x), _ATAN_RATIO_ROWS), mp.sinh),
}

# log-spaced x, and 50 points around the switch to the series at y = 0.1
XS = np.concatenate([np.logspace(-150, 1, 200), np.linspace(0.09, 0.11, 50)])


def _ratio_oracle(y_of, x):
    # arctan(y)/y - 1 ~ -y^2/3: twice the digits of x go into the cancellation
    with mp.workdps(40 + int(2 * max(0.0, -np.log10(x)))):
        y = y_of(mp.mpf(x))
        return float(mp.atan(y) / y - 1)


@pytest.mark.parametrize("name", sorted(RATIOS))
def test_ratio_matches_high_precision(name):
    fn, y_of = RATIOS[name]
    for x in XS:
        want = _ratio_oracle(y_of, x)
        assert abs(fn(x) - want) <= 5e-14 * abs(want), x


@pytest.mark.parametrize("name", sorted(RATIOS))
def test_ratio_leading_term(name):
    fn, _ = RATIOS[name]
    assert fn(np.float64(1e-4)) / 1e-8 == pytest.approx(-1.0 / 3.0, rel=1e-7)


# log-spaced x, and 1, 20 and 700 (where the far row takes over) with their
# neighbours one ulp away
LOGCOSH_XS = np.concatenate(
    [np.logspace(-150, 3, 400)]
    + [[np.nextafter(c, d) for d in (0.0, c, math.inf)] for c in (1.0, 20.0, 700.0)]
)


def test_logcosh_matches_high_precision():
    for x in LOGCOSH_XS:
        # log cosh x ~ x^2/2: twice the digits of x go into cosh x - 1
        with mp.workdps(40 + int(2 * max(0.0, -math.log10(x)))):
            want = float(mp.log(mp.cosh(mp.mpf(x))))
        assert abs(_logcosh(x) - want) <= 2 * np.spacing(want), x
        assert _logcosh(-x) == _logcosh(x)


def test_far_rows_are_exact_and_never_overflow():
    # past 700 (_logcosh) and 400 (_logsinh) e^(-2x) is 0 in binary64, so both
    # far rows are x - log 2; under the suite's filterwarnings an overflow in
    # forming -2x would raise here
    x = 10.0 ** np.random.default_rng(7).uniform(math.log10(700.0), 300.0, 10**4)
    with np.errstate(over="ignore", under="ignore"):
        assert np.all(np.exp(-2.0 * x) == 0.0)
    for big in (x, np.float64(1e308), np.finfo(float).max):
        np.testing.assert_array_equal(_logcosh(big), big - LOG2)
        np.testing.assert_array_equal(_logcosh(-big), big - LOG2)
        np.testing.assert_array_equal(_logsinh(big), big - LOG2)
    assert _logcosh(np.float64(-1e308)) == _logsinh(np.float64(1e308)) == 1e308 - LOG2


# m in [0, 0.9], and 10^3 log-spaced 1 - m in [1e-16, 0.1], where 1 less the
# AGM's sum of squares cancels; the bounds are the measured 2.9 and 23.2 ulp
ELLIPE_SWEEPS = [(np.linspace(0.0, 0.9, 1001), 3), (1.0 - np.logspace(-16, -1, 1000), 24)]


@pytest.mark.parametrize("ms, ulps", ELLIPE_SWEEPS, ids=["m<=0.9", "m-near-1"])
def test_ellipe_agm_matches_high_precision(ms, ulps):
    values = _ellipe_agm(ms)
    with mp.workdps(40):
        for m, value in zip(ms, values):
            want = mp.ellipe(mp.mpf(m))
            assert abs(value - want) <= ulps * np.spacing(float(want)), m
            assert _ellipe_agm(m) == value  # a numpy scalar gives the array's bits
    assert _ellipe_agm(np.float64(1.0)) == 1.0
