"""logcosh and the arctan ratios against a raised-precision reference."""

import math

import mpmath as mp
import numpy as np
import pytest

from meanbounds.numerics import LOG2, atan_sinh_ratio_m1, atan_tanh_ratio_m1, logcosh, logsinh

RATIOS = {"tanh": (atan_tanh_ratio_m1, mp.tanh), "sinh": (atan_sinh_ratio_m1, mp.sinh)}

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
    for x in XS.tolist():
        want = _ratio_oracle(y_of, x)
        assert abs(fn(x) - want) <= 5e-14 * abs(want), x


@pytest.mark.parametrize("name", sorted(RATIOS))
def test_ratio_leading_term(name):
    fn, _ = RATIOS[name]
    assert fn(1e-4) / 1e-8 == pytest.approx(-1.0 / 3.0, rel=1e-7)


# log-spaced x, and 1, 20 and 700 (where the far row takes over) with their
# neighbours one ulp away
LOGCOSH_XS = np.concatenate(
    [np.logspace(-150, 3, 400)]
    + [[np.nextafter(c, d) for d in (0.0, c, math.inf)] for c in (1.0, 20.0, 700.0)]
)


def test_logcosh_matches_high_precision():
    for x in LOGCOSH_XS.tolist():
        # log cosh x ~ x^2/2: twice the digits of x go into cosh x - 1
        with mp.workdps(40 + int(2 * max(0.0, -math.log10(x)))):
            want = float(mp.log(mp.cosh(mp.mpf(x))))
        assert abs(logcosh(x) - want) <= 2 * np.spacing(want), x
        assert logcosh(-x) == logcosh(x)


def test_far_rows_are_exact_and_never_overflow():
    # past 700 (logcosh) and 400 (logsinh) e^(-2x) is 0 in binary64, so both
    # far rows are x - log 2; under the suite's filterwarnings an overflow in
    # forming -2x would raise here
    x = 10.0 ** np.random.default_rng(7).uniform(math.log10(700.0), 300.0, 10**4)
    with np.errstate(over="ignore", under="ignore"):
        assert np.all(np.exp(-2.0 * x) == 0.0)
    for big in (x, 1e308, np.finfo(float).max):
        np.testing.assert_array_equal(logcosh(big), np.asarray(big) - LOG2)
        np.testing.assert_array_equal(logcosh(-np.asarray(big)), np.asarray(big) - LOG2)
        np.testing.assert_array_equal(logsinh(big), np.asarray(big) - LOG2)
    assert logcosh(-1e308) == logsinh(1e308) == 1e308 - LOG2
