"""The scalar/array contract shared by the public elementwise functions.

A Python float or a 0-d array gives a float; an array gives an array of the
same shape, equal elementwise to the scalar results.  A scalar call runs only
its live branch and passes the scalar/array boundary once.
"""

import math
import sys

import numpy as np
import pytest

from meanbounds import (
    MeanKind,
    curvature_kernel,
    eval_mean,
    half_log_ratio,
    log_gap,
    log_gap_slope,
    log_mean_normalized,
    slope_kernel,
    solver,
)
from meanbounds.means import PLAIN_TAGS
from meanbounds.numerics import (
    _piecewise,
    atan_sinh_ratio_m1,
    atan_tanh_ratio_m1,
    ellipe_agm,
    logcosh,
    logsinh,
)

# both branches of every kernel: the curvature series below 1e-3, the
# slope and ratio series below 0.1, and the closed forms beyond
SAMPLES = np.array([[5e-4, 0.05, 0.3], [0.7, 3.0, 12.0]])

FUNCTIONS = {
    "eval_mean": lambda x: eval_mean(MeanKind("sandor-yang"), x, 2.5),
    # the series below t = 0.3 (x = 3) and the AGM above
    "eval_mean_toader": lambda x: eval_mean(MeanKind("toader"), x, 2.5),
    "half_log_ratio": lambda x: half_log_ratio(x, 1.0),
    "log_mean_normalized": lambda x: log_mean_normalized(MeanKind("log"), x),
    "slope_kernel": lambda x: slope_kernel(x, 1.2),
    "curvature_kernel": lambda x: curvature_kernel(x, 1.2),
    "log_gap": lambda x: log_gap(x, 1.2),
    "log_gap_slope": lambda x: log_gap_slope(x, 1.2),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_scalar_and_array_contract(name):
    fn = FUNCTIONS[name]
    scalars = [fn(x) for x in SAMPLES.ravel().tolist()]
    assert all(type(v) is float for v in scalars)
    assert all(type(fn(np.asarray(x))) is float for x in SAMPLES.ravel())
    for shape in ((1,), (6,), (2, 3)):
        x = SAMPLES.ravel()[: int(np.prod(shape))].reshape(shape)
        out = fn(x)
        assert isinstance(out, np.ndarray) and out.shape == shape
        np.testing.assert_array_equal(out.ravel(), scalars[: x.size])


# t = 0 and each branch cut with its neighbours one ulp away: the curvature
# series (1e-3), the slope and ratio series (0.1), the Toader series (0.3),
# logcosh (1 and 20) and the far form of curvature_kernel at p = 1.2 (350)
CUTS = np.array(
    [0.0, 0.05, 3.0]
    + [np.nextafter(c, d) for c in (1e-3, 0.1, 0.3, 1.0, 20.0, 350.0) for d in (0.0, c, math.inf)]
)

KINDS = (
    [MeanKind(tag) for tag in PLAIN_TAGS]
    + [MeanKind.power(p) for p in (0.0, 1e-9, math.inf, -math.inf, 1.5, -2.0)]
    + [MeanKind.lehmer(p) for p in (0.5, -1.5)]
)

# functions of t, and whether they take t = 0
AT_CUTS = {
    "half_log_ratio": (lambda t: half_log_ratio(0.3, 0.3 * np.exp(2.0 * t)), True),
    "slope_kernel": (lambda t: slope_kernel(t, 1.2), True),
    "curvature_kernel": (lambda t: curvature_kernel(t, 1.2), True),
    "log_gap": (lambda t: log_gap(t, 1.2), True),
    "log_gap_slope": (lambda t: log_gap_slope(t, 1.2), False),
    "logcosh": (logcosh, True),
    "logcosh_negative": (lambda t: logcosh(-t), True),
    "logsinh": (logsinh, False),
    "atan_tanh_ratio_m1": (atan_tanh_ratio_m1, True),
    "atan_sinh_ratio_m1": (atan_sinh_ratio_m1, True),
    # m = 1 exactly from t = 20 on
    "ellipe_agm": (lambda t: ellipe_agm(-np.expm1(-4.0 * t)), True),
}
for _kind in KINDS:
    AT_CUTS[f"log_mean_normalized[{_kind.label()}]"] = (
        lambda t, kind=_kind: log_mean_normalized(kind, t),
        True,
    )
    AT_CUTS[f"eval_mean[{_kind.label()}]"] = (
        lambda t, kind=_kind: eval_mean(kind, 0.3, 0.3 * np.exp(2.0 * t)),
        True,
    )


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", sorted(AT_CUTS))
def test_scalar_results_equal_array_results_at_the_branch_cuts(name):
    fn, takes_zero = AT_CUTS[name]
    t = CUTS if takes_zero else CUTS[CUTS > 0.0]
    scalars = [fn(float(x)) for x in t]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_array_equal(_bits(fn(t)), _bits(scalars))


def _dead(x, *more):
    raise AssertionError("a row that holds no element ran")


def test_piecewise_runs_only_the_live_rows():
    rows = ((lambda x: x < 1.0, _dead), (lambda x: x > 2.0, lambda x: 2.0 * x), (None, _dead))
    value = _piecewise(np.float64(3.0), rows)
    assert type(value) is np.float64 and value == 6.0
    np.testing.assert_array_equal(_piecewise(np.array([3.0, 4.0]), rows), [6.0, 8.0])
    # on a mixed array each fn sees only its own elements, with `more` alongside
    x = np.array([0.5, 3.0, 1.5, 0.25])
    rows = (
        (lambda x, y: x < 1.0, lambda x, y: x + y),
        (lambda x, y: x > 2.0, lambda x, y: x * y),
        (None, lambda x, y: 0.0 * x),
    )
    np.testing.assert_array_equal(_piecewise(x, rows, 10.0), [10.5, 30.0, 0.0, 10.25])
    assert _piecewise(np.float64(0.5), rows, 10.0) == 10.5


def _boundary_entries(call):
    """How many times call() enters the scalar/array boundary."""
    boundary = eval_mean.__code__  # the code object of every decorated function
    entries = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is boundary:
            entries.append(frame)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return len(entries)


@pytest.mark.parametrize("t", [5e-4, 0.05, 0.7, 25.0])
def test_a_scalar_call_enters_the_boundary_once(t):
    for kind in KINDS:
        assert _boundary_entries(lambda: eval_mean(kind, 0.3, 0.3 * math.exp(2.0 * t))) == 1
        assert _boundary_entries(lambda: log_mean_normalized(kind, t)) == 1
    for fn in (slope_kernel, curvature_kernel, log_gap, log_gap_slope):
        assert _boundary_entries(lambda: fn(t, 1.2)) == 1


def test_gap_peak_stops_bisecting_at_a_fixed_point(monkeypatch):
    calls = []

    def counted(t, p, kernel=solver.slope_kernel):
        calls.append(t)
        return kernel(t, p)

    monkeypatch.setattr(solver, "slope_kernel", counted)
    # the value of the full 120-step bisection
    assert solver.gap_peak(1.2) == float.fromhex("0x1.3b5cd900f0be6p+0")
    assert len(calls) <= 60
