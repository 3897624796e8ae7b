"""The scalar/array contract shared by the public elementwise functions.

A number, a numeric string or a 0-d array gives a float; an array gives an
array of the same shape, equal elementwise to the scalar results.  A zero,
negative, NaN or infinite argument raises before anything is evaluated.  A
scalar call runs only its live branch and passes the scalar/array boundary
once, with few Python calls around its ufuncs.
"""

import importlib
import math
import pkgutil
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import meanbounds
from meanbounds import numerics
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
    _ATAN_RATIO_ROWS,
    _BLOCK,
    _ellipe_agm,
    _logcosh,
    _logsinh,
    _piecewise,
    _sinh_clipped,
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
# series (1e-3), the slope series (0.1), the ratio series (tanh t or sinh t
# = 0.1), the Toader series (0.3), _logsinh (20), the far forms of
# curvature_kernel at p = 1.2 (350) and of _logcosh (700), and 1
CUTS = np.array(
    [0.0, 0.05, 3.0]
    + [
        np.nextafter(c, d)
        for c in (1e-3, 0.1, math.atanh(0.1), math.asinh(0.1), 0.3, 1.0, 20.0, 350.0, 700.0)
        for d in (0.0, c, math.inf)
    ]
)

KINDS = (
    [MeanKind(tag) for tag in PLAIN_TAGS]
    + [MeanKind.power(p) for p in (0.0, 1e-9, math.inf, -math.inf, 1.5, -2.0)]
    + [MeanKind.lehmer(p) for p in (0.5, -1.5)]
)


def _past_the_boundary(fn):
    """A private primitive called as the evaluators call it: on a Python float or an array."""
    return lambda t: float(fn(t)) if isinstance(t, float) else fn(t)


# functions of t, and whether they take t = 0; a pair with half log ratio t
# is (0.3 e^-t, 0.3 e^t), as e^2t overflows at t = 700
AT_CUTS = {
    "half_log_ratio": (lambda t: half_log_ratio(0.3 * np.exp(-t), 0.3 * np.exp(t)), True),
    "slope_kernel": (lambda t: slope_kernel(t, 1.2), True),
    "curvature_kernel": (lambda t: curvature_kernel(t, 1.2), True),
    # from |p| = 998 the series does not run: the closed row reaches down to
    # t = 0, and the far row starts at 700/|p|, below the series radius
    "curvature_kernel_p1e6": (lambda t: curvature_kernel(t, 1e6), True),
    "log_gap": (lambda t: log_gap(t, 1.2), True),
    "log_gap_slope": (lambda t: log_gap_slope(t, 1.2), False),
    # |p| >= 2 takes another form of the slope series
    "slope_kernel_p3": (lambda t: slope_kernel(t, 3.0), True),
    "log_gap_slope_p3": (lambda t: log_gap_slope(t, 3.0), False),
    "_logcosh": (_past_the_boundary(_logcosh), True),
    "_logcosh_negative": (_past_the_boundary(lambda t: _logcosh(-t)), True),
    "_logsinh": (_past_the_boundary(_logsinh), False),
    "_atan_ratio_rows[tanh]": (
        _past_the_boundary(lambda t: _piecewise(np.tanh(t), _ATAN_RATIO_ROWS)),
        True,
    ),
    "_atan_ratio_rows[sinh]": (
        _past_the_boundary(lambda t: _piecewise(_sinh_clipped(t), _ATAN_RATIO_ROWS)),
        True,
    ),
    # m = 1 exactly from t = 20 on
    "_ellipe_agm": (_past_the_boundary(lambda t: _ellipe_agm(-np.expm1(-4.0 * t))), True),
}
for _kind in KINDS:
    AT_CUTS[f"log_mean_normalized[{_kind.label()}]"] = (
        lambda t, kind=_kind: log_mean_normalized(kind, t),
        True,
    )
    AT_CUTS[f"eval_mean[{_kind.label()}]"] = (
        lambda t, kind=_kind: eval_mean(kind, 0.3 * np.exp(-t), 0.3 * np.exp(t)),
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


# the sizes around one and several blocks, a 2-D array of 3 blocks and a few
# elements, and its transpose, which is not contiguous
BLOCKED_SHAPES = [
    (_BLOCK - 1,),
    (_BLOCK,),
    (_BLOCK + 1,),
    (3 * _BLOCK + 7,),
    (3, _BLOCK + 5),
    (_BLOCK + 5, 3),
]


def _spread(shape, takes_zero):
    """t log-uniform on [1e-12, 700] in the given shape, every branch cut first."""
    n = math.prod(shape)
    t = 10.0 ** np.random.default_rng(n).uniform(-12.0, math.log10(700.0), n)
    cuts = CUTS if takes_zero else CUTS[CUTS > 0.0]
    t[: cuts.size] = cuts
    return t.reshape(shape[::-1]).T if shape[0] > shape[-1] else t.reshape(shape)


@pytest.mark.parametrize("name", sorted(AT_CUTS))
def test_blocked_array_results_equal_one_call_on_the_whole_array(name, monkeypatch):
    fn, takes_zero = AT_CUTS[name]
    for shape in BLOCKED_SHAPES:
        t = _spread(shape, takes_zero)
        blocked = fn(t)
        with monkeypatch.context() as m:
            m.setattr(numerics, "_BLOCK", math.inf)  # the undecorated function on all of t
            whole = fn(t)
        assert blocked.shape == whole.shape == shape and blocked.dtype == whole.dtype
        np.testing.assert_array_equal(blocked.view(np.int64), whole.view(np.int64))


@pytest.mark.parametrize("kind", KINDS, ids=MeanKind.label)
def test_a_blocked_call_broadcasts_a_scalar_argument(kind, monkeypatch):
    a = 10.0 ** np.random.default_rng(5).uniform(-300.0, 300.0, (2, 2 * _BLOCK + 3))
    x, y = a[0, :300], a[1, :300]  # a broadcast of 9e4 pairs from two small arguments
    for args in ((a, 2.5), (2.5, a), (a, a[:1]), (x[:, None], y[None, :])):
        blocked = eval_mean(kind, *args)
        with monkeypatch.context() as m:
            m.setattr(numerics, "_BLOCK", math.inf)
            whole = eval_mean(kind, *args)
        shape = np.broadcast(*args).shape
        assert blocked.shape == whole.shape == shape and blocked.dtype == whole.dtype
        np.testing.assert_array_equal(blocked.view(np.int64), whole.view(np.int64))


def _profiled(code, call, entries):
    """Run call(), appending to entries each frame in which it enters code."""

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            entries.append(frame)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)


def test_a_bad_element_in_the_last_block_raises_before_any_block_runs():
    good = np.full(3 * _BLOCK + 7, 2.0)
    blocks = []
    _profiled(log_gap_slope.__wrapped__.__code__, lambda: log_gap_slope(good, 1.2), blocks)
    assert len(blocks) == 4
    zero_last, negative_last = good.copy(), good.copy()
    zero_last[-1], negative_last[-1] = 0.0, -1.0
    for fn, call in (
        (log_gap_slope, lambda: log_gap_slope(zero_last, 1.2)),
        (log_mean_normalized, lambda: log_mean_normalized(MeanKind("toader"), negative_last)),
        (eval_mean, lambda: eval_mean(MeanKind("sandor-yang"), good, zero_last)),
    ):
        blocks = []
        with pytest.raises(ValueError, match="must be"):
            _profiled(fn.__wrapped__.__code__, call, blocks)
        assert blocks == []


def test_keyword_array_arguments_pass_the_domain_check():
    with pytest.raises(ValueError, match="must be positive"):
        half_log_ratio(a=-1.0, b=2.0)
    with pytest.raises(ValueError, match="must be positive"):
        eval_mean(MeanKind("arithmetic"), 1.0, b=np.array([3.0, 0.0]))
    kind = MeanKind("arithmetic")
    # sqrt(3) cosh(log 3 / 2) rounds to one ulp below 2
    assert eval_mean(kind, a=1.0, b=3.0) == eval_mean(kind, 1.0, 3.0) == pytest.approx(2.0)
    assert eval_mean(kind, a=2.0, b=4.0) == 3.0
    by_keyword = eval_mean(kind, 1.0, b=np.array([3.0]))
    np.testing.assert_array_equal(by_keyword, [eval_mean(kind, 1.0, 3.0)])


def test_infinite_arguments_raise_before_any_evaluator_runs():
    for kind in KINDS:
        for a, b in ((math.inf, math.inf), (math.inf, 3.0), (3.0, math.inf)):
            entries = []
            with pytest.raises(ValueError, match="^a and b must be positive and finite$"):
                _profiled(eval_mean.__wrapped__.__code__, lambda: eval_mean(kind, a, b), entries)
            assert entries == []
        with pytest.raises(ValueError, match="^t must be nonnegative and finite$"):
            log_mean_normalized(kind, math.inf)
    for fn in (slope_kernel, curvature_kernel, log_gap):
        with pytest.raises(ValueError, match="^t must be nonnegative and finite$"):
            fn(math.inf, 1.2)
        with pytest.raises(ValueError, match="^t must be nonnegative and finite$"):
            fn(np.array([0.5, math.inf]), 1.2)
    with pytest.raises(ValueError, match="^t must be positive and finite$"):
        log_gap_slope(np.array([math.inf]), 1.2)
    with pytest.raises(ValueError, match="^a and b must be positive and finite$"):
        half_log_ratio(np.array([1.0, 2.0]), np.array([3.0, -math.inf]))
    # large finite t get through, and the geometric mean's log stays +0.0
    assert np.isfinite(log_gap(np.array([CUTS.max(), 727.0]), 1.2)).all()
    t = np.array([0.0, 5e-324, CUTS.max(), 1.0e300, np.finfo(float).max])
    np.testing.assert_array_equal(_bits(log_mean_normalized(MeanKind("geometric"), t)), 0)
    assert _bits(eval_mean(MeanKind("geometric"), 5e-324, np.finfo(float).max)) == _bits(
        math.sqrt(5e-324) * math.sqrt(np.finfo(float).max)
    )


# a number or a string is a scalar by type, converted once with float() to
# the value np.asarray(x, dtype=float) gives; the results are frozen as hex
SCALAR_TYPES = [
    (3, "0x1.1a2453378cf33p+1", "0x1.1a784e1c7e180p-6"),
    (2.5, "0x1.ee5123df2d5c9p+0", "0x1.2abc240cb36c0p-6"),
    (np.float64(2.5), "0x1.ee5123df2d5c9p+0", "0x1.2abc240cb36c0p-6"),
    (np.float32(0.1), "0x1.8cf1b990cd1f0p-1", "0x1.585251a583f68p-11"),
    (np.array(2.5), "0x1.ee5123df2d5c9p+0", "0x1.2abc240cb36c0p-6"),
    (Fraction(7, 3), "0x1.d73aea256327bp+0", "0x1.331e73f431b40p-6"),
    (Decimal("0.1"), "0x1.8cf1b98c5fc05p-1", "0x1.585250fbecfe0p-11"),
    ("2.5", "0x1.ee5123df2d5c9p+0", "0x1.2abc240cb36c0p-6"),
]


@pytest.mark.parametrize("x, mean, gap", SCALAR_TYPES, ids=[repr(x) for x, _, _ in SCALAR_TYPES])
def test_every_scalar_type_gives_a_float_of_its_value(x, mean, gap):
    value = eval_mean(MeanKind("sandor-yang"), x, 1.3)
    assert type(value) is float and value == float.fromhex(mean)
    value = log_gap(x, 1.2)
    assert type(value) is float and value == float.fromhex(gap)


# a scalar of each type, made from a float drawn log-uniform: int rounds it
# up, np.float32 rounds it to single precision
SCALAR_MAKERS = {
    "float": float,
    "int": math.ceil,
    "np.float64": np.float64,
    "np.float32": np.float32,
    "0-d array": np.array,
}

# functions of one array argument, and whether it may be 0: the four
# kernels (log_gap also at p = +/-inf, where M_p is max/min) and every kind
FUNCTIONS_OF_T = {
    **{
        f"{fn.__name__}({p})": (lambda t, fn=fn, p=p: fn(t, p), fn is not log_gap_slope)
        for fn in (slope_kernel, curvature_kernel, log_gap, log_gap_slope)
        for p in (1.2, 3.0, 0.5, -1.0, 1e6)
    },
    "log_gap(inf)": (lambda t: log_gap(t, math.inf), True),
    "log_gap(-inf)": (lambda t: log_gap(t, -math.inf), True),
    **{
        f"log_mean_normalized[{kind.label()}]": (
            lambda t, kind=kind: log_mean_normalized(kind, t),
            True,
        )
        for kind in KINDS
    },
}
# functions of a pair
FUNCTIONS_OF_A_PAIR = {
    "half_log_ratio": half_log_ratio,
    **{
        f"eval_mean[{kind.label()}]": lambda a, b, kind=kind: eval_mean(kind, a, b)
        for kind in KINDS
    },
}


@pytest.mark.parametrize("maker", sorted(SCALAR_MAKERS))
def test_scalar_calls_of_every_type_give_the_bits_of_the_array_call(maker):
    make = SCALAR_MAKERS[maker]
    rng = np.random.default_rng(26)
    # t up to 700 crosses every branch cut; pair ratios up to 1e60 reach t = 69
    t = [make(x) for x in (10.0 ** rng.uniform(-8.0, math.log10(700.0), 64)).tolist()]
    a, b = ([make(x) for x in (10.0 ** rng.uniform(-30.0, 30.0, 64)).tolist()] for _ in "ab")
    for name, (fn, _) in FUNCTIONS_OF_T.items():
        scalars = [fn(x) for x in t]
        assert all(type(v) is float for v in scalars), name
        want = fn(np.asarray(t, dtype=float))
        np.testing.assert_array_equal(_bits(scalars), _bits(want), err_msg=name)
    for name, fn in FUNCTIONS_OF_A_PAIR.items():
        scalars = [fn(x, y) for x, y in zip(a, b)]
        assert all(type(v) is float for v in scalars), name
        want = fn(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        np.testing.assert_array_equal(_bits(scalars), _bits(want), err_msg=name)


# pairs whose ratio exceeds DBL_MAX, both orders, and t up to DBL_MAX
EXTREME_PAIRS = [(1e-200, 1e200), (5e-324, 1.0), (1e-308, 1e308)]
EXTREME_T = [0.0, 5e-324, 710.0, 1e300, 1.6e308, np.finfo(float).max]


def test_scalar_calls_at_the_extremes_give_the_bits_of_the_array_call():
    # Python float arithmetic overflows to +/-inf with no warning and no
    # OverflowError, as numpy does under np.errstate(all="ignore")
    t = np.array(EXTREME_T)
    a, b = np.array(EXTREME_PAIRS + [(y, x) for x, y in EXTREME_PAIRS]).T
    with np.errstate(all="ignore"):
        for name, (fn, takes_zero) in FUNCTIONS_OF_T.items():
            ts = t if takes_zero else t[t > 0.0]
            scalars = [fn(x) for x in ts.tolist()]
            np.testing.assert_array_equal(_bits(scalars), _bits(fn(ts)), err_msg=name)
        for name, fn in FUNCTIONS_OF_A_PAIR.items():
            scalars = [fn(x, y) for x, y in zip(a.tolist(), b.tolist())]
            np.testing.assert_array_equal(_bits(scalars), _bits(fn(a, b)), err_msg=name)


# zero, negative, NaN and infinite values of every scalar type
BAD_SCALARS = [
    0,
    -1,
    False,
    0.0,
    -2.5,
    math.nan,
    math.inf,
    -math.inf,
    np.float64(0.0),
    np.float32("nan"),
    np.float32("inf"),
    np.array(-1.0),
    np.array(math.inf),
    Fraction(0),
    Fraction(-1, 3),
    Decimal("0"),
    Decimal("-1"),
    Decimal("NaN"),
    Decimal("Infinity"),
    "0",
    "-1",
    "nan",
    "inf",
]


@pytest.mark.parametrize("bad", BAD_SCALARS, ids=repr)
def test_a_bad_scalar_of_any_type_raises_before_any_evaluator_runs(bad):
    calls = [
        (eval_mean, lambda: eval_mean(MeanKind("sandor-yang"), bad, 1.3), True),
        (eval_mean, lambda: eval_mean(MeanKind("sandor-yang"), 1.3, bad), True),
        (log_gap_slope, lambda: log_gap_slope(bad, 1.2), True),
        # zero is in the nonnegative domain
        (log_gap, lambda: log_gap(bad, 1.2), float(bad) != 0.0),
    ]
    for fn, call, raises in calls:
        if not raises:
            assert call() == 0.0
            continue
        entries = []
        with pytest.raises(ValueError, match="must be (positive|nonnegative) and finite$"):
            _profiled(fn.__wrapped__.__code__, call, entries)
        assert entries == []


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
        (None, lambda x, y: x - y),
    )
    np.testing.assert_array_equal(_piecewise(x, rows, 10.0), [10.5, 30.0, -8.5, 10.25])
    assert _piecewise(np.float64(0.5), rows, 10.0) == 10.5
    # a 2-D x with `more` broadcast along its rows, against boolean-mask gathers
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0.0, 3.0, (40, 50)), rng.uniform(1.0, 2.0, 50)
    yy = np.broadcast_to(y, x.shape)
    masks = [x < 1.0, x > 2.0]
    masks.append(~(masks[0] | masks[1]))
    want = np.empty_like(x)
    for mask, (_, fn) in zip(masks, rows):
        want[mask] = fn(x[mask], yy[mask])
    np.testing.assert_array_equal(_piecewise(x, rows, y), want)


def _boundary_entries(call):
    """How many times call() enters the scalar/array boundary."""
    entries = []
    # the code object of every decorated function
    _profiled(eval_mean.__code__, call, entries)
    return len(entries)


@pytest.mark.parametrize("t", [5e-4, 0.05, 0.7, 25.0])
def test_a_scalar_call_enters_the_boundary_once(t):
    for kind in KINDS:
        assert _boundary_entries(lambda: eval_mean(kind, 0.3, 0.3 * math.exp(2.0 * t))) == 1
        assert _boundary_entries(lambda: log_mean_normalized(kind, t)) == 1
    for fn in (slope_kernel, curvature_kernel, log_gap, log_gap_slope):
        assert _boundary_entries(lambda: fn(t, 1.2)) == 1


def _events(call):
    """How many Python calls and calls of builtins call() makes, with no timing."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


# the Python work around the ufuncs of one scalar call: the counts of this
# code (CPython 3.11, numpy 2.4), each from 3 to 10 below those of a boundary
# that converted every scalar with np.float64, checked it with a comparison
# function and collected it in a list, as Python floats pass it with one
# chained comparison each.  A count weighs a cheap builtin as much as a
# Python call: it guards against added work, it does not measure cost
SCALAR_CALL_EVENTS = {
    "harmonic": 22,
    "geometric": 14,
    "arithmetic": 22,
    "quadratic": 22,
    "log": 18,
    "identric": 14,
    "first-seiffert": 20,
    "second-seiffert": 18,
    "neuman-sandor": 18,
    "yang": 20,
    "sandor": 25,
    "toader": 21,
    "sandor-yang": 24,
    "power:1.7": 23,
    "lehmer:0.5": 26,
    "slope_kernel(0.0005)": 14,
    "slope_kernel(0.7)": 30,
    "curvature_kernel(0.0005)": 19,
    "curvature_kernel(0.7)": 9,
    "log_gap(0.0005)": 28,
    "log_gap(0.7)": 24,
    "log_gap_slope(0.0005)": 12,
    "log_gap_slope(0.7)": 24,
    "half_log_ratio": 8,
}


SCALAR_CALLS = {
    **{
        kind.label(): lambda kind=kind: eval_mean(kind, 1.7, 5.3)
        for kind in [MeanKind(tag) for tag in PLAIN_TAGS]
        + [MeanKind.power(1.7), MeanKind.lehmer(0.5)]
    },
    **{
        f"{fn.__name__}({t})": lambda fn=fn, t=t: fn(t, 1.2)
        for fn in (slope_kernel, curvature_kernel, log_gap, log_gap_slope)
        for t in (5e-4, 0.7)
    },
    "half_log_ratio": lambda: half_log_ratio(1.7, 5.3),
}


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_a_scalar_call_makes_few_python_calls(name):
    assert _events(SCALAR_CALLS[name]) <= SCALAR_CALL_EVENTS[name]


def test_gap_peak_stops_bisecting_at_a_fixed_point(monkeypatch):
    calls = []

    def counted(t, p, kernel=solver.slope_kernel):
        calls.append(t)
        return kernel(t, p)

    monkeypatch.setattr(solver, "slope_kernel", counted)
    # the value of the full 120-step bisection; the root of the mpmath slope
    # oracle at p = 1.2 is 5.2e-16 relative above it
    assert solver.gap_peak(1.2) == float.fromhex("0x1.3b5cd900f0be4p+0")
    assert len(calls) <= 60


def test_the_boundary_wraps_the_public_api_only():
    modules = [
        importlib.import_module(f"meanbounds.{info.name}")
        for info in pkgutil.iter_modules(meanbounds.__path__)
    ]
    boundary = numerics._elementwise("positive")(lambda x: x).__code__
    decorated = [
        fn
        for module in modules
        for fn in vars(module).values()
        if getattr(fn, "__code__", None) is boundary
    ]
    assert decorated
    public = {name: getattr(meanbounds, name) for name in meanbounds.__all__}
    assert not [fn.__qualname__ for fn in decorated if public.get(fn.__name__) is not fn]
    # one entry per function: no module binds the function a boundary wraps
    wrapped = [fn.__wrapped__ for fn in decorated]
    assert not [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if any(obj is fn for fn in wrapped)
    ]
    # the primitives and helpers of numerics are private
    assert not [
        name
        for name, obj in vars(numerics).items()
        if callable(obj)
        and not name.startswith("_")
        and getattr(obj, "__module__", None) == numerics.__name__
    ]


def test_public_names_are_pinned():
    # 29 names plus __version__; a new or lost public name fails here
    assert sorted(meanbounds.__all__) == [
        "EndpointReport",
        "MeanKind",
        "SharpConstantTable",
        "__version__",
        "best_exponent",
        "chain_margins",
        "chain_table",
        "constants_table",
        "curvature_coefficient",
        "curvature_kernel",
        "eval_mean",
        "find_witness",
        "gap_peak",
        "growth_offset",
        "half_log_ratio",
        "literature_endpoints",
        "log_gap",
        "log_gap_slope",
        "log_mean_normalized",
        "parse_mean",
        "peak_ratio",
        "power_bound_certificate",
        "quadratic_coefficient",
        "sharp_factor",
        "sharp_lower_exponent",
        "slope_kernel",
        "squeeze_margins",
        "verify_chain",
        "verify_seiffert_lehmer",
        "verify_squeeze",
    ]


def test_readme_library_tour_runs():
    # every public name the README shows must exist and give the value it prints
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(tour, namespace)
    printed = 0
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = float(comment)
        except ValueError:
            continue
        assert eval(code, namespace) == value, line
        printed += 1
    assert printed >= 3
