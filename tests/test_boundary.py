"""The scalar/array contract shared by the public elementwise functions.

A Python float or a 0-d array gives a float; an array gives an array of the
same shape, equal elementwise to the scalar results.
"""

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
)

# both branches of every kernel: the curvature series below 1e-3, the
# slope and ratio series below 0.1, and the closed forms beyond
SAMPLES = np.array([[5e-4, 0.05, 0.3], [0.7, 3.0, 12.0]])

FUNCTIONS = {
    "eval_mean": lambda x: eval_mean(MeanKind("sandor-yang"), x, 2.5),
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
