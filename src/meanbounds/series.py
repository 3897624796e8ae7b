"""Single-sign-change series analysis.

A power series P(t) = sum a_k t^k whose coefficients run nonnegative up to
index m (with a_m > 0) and nonpositive afterwards (not all zero) is positive
near 0, eventually negative, and crosses zero exactly once on (0, inf).
`detect_sign_change` recognises the pattern on a stored coefficient prefix;
`series_positive_root` then brackets and bisects the unique crossing.

Truncation is the caller's contract: the prefix must be long enough that the
dropped tail is negligible inside the evaluation radius (for the hyperbolic
kernels used here the 1/(2n)! decay makes that easy to satisfy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _bisect, _horner

_MAX_ITER = 200


def detect_sign_change(coeffs) -> int | None:
    """Largest m with coeffs[0..m] >= 0, coeffs[m] > 0, tail <= 0, some < 0.

    Returns None when the pattern does not hold ("not applicable"); callers
    must not run root finding in that case.  A scan landing on a zero head
    coefficient is rejected: the criterion needs a_m strictly positive.
    """
    c = [float(v) for v in coeffs]
    if not c:
        raise ValueError("coefficient list must be nonempty")
    m = None
    for k, v in enumerate(c):
        if v > 0:
            m = k
        elif v < 0:
            break
    if m is None:
        return None
    head, tail = c[: m + 1], c[m + 1 :]
    if any(v < 0 for v in head):
        return None
    if any(v > 0 for v in tail) or not any(v < 0 for v in tail):
        return None
    return m


@dataclass(frozen=True)
class CoefficientSeq:
    """A coefficient prefix together with its validated sign-change index."""

    coeffs: tuple
    sign_change_index: int

    @classmethod
    def from_coeffs(cls, coeffs) -> "CoefficientSeq":
        m = detect_sign_change(coeffs)
        if m is None:
            raise ValueError("coefficients do not show a single +/- sign change")
        return cls(tuple(float(v) for v in coeffs), m)

    def __call__(self, t):
        return _horner(self.coeffs, np.asarray(t, dtype=float))


def series_positive_root(seq: CoefficientSeq, radius: float) -> float:
    """The unique positive root of the truncated series inside (0, radius].

    Brackets by geometric expansion from radius * 1e-6, then bisects until
    the midpoint rounds to an end of the bracket: the root to the last bit.
    Raises if the series never goes negative before the radius (the crossing
    would lie outside the trusted truncation zone).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    lo = radius * 1e-6
    if seq(lo) <= 0:
        raise ValueError("series is not positive at the inner bracket point")
    hi = lo
    while seq(hi) > 0:
        hi *= 2.0
        if hi > radius:
            if seq(radius) > 0:
                raise ValueError("no sign change of the series within radius")
            hi = radius
            break
    return _bisect(lambda x: seq(x) > 0, hi / 2.0, hi, _MAX_ITER)
