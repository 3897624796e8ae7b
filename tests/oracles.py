"""50-digit reference implementations used as ground truth in the test suite.

Every mean is written here directly from its textbook definition on the raw
pair (a, b) — deliberately not via the half-log-ratio forms the library uses
— so the two routes are independent.  The one float check at the end,
log_gap_residual, compares two of the library's own routes instead.
"""

import math

import mpmath as mp

from meanbounds import MeanKind, eval_mean, half_log_ratio, log_gap

mp.mp.dps = 50


def _first_seiffert(a, b):
    return (a - b) / (2 * mp.asin((a - b) / (a + b)))


def _second_seiffert(a, b):
    return (a - b) / (2 * mp.atan((a - b) / (a + b)))


def _neuman_sandor(a, b):
    return (a - b) / (2 * mp.asinh((a - b) / (a + b)))


def _logarithmic(a, b):
    return (a - b) / (mp.log(a) - mp.log(b))


def _identric(a, b):
    return (a**a / b**b) ** (1 / (a - b)) / mp.e


def _yang(a, b):
    return (a - b) / (mp.sqrt(2) * mp.atan((a - b) / mp.sqrt(2 * a * b)))


def _sandor(a, b):
    arith = (a + b) / 2
    return arith * mp.e ** (mp.sqrt(a * b) / _first_seiffert(a, b) - 1)


def _sandor_yang(a, b):
    quad = mp.sqrt((a * a + b * b) / 2)
    return quad * mp.e ** ((a + b) / 2 / _second_seiffert(a, b) - 1)


def _toader(a, b):
    big, small = (a, b) if a > b else (b, a)
    # mpmath's ellipe loses digits as m nears 1, about one per leading 9 of
    # m = 1 - (small/big)^2, of which there are 2 log10(big/small): the
    # precision is raised by that, with headroom
    with mp.workdps(60 + int(2 * mp.log10(big / small))):
        return 2 / mp.pi * big * mp.ellipe(1 - (small / big) ** 2)


def power_mean(p, a, b):
    a, b = mp.mpf(a), mp.mpf(b)
    if p == 0:
        return mp.sqrt(a * b)
    if mp.isinf(mp.mpf(p)):
        return max(a, b) if p > 0 else min(a, b)
    p = mp.mpf(p)
    return ((a**p + b**p) / 2) ** (1 / p)


def log_power_profile(p, t):
    """log M_p(e^-t, e^t) for p != 0, from the raw pair.

    e^(-pt) and e^(pt) average to 1 + (pt)^2/2 + ..., so the working
    precision is raised until (pt)^2 shows with 50 digits to spare.
    """
    t = mp.mpf(t)
    with mp.workdps(60 + 2 * max(0, -int(mp.log10(abs(mp.mpf(p)) * t)))):
        return mp.log(power_mean(p, mp.exp(-t), mp.exp(t)))


def lehmer_mean(p, a, b):
    a, b, p = mp.mpf(a), mp.mpf(b), mp.mpf(p)
    return (a ** (p + 1) + b ** (p + 1)) / (a**p + b**p)


_PLAIN = {
    "harmonic": lambda a, b: 2 * a * b / (a + b),
    "geometric": lambda a, b: mp.sqrt(a * b),
    "arithmetic": lambda a, b: (a + b) / 2,
    "quadratic": lambda a, b: mp.sqrt((a * a + b * b) / 2),
    "log": _logarithmic,
    "identric": _identric,
    "first-seiffert": _first_seiffert,
    "second-seiffert": _second_seiffert,
    "neuman-sandor": _neuman_sandor,
    "yang": _yang,
    "sandor": _sandor,
    "toader": _toader,
    "sandor-yang": _sandor_yang,
}


def mean_oracle(tag, param, a, b):
    """High-precision mean value as an mpf; a, b may be floats or mpfs."""
    a, b = mp.mpf(a), mp.mpf(b)
    if a == b:
        return a
    if tag == "power":
        return power_mean(param, a, b)
    if tag == "lehmer":
        return lehmer_mean(param, a, b)
    return _PLAIN[tag](a, b)


def slope_oracle(t, p):
    """-arctan(tanh t) + sinh(t) cosh(t) - tanh(pt) sinh^2(t).

    The two hyperbolic products grow like e^{2t}/4 while the result stays
    O(1), so the working precision is raised with t to keep 50 good digits
    after the cancellation; never lowered below the caller's.
    """
    with mp.workdps(max(mp.mp.dps, 60 + int(float(t)))):
        t, p = mp.mpf(t), mp.mpf(p)
        return (
            -mp.atan(mp.tanh(t))
            + mp.sinh(t) * mp.cosh(t)
            - mp.tanh(p * t) * mp.sinh(t) ** 2
        )


def slope_root_oracle(p):
    """The root t0 of slope_kernel(., p) for p just above 1, near 0.2805/(p - 1).

    It solves sinh(t) cosh((p-1)t) / cosh(pt) = arctan(tanh t): a quotient
    of O(1), not a difference of huge terms, so 50 digits hold at t0 ~ 1e11.
    """
    p = mp.mpf(p)

    def kernel(t):
        return mp.sinh(t) * mp.cosh((p - 1) * t) / mp.cosh(p * t) - mp.atan(mp.tanh(t))

    return float(mp.findroot(kernel, mp.mpf("0.2805") / (p - 1)))


def curvature_oracle(t, p):
    t, p = mp.mpf(t), mp.mpf(p)
    return (
        mp.cosh((p - 2) * t)
        - mp.cosh(p * t)
        + (1 - p) * mp.cosh(2 * t)
        + 2 * p * mp.cosh(t)
        - p
        - 1
    )


def gap_oracle(t, p):
    """log(cosh 2t)/2 + arctan(tanh t)/tanh t - log(cosh pt)/p - 1, 50 digits."""
    t, p = mp.mpf(t), mp.mpf(p)
    return (
        mp.log(mp.cosh(2 * t)) / 2
        + mp.atan(mp.tanh(t)) / mp.tanh(t)
        - mp.log(mp.cosh(p * t)) / p
        - 1
    )


def log_gap_residual(a: float, b: float, p: float) -> float:
    """|log B(a,b) - log M_p(a,b) - log_gap(t, p)| with t the half log ratio.

    Cross-checks the normalized kernel against the library's direct pair
    evaluation; the contract is a residual below 1e-11.
    """
    if a == b:
        raise ValueError("residual check requires distinct arguments")
    t = half_log_ratio(a, b)
    lhs = math.log(eval_mean(MeanKind("sandor-yang"), a, b)) - math.log(
        eval_mean(MeanKind.power(p), a, b)
    )
    return abs(lhs - log_gap(t, p))
