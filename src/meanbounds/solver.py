"""Sharp-bound solving and verification.

A comparison "family mean with parameter q versus target mean m" fails, when
it fails, at t -> 0+ (where log-mean differences behave like
(c2_family - c2_mean) t^2), at t -> infinity (where they tend to the
difference of growth offsets), or in between, as yang against the lehmer
family from below does near t = 3.6.  The universal quantifier over t is
therefore a dense log grid on [1e-6, 50] plus those two analytic limit
checks; a failure beyond t = 50 that the limits do not show goes unseen.  A
sharp endpoint is where the two limit checks switch, found by bisection over
the parameter and confirmed by one grid check; bisecting the full predicate
(limits and grid) is the fallback.

The module also carries the closed-form endpoint catalog used as
cross-check targets, the sharp multiplicative factors for the sandor-yang
mean, and the verification routines for its bound chains.  The theorem
behind p0, 4/3 and those factors is proved exactly, with no grid, by
series.power_bound_certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .kernels import log_gap, slope_kernel
from .means import (
    _EVAL_ROWS,
    _FAMILIES,
    LOG2,
    PARAMETRIC_TAGS,
    MeanKind,
    _lognorm_power,
    _lognorm_sandor_yang,
    growth_offset,
    half_log_ratio,
    log_mean_normalized,
    quadratic_coefficient,
)
from .numerics import _ATAN_RATIO_ROWS, _bisect, _blocks, _piecewise, _square
from .series import CHAIN_EXPONENTS

# Grid used for "for all t" checks, per the solver design: 1e4 log-spaced
# points on [1e-6, 50].  Values within TIE of equality count as holding.
GRID_POINTS = 10_000
GRID_LO, GRID_HI = 1e-6, 50.0
TIE = 1e-13

# Agreement with the closed form that the `endpoint` command accepts: the catalogued
# endpoints, bisected to an ulp, land within 4.4e-16, so rounding sets it, not the grid.
ENDPOINT_TOLERANCE = 1e-12

UPPER_EXPONENT = 4.0 / 3.0

FAMILIES = PARAMETRIC_TAGS
SIDES = ("lower", "upper")


def sharp_lower_exponent() -> float:
    """4 log2 / (4 + 2 log2 - pi): the largest p with M_p below sandor-yang."""
    return 4.0 * LOG2 / (4.0 + 2.0 * LOG2 - math.pi)


def sharp_factor(p: float) -> float:
    """exp(pi/4 - 1) * 2^(1/p - 1/2): best c with c*M_p < sandor-yang, p >= 4/3."""
    p = float(p)
    if not p > 0:
        raise ValueError("sharp factor requires a positive exponent")
    return math.exp(math.pi / 4.0 - 1.0) * 2.0 ** (1.0 / p - 0.5)


@dataclass(frozen=True)
class EndpointReport:
    """Outcome of one sharp-endpoint computation."""

    mean: MeanKind
    family: str
    side: str
    closed_form: Optional[float]
    numeric: float
    decided_by: str  # "limits": the c2/omega switch point, confirmed by the grid; else "grid"


@dataclass(frozen=True)
class SharpConstantTable:
    """(label, closed-form expression, value) rows; values computed at run time."""

    entries: tuple


_GRID = np.logspace(math.log10(GRID_LO), math.log10(GRID_HI), GRID_POINTS)


# Bounded, as callers may name any number of targets; 32 holds the literature
# catalog's means and the verifiers' targets with room to spare.
@lru_cache(maxsize=32)
def _mean_log_on_grid(kind: MeanKind) -> np.ndarray:
    return log_mean_normalized(kind, _GRID)


def _check_family_and_side(family: str, side: str) -> None:
    """Reject an unknown side, then an unknown family."""
    if side not in SIDES:
        raise ValueError(f"unknown side '{side}'")
    if family not in FAMILIES:
        raise ValueError(f"unknown mean family '{family}'")


def _limits_check(kind: MeanKind, family: str, side: str) -> Callable[[float], bool]:
    """True iff c2 and omega of family member p admit it; -inf - -inf is NaN, which holds."""
    _check_family_and_side(family, side)
    _, c2, omega = _FAMILIES[family]
    mean_c2 = quadratic_coefficient(kind)
    mean_om = growth_offset(kind)
    sign = 1.0 if side == "lower" else -1.0

    def holds(p: float) -> bool:
        if sign * (c2(p) - mean_c2) > 0.0:
            return False
        return not sign * (omega(p) - mean_om) > 0.0

    return holds


def _bound_predicate(kind: MeanKind, family: str, side: str) -> Callable[[float], bool]:
    """True iff the family member with parameter p bounds `kind` on the given side."""
    limits = _limits_check(kind, family, side)
    return lambda p: limits(p) and find_witness(kind, family, p, side) is None


def best_exponent(kind: MeanKind, family: str, side: str) -> EndpointReport:
    """Sharp family parameter for bounding `kind`, searched on [-10, 10].

    The lower side returns the supremum of admissible lower-bound parameters,
    the upper side the infimum of admissible upper-bound parameters.  The
    main path bisects the c2 and omega checks alone and confirms their switch
    point with one grid check: the families increase in p, so a bound holding
    there holds short of it, and past it a limit fails.  Otherwise (no switch
    in the window, or a witness at it: an interior failure) the fallback
    bisects the full predicate, limits then grid, and is only as sharp as the
    grid, whose last point is t = GRID_HI.
    """
    lo, hi = -10.0, 10.0
    lower = side == "lower"
    hold_at, fail_at = (lo, hi) if lower else (hi, lo)
    limits = _limits_check(kind, family, side)
    closed = _closed_form(kind, family, side)
    if limits(hold_at) and not limits(fail_at):
        numeric = _bisect(lambda p: limits(p) == lower, lo, hi, 60)
        if find_witness(kind, family, numeric, side) is None:
            return EndpointReport(kind, family, side, closed, numeric, "limits")
    predicate = _bound_predicate(kind, family, side)
    if not predicate(hold_at):
        raise RuntimeError("predicate never holds within search window [-10, 10]")
    if predicate(fail_at):
        raise RuntimeError("predicate always holds within search window [-10, 10]")
    numeric = _bisect(lambda p: predicate(p) == lower, lo, hi, 60)
    return EndpointReport(kind, family, side, closed, numeric, "grid")


def find_witness(kind: MeanKind, family: str, param: float, side: str) -> Optional[float]:
    """A t where the claimed bound with this parameter fails, or None.

    side='lower' tests the claim "family(param) < kind for all t"; a witness
    is a grid point violating it by more than the tie tolerance.  Absence of
    a witness is a valid result (the grid covers t in [1e-6, 50] only).
    """
    _check_family_and_side(family, side)
    gap = log_mean_normalized(MeanKind(family, param), _GRID) - _mean_log_on_grid(kind)
    if side == "upper":
        gap = -gap
    worst = int(np.argmax(gap))
    if gap[worst] <= TIE:
        return None
    return float(_GRID[worst])


# --- closed-form endpoint catalog ------------------------------------------
#
# (lower, upper) endpoints, evaluated at import from their expressions, never typed as decimals.

_LOG_PI = math.log(math.pi)

_CLOSED_FORMS: dict = {
    ("log", "power"): (0.0, 1.0 / 3.0),
    ("identric", "power"): (2.0 / 3.0, LOG2),
    ("first-seiffert", "power"): (LOG2 / _LOG_PI, 2.0 / 3.0),
    ("second-seiffert", "power"): (LOG2 / (_LOG_PI - LOG2), 5.0 / 3.0),
    ("toader", "power"): (1.5, LOG2 / (_LOG_PI - LOG2)),
    ("neuman-sandor", "power"): (LOG2 / math.log(2.0 * math.log(1.0 + math.sqrt(2.0))), 4.0 / 3.0),
    ("yang", "power"): (2.0 * LOG2 / (2.0 * _LOG_PI - LOG2), 4.0 / 3.0),
    ("sandor", "power"): (1.0 / 3.0, LOG2 / (1.0 + LOG2)),
    ("sandor-yang", "power"): (sharp_lower_exponent(), UPPER_EXPONENT),
    ("second-seiffert", "lehmer"): (0.0, 1.0 / 3.0),
}

# the surveyed means: every power row of the catalog but the paper's own mean
LITERATURE_MEANS = tuple(m for m, fam in _CLOSED_FORMS if fam == "power" and m != "sandor-yang")


def _closed_form(kind: MeanKind, family: str, side: str) -> Optional[float]:
    entry = _CLOSED_FORMS.get((kind.tag, family))
    return None if entry is None else entry[side == "upper"]


def literature_endpoints() -> list[EndpointReport]:
    """Recover both power-mean endpoints for each surveyed mean."""
    return [best_exponent(MeanKind(m), "power", side) for m in LITERATURE_MEANS for side in SIDES]


# --- the peak of the log gap ------------------------------------------------


def gap_peak(p: float) -> float:
    """The unique t0 > 0 with slope_kernel(t0, p) = 0, for p in [1 + 1e-12, 4/3).

    log_gap(., p) increases up to t0 and decreases beyond it, so t0 is the
    argmax of the gap.  Outside (1, 4/3) the kernel never changes sign and
    no peak exists.  As p falls to 1, t0 ~ 0.28/(p - 1) grows, and
    slope_kernel, built from logs of size t, is about t ulp off: t0 stays
    within 5e-5 (relative) of the mpmath root down to p = 1 + 1e-12, where
    t0 = 2.8e11, and below that p raises ValueError.
    """
    p = float(p)
    if not 1.0 + 1e-12 <= p < UPPER_EXPONENT:
        raise ValueError("parameter outside [1 + 1e-12, 4/3)")
    # from p = 1 + 1e-12 on, hi stops by 2^39, where the kernel is off by under 1e-4
    hi = 1.0
    while slope_kernel(hi, p) > 0:
        hi *= 2.0
    lo = hi / 2.0 if hi > 1.0 else 1e-3
    # t0 ~ 2.3 sqrt(4/3 - p) falls below 1e-3 as p nears 4/3
    while slope_kernel(lo, p) <= 0:
        lo /= 2.0
        if lo < 1e-12:
            raise RuntimeError("failed to bracket the kernel root")
    return _bisect(lambda t: slope_kernel(t, p) > 0, lo, hi, 120)


def peak_ratio(p: float) -> float:
    """sup over pairs of (sandor-yang / M_p) = exp(log_gap at the peak)."""
    return math.exp(log_gap(gap_peak(p), p))


# --- chain and squeeze verification -----------------------------------------

_CHAIN_EXPONENTS = tuple(map(float, CHAIN_EXPONENTS))
# between its eleven members: lambda_inf*max, the scaled powers, B, the powers, max
_CHAIN_LINKS = 2 * len(_CHAIN_EXPONENTS) + 2


def _chain_rows(t):
    """(label, expression, log value at t >= 0) of the eleven chain members, ascending.

    They come one at a time; each power profile serves its scaled and its unscaled member.
    """
    log_lam_inf = math.log(sharp_factor(math.inf))
    yield "lambda_inf*max", "exp(pi/4-1)/sqrt(2) * max(a,b)", log_lam_inf + t
    profiles = {}
    for p in reversed(_CHAIN_EXPONENTS):
        g = f"{p:g}"
        profiles[g] = _lognorm_power(p, t)
        expr = f"exp(pi/4-1)*2^(1/({g})-1/2) * power-mean({g})"
        yield f"lambda_{g}*power:{g}", expr, math.log(sharp_factor(p)) + profiles[g]
    sy_expr = "quadratic-mean * exp(arithmetic/second-seiffert - 1)"
    yield "sandor-yang", sy_expr, _lognorm_sandor_yang(t)
    for g, profile in reversed(profiles.items()):
        yield f"power:{g}", f"power-mean({g})", profile
    yield "max", "max(a,b)", t


def _chain_links(t):
    """The chain's adjacent log differences at t, lowest link first, one at a time."""
    rows = _chain_rows(t)
    _, _, below = next(rows)
    for _, _, above in rows:
        yield above - below
        below = above


def _checked_t(t) -> np.ndarray:
    """t as a float array, 0-d for a scalar; raises unless every element is finite and >= 0."""
    try:
        arr = np.asarray(t, dtype=float)
    except OverflowError:  # an int or a Fraction past DBL_MAX, which no float holds
        arr = np.array(math.inf)
    if not (arr.min(initial=math.inf) >= 0.0 and arr.max(initial=0.0) < math.inf):
        raise ValueError("t must be nonnegative and finite")
    return arr


def chain_margins(t) -> np.ndarray:
    """Adjacent log differences of the chain at finite t >= 0, shape (10,) + t's (at least 1-d).

    The chain holds at t iff all ten are >= -(TIE + 2 ulp(t)).
    """
    arr = np.atleast_1d(_checked_t(t))
    out = np.empty((_CHAIN_LINKS, arr.size))
    # each row of out is contiguous, so _blocks cuts it into writable views
    for ts, *links in _blocks(arr.ravel(), *out):
        for link, margin in zip(links, _chain_links(ts)):
            link[...] = margin
    return out.reshape((_CHAIN_LINKS,) + arr.shape)


def chain_table(a: float, b: float) -> list[tuple[str, str, float]]:
    """(label, expression, value) chain rows, ascending up to 2 t ulp; the last is max(a, b)."""
    t = half_log_ratio(a, b)
    if t == 0.0:
        raise ValueError("chain table requires distinct arguments")
    a, b = float(a), float(b)
    *members, (label, expr, _) = _chain_rows(t)
    # each value from its log value through eval_mean's rows: an unscaled member is eval_mean's
    rows = [
        (lbl, ex, float(_piecewise(t, _EVAL_ROWS, a, b, lambda _: v))) for lbl, ex, v in members
    ]
    # the top member is max(a, b) itself, which sqrt(ab) e^t misses by up to 1e-15
    return rows + [(label, expr, max(a, b))]


def squeeze_margins(t):
    """(log B - log A, log Q - log B) on the normalized pair, sign-exact.

    Both margins are evaluated in cancellation-free form — log Q - log A =
    log1p(tanh^2 t)/2 exactly, and the remaining piece is the arctan(tanh)
    ratio series — so their positivity is meaningful down to t ~ 1e-150.  t
    must be finite and >= 0; a scalar t gives two scalars.
    """
    y = np.tanh(_checked_t(t))
    ratio = _piecewise(y, _ATAN_RATIO_ROWS)  # arctan(y)/y - 1
    return 0.5 * np.log1p(_square(y)) + ratio, -ratio


def _holds_at_every_pair(a, b, name: str, holds: Callable[[np.ndarray], bool]) -> bool:
    """True iff holds(t) at the half log ratio t of every pair of the broadcast a, b."""
    # as given, not as numpy strings: each block's half_log_ratio converts and checks them
    a, b = (x if type(x) is np.ndarray else np.asarray(x, dtype=object) for x in (a, b))
    ok = True
    for a_block, b_block in _blocks(a, b):
        t = half_log_ratio(a_block, b_block)
        if np.any(t == 0.0):  # exactly the equal pairs
            raise ValueError(f"{name} verification requires distinct arguments")
        # no early exit: an equal or invalid pair in a later block must still raise
        ok = holds(t) and ok
    return ok


def _chain_holds(t) -> bool:
    """True iff every link of the chain holds at every t, checked link by link."""
    # the scaled members share one asymptote, so at large t their margins are
    # rounding noise of the log values, about an ulp of t (1.1e-13 at 709)
    floor = -(TIE + 2 * np.spacing(t))
    return all(np.all(margin >= floor) for margin in _chain_links(t))


def verify_chain(a, b) -> bool:
    """The full scaled-power-mean chain at every pair of a and b.

    a and b are positive numbers or arrays that broadcast together.  True iff
    the chain holds at every pair; an equal pair or one outside the domain raises ValueError.
    """
    return _holds_at_every_pair(a, b, "chain", _chain_holds)


def verify_squeeze(a, b) -> bool:
    """Strict arithmetic < sandor-yang < quadratic at every pair, taking a, b as verify_chain."""
    return _holds_at_every_pair(
        a, b, "squeeze", lambda t: all(bool(np.all(m > 0)) for m in squeeze_margins(t))
    )


# --- second-seiffert versus lehmer table -------------------------------------


def verify_seiffert_lehmer() -> dict:
    """Limits and grid inequalities tying second-seiffert to the lehmer family.

    Confirms the large-t ratios T/L_{1/3} -> 2/pi and T/L_0 -> 4/pi at t = 40,
    the grid bounds (2/pi) L_{1/3} < T < (4/pi) L_0, the power-mean bound
    (2^{8/5}/pi) M_{5/3} < T, and the interlacing
    (2^{8/5}/pi) M_{5/3} > (2/pi) L_{1/3}.
    """
    two_pi, four_pi, c53 = 2.0 / math.pi, 4.0 / math.pi, 2.0 ** (8.0 / 5.0) / math.pi
    seiffert = MeanKind("second-seiffert")
    l_third, l_zero = MeanKind.lehmer(1.0 / 3.0), MeanKind.lehmer(0.0)
    m_53 = MeanKind.power(5.0 / 3.0)

    results = {}
    t40 = log_mean_normalized(seiffert, 40.0)
    for name, lehmer, limit in (("third", l_third, two_pi), ("zero", l_zero, four_pi)):
        ratio = math.exp(t40 - log_mean_normalized(lehmer, 40.0))
        results[f"limit_{name}"] = ratio
        results[f"limit_{name}_ok"] = abs(ratio - limit) <= 1e-6
    # (key, c, lower mean, d, upper mean): c * lower <= d * upper on the grid
    for key, c, lower, d, upper in (
        ("lower_grid_ok", two_pi, l_third, 1.0, seiffert),
        ("upper_grid_ok", 1.0, seiffert, four_pi, l_zero),
        ("power_53_ok", c53, m_53, 1.0, seiffert),
        ("interlace_ok", two_pi, l_third, c53, m_53),
    ):
        low = math.log(c) + _mean_log_on_grid(lower)
        results[key] = bool(np.all(low <= math.log(d) + _mean_log_on_grid(upper) + TIE))
    results["ok"] = all(v for k, v in results.items() if k.endswith("_ok"))
    return results


# --- constants table ----------------------------------------------------------


def constants_table() -> SharpConstantTable:
    """All named constants with their defining expressions, evaluated now."""
    e_base = "exp(pi/4 - 1)"
    entries = (
        ("p0", "4*log(2)/(4 + 2*log(2) - pi)", sharp_lower_exponent()),
        ("lambda_inf", f"{e_base}/sqrt(2)", sharp_factor(math.inf)),
        ("lambda_2", e_base, sharp_factor(2.0)),
        ("lambda_3_2", f"2^(1/6)*{e_base}", sharp_factor(1.5)),
        ("lambda_4_3", f"2^(1/4)*{e_base}", sharp_factor(4.0 / 3.0)),
        (
            "peak_ratio_p0",
            "exp(log_gap(gap_peak(p0), p0))",
            peak_ratio(sharp_lower_exponent()),
        ),
        ("two_over_pi", "2/pi", 2.0 / math.pi),
        ("four_over_pi", "4/pi", 4.0 / math.pi),
        ("two_pow_8_5_over_pi", "2^(8/5)/pi", 2.0 ** (8.0 / 5.0) / math.pi),
    )
    return SharpConstantTable(entries=entries)
