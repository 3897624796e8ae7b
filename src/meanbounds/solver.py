"""Sharp-bound solving and verification.

Every comparison "family mean with parameter q versus target mean m" in this
library fails, when it fails, either at t -> 0+ (where log-mean differences
behave like (c2_family - c2_mean) t^2) or at t -> infinity (where they tend
to the difference of growth offsets).  The universal quantifier over t is
therefore implemented as a dense log grid on [1e-6, 50] plus those two
analytic limit checks; bisection over the parameter then recovers sharp
endpoints to well below ENDPOINT_TOLERANCE (1e-3).

The module also carries the closed-form endpoint catalog used as
cross-check targets, the sharp multiplicative factors for the sandor-yang
mean, and the verification routines for its bound chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .kernels import log_gap, slope_kernel
from .means import (
    LOG2,
    MeanKind,
    growth_offset,
    half_log_ratio,
    log_mean_normalized,
    quadratic_coefficient,
)
from .numerics import _bisect, atan_tanh_ratio_m1

# Grid used for "for all t" checks, per the solver design: 1e4 log-spaced
# points on [1e-6, 50].  Values within TIE of equality count as holding;
# the analytic limit checks get a small slack so exact endpoint parameters
# (where the limits bind with equality) are admitted.
GRID_POINTS = 10_000
GRID_LO, GRID_HI = 1e-6, 50.0
TIE = 1e-13
_LIMIT_SLACK = 1e-9

# Agreement with the closed form that the `endpoint` command accepts; grid
# resolution, not the bisection width, sets it.
ENDPOINT_TOLERANCE = 1e-3

UPPER_EXPONENT = 4.0 / 3.0

FAMILIES = ("power", "lehmer")
SIDES = ("lower", "upper")


def sharp_lower_exponent() -> float:
    """4 log2 / (4 + 2 log2 - pi): the largest p with M_p below sandor-yang."""
    return 4.0 * LOG2 / (4.0 + 2.0 * LOG2 - math.pi)


def sharp_factor(p: float) -> float:
    """exp(pi/4 - 1) * 2^(1/p - 1/2): best c with c*M_p < sandor-yang, p >= 4/3."""
    if p <= 0:
        raise ValueError("sharp factor requires a positive exponent")
    return math.exp(math.pi / 4.0 - 1.0) * 2.0 ** (1.0 / p - 0.5)


@dataclass(frozen=True)
class SharpConstants:
    """The solved constants of the power-mean comparison."""

    p0: float
    q_upper: float = UPPER_EXPONENT


def sharp_constants() -> SharpConstants:
    return SharpConstants(p0=sharp_lower_exponent())


@dataclass(frozen=True)
class EndpointReport:
    """Outcome of one sharp-endpoint computation."""

    mean: MeanKind
    family: str
    side: str
    closed_form: Optional[float]
    numeric: float


@dataclass(frozen=True)
class SharpConstantTable:
    """(label, closed-form expression, value) rows; values computed at run time."""

    entries: tuple


@lru_cache(maxsize=1)
def _grid() -> np.ndarray:
    return np.logspace(math.log10(GRID_LO), math.log10(GRID_HI), GRID_POINTS)


@lru_cache(maxsize=None)
def _mean_log_on_grid(kind: MeanKind) -> np.ndarray:
    return log_mean_normalized(kind, _grid())


def _family_kind(family: str, p: float) -> MeanKind:
    if family == "power":
        return MeanKind.power(p)
    if family == "lehmer":
        return MeanKind.lehmer(p)
    raise ValueError(f"unknown mean family '{family}'")


def _bound_predicate(kind: MeanKind, family: str, side: str) -> Callable[[float], bool]:
    """True iff the family member with parameter p bounds `kind` on the given side."""
    if side not in SIDES:
        raise ValueError(f"unknown side '{side}'")
    mean_log = _mean_log_on_grid(kind)
    mean_c2 = quadratic_coefficient(kind)
    mean_om = growth_offset(kind)
    grid = _grid()
    sign = 1.0 if side == "lower" else -1.0

    def predicate(p: float) -> bool:
        fam = _family_kind(family, p)
        if sign * (quadratic_coefficient(fam) - mean_c2) > _LIMIT_SLACK:
            return False
        if sign * (growth_offset(fam) - mean_om) > _LIMIT_SLACK:
            return False
        fam_log = log_mean_normalized(fam, grid)
        return bool(np.all(sign * (fam_log - mean_log) <= TIE))

    return predicate


def best_exponent(kind: MeanKind, family: str, side: str) -> EndpointReport:
    """Sharp family parameter for bounding `kind`, by predicate bisection.

    The lower side returns the supremum of admissible lower-bound parameters,
    the upper side the infimum of admissible upper-bound parameters, searched
    on [-10, 10] with 60 bisection steps.
    """
    predicate = _bound_predicate(kind, family, side)
    lo, hi = -10.0, 10.0
    hold_at, fail_at = (lo, hi) if side == "lower" else (hi, lo)
    if not predicate(hold_at):
        raise RuntimeError("predicate never holds within search window [-10, 10]")
    if predicate(fail_at):
        raise RuntimeError("predicate always holds within search window [-10, 10]")
    lower = side == "lower"
    numeric = _bisect(lambda p: predicate(p) == lower, lo, hi, 60)
    closed = _closed_form(kind, family, side)
    return EndpointReport(kind, family, side, closed, numeric)


def find_witness(kind: MeanKind, family: str, param: float, side: str) -> Optional[float]:
    """A t where the claimed bound with this parameter fails, or None.

    side='lower' tests the claim "family(param) < kind for all t"; a witness
    is a grid point violating it by more than the tie tolerance.  Absence of
    a witness is a valid result (the grid covers t in [1e-6, 50] only).
    """
    fam = _family_kind(family, param)
    grid = _grid()
    gap = log_mean_normalized(fam, grid) - _mean_log_on_grid(kind)
    if side == "upper":
        gap = -gap
    elif side != "lower":
        raise ValueError(f"unknown side '{side}'")
    worst = int(np.argmax(gap))
    if gap[worst] <= TIE:
        return None
    return float(grid[worst])


# --- closed-form endpoint catalog ------------------------------------------
#
# Expressions are evaluated when asked for, never stored as rounded decimals.

_LOG_PI = math.log(math.pi)

_CLOSED_FORMS: dict = {
    ("log", "power"): (lambda: 0.0, lambda: 1.0 / 3.0),
    ("identric", "power"): (lambda: 2.0 / 3.0, lambda: LOG2),
    ("first-seiffert", "power"): (lambda: LOG2 / _LOG_PI, lambda: 2.0 / 3.0),
    ("second-seiffert", "power"): (lambda: LOG2 / (_LOG_PI - LOG2), lambda: 5.0 / 3.0),
    ("toader", "power"): (lambda: 1.5, lambda: LOG2 / (_LOG_PI - LOG2)),
    (
        "neuman-sandor",
        "power",
    ): (lambda: LOG2 / math.log(2.0 * math.log(1.0 + math.sqrt(2.0))), lambda: 4.0 / 3.0),
    ("yang", "power"): (lambda: 2.0 * LOG2 / (2.0 * _LOG_PI - LOG2), lambda: 4.0 / 3.0),
    ("sandor", "power"): (lambda: 1.0 / 3.0, lambda: LOG2 / (1.0 + LOG2)),
    ("sandor-yang", "power"): (sharp_lower_exponent, lambda: UPPER_EXPONENT),
    ("second-seiffert", "lehmer"): (lambda: 0.0, lambda: 1.0 / 3.0),
}

LITERATURE_MEANS = (
    "log",
    "identric",
    "first-seiffert",
    "second-seiffert",
    "toader",
    "neuman-sandor",
    "yang",
    "sandor",
)


def _closed_form(kind: MeanKind, family: str, side: str) -> Optional[float]:
    entry = _CLOSED_FORMS.get((kind.tag, family))
    if entry is None:
        return None
    return entry[0]() if side == "lower" else entry[1]()


def literature_endpoints() -> list[EndpointReport]:
    """Recover both power-mean endpoints for each surveyed mean."""
    reports = []
    for tag in LITERATURE_MEANS:
        for side in SIDES:
            reports.append(best_exponent(MeanKind(tag), "power", side))
    return reports


# --- the peak of the log gap ------------------------------------------------


def gap_peak(p: float) -> float:
    """The unique t0 > 0 with slope_kernel(t0, p) = 0, for p in (1, 4/3).

    log_gap(., p) increases up to t0 and decreases beyond it, so t0 is the
    argmax of the gap.  Outside (1, 4/3) the kernel never changes sign and
    no peak exists.
    """
    if not 1.0 < p < UPPER_EXPONENT:
        raise ValueError("parameter outside (1, 4/3)")
    hi = 1.0
    while slope_kernel(hi, p) > 0:
        hi *= 2.0
        if hi > 1e7:
            raise RuntimeError("failed to bracket the kernel root")
    lo = hi / 2.0 if hi > 1.0 else 1e-3
    return _bisect(lambda t: slope_kernel(t, p) > 0, lo, hi, 120)


def peak_ratio(p: float) -> float:
    """sup over pairs of (sandor-yang / M_p) = exp(log_gap at the peak)."""
    return math.exp(log_gap(gap_peak(p), p))


# --- chain and squeeze verification -----------------------------------------

_CHAIN_EXPONENTS = (4.0 / 3.0, 1.5, 2.0, 3.0)


def _chain_members(t: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """The eleven-term scaled/plain power-mean chain around sandor-yang, as logs."""
    members = [("lambda_inf*max", math.log(sharp_factor(math.inf)) + t)]
    for p in _CHAIN_EXPONENTS[::-1]:
        members.append(
            (
                f"lambda_{p:g}*power:{p:g}",
                math.log(sharp_factor(p)) + log_mean_normalized(MeanKind.power(p), t),
            )
        )
    members.append(("sandor-yang", log_mean_normalized(MeanKind("sandor-yang"), t)))
    for p in _CHAIN_EXPONENTS:
        members.append((f"power:{p:g}", log_mean_normalized(MeanKind.power(p), t)))
    members.append(("max", t.copy()))
    return members


def chain_margins(t) -> np.ndarray:
    """Adjacent log differences of the chain; the chain holds iff all >= -TIE."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    logs = np.stack([v for _, v in _chain_members(arr)])
    return np.diff(logs, axis=0)


def verify_chain(a: float, b: float) -> bool:
    """Check the full scaled-power-mean chain at one argument pair."""
    if a == b:
        raise ValueError("chain verification requires distinct arguments")
    return bool(np.all(chain_margins(half_log_ratio(a, b)) >= -TIE))


def chain_table(a: float, b: float) -> list[tuple[str, str, float]]:
    """(label, expression, value) rows of the chain, in ascending order."""
    if a == b:
        raise ValueError("chain table requires distinct arguments")
    t = np.atleast_1d(half_log_ratio(a, b))
    scale = math.sqrt(a) * math.sqrt(b)
    rows = []
    for label, logval in _chain_members(t):
        if label.startswith("lambda_inf"):
            expr = "exp(pi/4-1)/sqrt(2) * max(a,b)"
        elif label.startswith("lambda_"):
            p = label.split("*")[0].removeprefix("lambda_")
            expr = f"exp(pi/4-1)*2^(1/({p})-1/2) * power-mean({p})"
        elif label == "max":
            expr = "max(a,b)"
        elif label.startswith("power:"):
            expr = f"power-mean({label.removeprefix('power:')})"
        else:
            expr = "quadratic-mean * exp(arithmetic/second-seiffert - 1)"
        rows.append((label, expr, scale * math.exp(float(logval[0]))))
    return rows


def squeeze_margins(t):
    """(log B - log A, log Q - log B) on the normalized pair, sign-exact.

    Both margins are evaluated in cancellation-free form — log Q - log A =
    log1p(tanh^2 t)/2 exactly, and the remaining piece is the arctan(tanh)
    ratio series — so their positivity is meaningful down to t ~ 1e-150.
    """
    arr = np.asarray(t, dtype=float)
    ratio = atan_tanh_ratio_m1(arr)
    low = 0.5 * np.log1p(np.tanh(arr) ** 2) + ratio
    high = -ratio
    return low, high


def verify_squeeze(a: float, b: float) -> bool:
    """Strict arithmetic < sandor-yang < quadratic check for one pair."""
    if a == b:
        raise ValueError("squeeze verification requires distinct arguments")
    low, high = squeeze_margins(half_log_ratio(a, b))
    return bool(low > 0) and bool(high > 0)


# --- second-seiffert versus lehmer table -------------------------------------


def verify_seiffert_lehmer() -> dict:
    """Limits and grid inequalities tying second-seiffert to the lehmer family.

    Confirms the large-t ratios T/L_{1/3} -> 2/pi and T/L_0 -> 4/pi at t = 40,
    the grid bounds (2/pi) L_{1/3} < T < (4/pi) L_0, the power-mean bound
    (2^{8/5}/pi) M_{5/3} < T, and the interlacing
    (2^{8/5}/pi) M_{5/3} > (2/pi) L_{1/3}.
    """
    grid = _grid()
    t_log = _mean_log_on_grid(MeanKind("second-seiffert"))
    l_third = log_mean_normalized(MeanKind.lehmer(1.0 / 3.0), grid)
    l_zero = log_mean_normalized(MeanKind.lehmer(0.0), grid)
    m_53 = log_mean_normalized(MeanKind.power(5.0 / 3.0), grid)

    at40 = 40.0
    ratio_third = math.exp(
        log_mean_normalized(MeanKind("second-seiffert"), at40)
        - log_mean_normalized(MeanKind.lehmer(1.0 / 3.0), at40)
    )
    ratio_zero = math.exp(
        log_mean_normalized(MeanKind("second-seiffert"), at40)
        - log_mean_normalized(MeanKind.lehmer(0.0), at40)
    )

    two_pi = 2.0 / math.pi
    four_pi = 4.0 / math.pi
    c53 = 2.0 ** (8.0 / 5.0) / math.pi
    results = {
        "limit_third": ratio_third,
        "limit_zero": ratio_zero,
        "limit_third_ok": abs(ratio_third - two_pi) <= 1e-6,
        "limit_zero_ok": abs(ratio_zero - four_pi) <= 1e-6,
        "lower_grid_ok": bool(np.all(math.log(two_pi) + l_third <= t_log + TIE)),
        "upper_grid_ok": bool(np.all(t_log <= math.log(four_pi) + l_zero + TIE)),
        "power_53_ok": bool(np.all(math.log(c53) + m_53 <= t_log + TIE)),
        "interlace_ok": bool(np.all(math.log(two_pi) + l_third <= math.log(c53) + m_53 + TIE)),
    }
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
