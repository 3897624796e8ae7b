"""Acceptance gate: twelve numbered criteria, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line per
criterion while the suite executes; without -s pytest shows the captured
line for any failing criterion.
"""

import math
from fractions import Fraction

import numpy as np

from meanbounds import (
    MeanKind,
    best_exponent,
    chain_margins,
    curvature_coefficient,
    curvature_kernel,
    eval_mean,
    find_witness,
    gap_peak,
    literature_endpoints,
    log_gap,
    log_gap_slope,
    peak_ratio,
    sharp_factor,
    sharp_lower_exponent,
    slope_kernel,
    squeeze_margins,
    verify_seiffert_lehmer,
)
from meanbounds.solver import TIE

from oracles import log_gap_residual

SEED = 20260814


def _report(number: int, description: str, ok: bool) -> None:
    print(f"\nCRITERION {number:02d} {'PASS' if ok else 'FAIL'} - {description}", flush=True)
    assert ok, f"criterion {number:02d} failed: {description}"


def test_criterion_01_lower_power_endpoint():
    report = best_exponent(MeanKind("sandor-yang"), "power", "lower")
    closed = 4.0 * math.log(2.0) / (4.0 + 2.0 * math.log(2.0) - math.pi)
    ok = (
        abs(report.numeric - closed) <= 1e-3
        and abs(closed - 1.2351) <= 1e-4
        and report.closed_form == closed
    )
    _report(1, "lower power endpoint recovered at 1.2351 within 1e-3 of closed form", ok)


def test_criterion_02_upper_power_endpoint():
    report = best_exponent(MeanKind("sandor-yang"), "power", "upper")
    ok = abs(report.numeric - 4.0 / 3.0) <= 1e-3 and report.closed_form == 4.0 / 3.0
    _report(2, "upper power endpoint recovered at 4/3 within 1e-3", ok)


def test_criterion_03_sharp_factor_table():
    printed = {
        math.inf: 0.5705,
        2.0: 0.8068,
        1.5: 0.9056,
        4.0 / 3.0: 0.9595,
    }
    ok = all(abs(sharp_factor(p) - value) < 1e-4 for p, value in printed.items())
    _report(3, "sharp factors match 0.5705 / 0.8068 / 0.9056 / 0.9595 to 4 decimals", ok)


def test_criterion_04_peak_constant():
    p0 = sharp_lower_exponent()
    t0 = gap_peak(p0)
    ok = abs(slope_kernel(t0, p0)) <= 1e-13 and abs(peak_ratio(p0) - 1.012) <= 1e-3
    _report(4, "peak ratio e^F(t0,p0) = 1.012 within 1e-3 with |f1(t0,p0)| <= 1e-13", ok)


def test_criterion_05_identity_suite():
    ts = np.logspace(-3, math.log10(20.0), 100)
    ps = np.concatenate([np.linspace(-2.0, -0.25, 8), np.linspace(0.25, 3.0, 12)])
    worst_residual = 0.0
    worst_fd = 0.0
    for p in ps:
        p = float(p)
        for t in ts:
            t = float(t)
            residual = log_gap_residual(math.exp(-t), math.exp(t), p)
            worst_residual = max(worst_residual, residual)
            h = 1e-5 * max(1.0, t)
            fd = (log_gap(t + h, p) - log_gap(t - h, p)) / (2.0 * h)
            slope = log_gap_slope(t, p)
            excess = abs(fd - slope) - (1e-6 * abs(slope) + 1e-9)
            worst_fd = max(worst_fd, excess)
    ok = worst_residual <= 1e-11 and worst_fd <= 0.0
    _report(
        5,
        "identity |log B - log M_p - F| <= 1e-11 and finite-difference slope "
        "within 1e-6 relative on a 100x20 grid",
        ok,
    )


def test_criterion_06_series_suite():
    ok_series = True
    for p in (0.5, 1.0, 1.2, 4.0 / 3.0, 2.0):
        for t in np.linspace(0.3, 5.0, 25):
            t = float(t)
            total = 0.0
            for n in range(1, 60):
                term = curvature_coefficient(n, p) * t ** (2 * n) / math.factorial(2 * n)
                total += term
                if n > 4 and abs(term) < 1e-18 * max(1.0, abs(total)):
                    break
            closed = curvature_kernel(t, p)
            if abs(total - closed) > 1e-10 * max(abs(closed), 1e-30):
                ok_series = False
    ok_exact = curvature_coefficient(1, Fraction(4, 3)) == 0
    ok_decreasing = all(
        curvature_coefficient(n + 1, p) < curvature_coefficient(n, p)
        for p in (1.05, 1.1, 1.2, 1.3, 1.33)
        for n in range(1, 31)
    )
    ok = ok_series and ok_exact and ok_decreasing
    _report(
        6,
        "series matches closed-form kernel to 1e-10 relative for t <= 5, "
        "u1(4/3) = 0 exactly, and u_{n+1} < u_n for p in (1,4/3), n <= 30",
        ok,
    )


def test_criterion_07_arithmetic_quadratic_squeeze():
    rng = np.random.default_rng(SEED)
    t_lo = 0.5 * math.log1p(1e-10)
    t_hi = 0.5 * math.log(1e12)
    t = 10.0 ** rng.uniform(math.log10(t_lo), math.log10(t_hi), 100_000)
    t[0], t[-1] = t_lo, t_hi
    lower, upper = squeeze_margins(t)
    violations = int(np.count_nonzero(lower <= 0) + np.count_nonzero(upper <= 0))
    _report(
        7,
        "A < B < Q on 100000 random pairs with ratio up to 1e12 - "
        f"{violations} violations",
        violations == 0,
    )


def test_criterion_08_scaled_chain():
    rng = np.random.default_rng(SEED + 1)
    t = 10.0 ** rng.uniform(-9.0, math.log10(9.2), 10_000)
    margins = chain_margins(t)
    violations = int(np.count_nonzero(margins < -TIE))
    _report(
        8,
        f"eleven-member scaled bound chain on 10000 random pairs - {violations} violations",
        violations == 0,
    )


def test_criterion_09_lehmer_endpoints_and_limits():
    lower = best_exponent(MeanKind("second-seiffert"), "lehmer", "lower")
    upper = best_exponent(MeanKind("second-seiffert"), "lehmer", "upper")
    limits = verify_seiffert_lehmer()
    ok = (
        abs(lower.numeric - 0.0) <= 1e-3
        and abs(upper.numeric - 1.0 / 3.0) <= 1e-3
        and abs(limits["limit_third"] - 2.0 / math.pi) <= 1e-6
        and abs(limits["limit_zero"] - 4.0 / math.pi) <= 1e-6
    )
    _report(
        9,
        "lehmer endpoints (0, 1/3) within 1e-3 and limits 2/pi, 4/pi at t=40 within 1e-6",
        ok,
    )


def test_criterion_10_literature_catalog():
    reports = literature_endpoints()
    bad = [
        (r.mean.label(), r.side)
        for r in reports
        if r.closed_form is None or abs(r.numeric - r.closed_form) > 1e-3
    ]
    _report(
        10,
        "both power endpoints of the eight surveyed means within 1e-3 "
        f"({len(reports)} endpoints, {len(bad)} misses)",
        len(reports) == 16 and not bad,
    )


def test_criterion_11_witness_guarantees():
    p0 = sharp_lower_exponent()
    lower_witness = find_witness(MeanKind("sandor-yang"), "power", p0 + 0.01, "lower")
    upper_witness = find_witness(MeanKind("sandor-yang"), "power", 4.0 / 3.0 - 0.01, "upper")
    sharp_witness = find_witness(MeanKind("sandor-yang"), "power", 4.0 / 3.0, "upper")
    ok = (
        lower_witness is not None
        and lower_witness > 10.0
        and upper_witness is not None
        and upper_witness < 2.0
        and sharp_witness is None
    )
    _report(
        11,
        "witnesses found at p0+0.01 (large t) and 4/3-0.01 (small t), none at 4/3",
        ok,
    )


def test_criterion_12_property_sweeps():
    rng = np.random.default_rng(SEED + 2)
    kinds = [
        MeanKind(tag)
        for tag in (
            "harmonic",
            "geometric",
            "arithmetic",
            "quadratic",
            "log",
            "identric",
            "first-seiffert",
            "second-seiffert",
            "neuman-sandor",
            "yang",
            "sandor",
            "sandor-yang",
            "toader",
        )
    ] + [MeanKind.power(p) for p in (-2.0, 0.5, 1.5)] + [MeanKind.lehmer(0.5)]
    violations = 0

    for _ in range(30):
        a = float(10.0 ** rng.uniform(-3, 3))
        b = float(a * math.exp(rng.uniform(1e-3, 8)))
        for kind in kinds:
            m = eval_mean(kind, a, b)
            if not (min(a, b) < m < max(a, b)):
                violations += 1
            if eval_mean(kind, b, a) != m:
                violations += 1
            for lam in (1e-6, 1.0, 1e6):
                if abs(eval_mean(kind, lam * a, lam * b) - lam * m) > 1e-12 * lam * m:
                    violations += 1

    r_grid = np.arange(-4.0, 4.25, 0.25)
    for _ in range(10):
        a = float(10.0 ** rng.uniform(-2, 2))
        b = float(a * math.exp(rng.uniform(0.01, 6)))
        series = [eval_mean(MeanKind.power(float(r)), a, b) for r in r_grid]
        violations += sum(1 for x, y in zip(series, series[1:]) if not x < y)
        scaled = [
            math.log(2.0) / r + math.log(eval_mean(MeanKind.power(float(r)), a, b))
            for r in r_grid[r_grid > 0]
        ]
        violations += sum(1 for x, y in zip(scaled, scaled[1:]) if not x > y)
        mid_excess = [
            (x + z) / 2.0 - y for x, y, z in zip(scaled, scaled[1:], scaled[2:])
        ]
        violations += sum(1 for e in mid_excess if e < -1e-12)

    _report(
        12,
        "mean axioms, power-mean monotonicity, and scaled-power decrease/log-convexity "
        f"sweeps - {violations} violations",
        violations == 0,
    )
