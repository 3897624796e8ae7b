"""The power-mean bounds of the sandor-yang mean B, certified in exact arithmetic.

M_p < B < M_q for all a != b iff p <= p0 = 4 log2/(4 + 2 log2 - pi) and
q >= 4/3.  With F = log_gap, f1 = slope_kernel and f2 = curvature_kernel,
F' = f1 / sinh^2 t, f1' = f2(2t, p) / (4 cosh 2t cosh^2(pt)), and f2(x, p) is
the sum of u_n x^(2n)/(2n)! with u_n = curvature_coefficient(n, p).  A power
series whose coefficients change sign once has exactly one positive root, so
the signs of all u_n fix the shape of f1 and so of F.  For 1 < p <= 3,
u_1 = 8 - 6p and, as (2-p)^(2n) <= 1 and 4^n >= 16, u_n < 17 - 14p for every
n >= 2: two rational tests decide all n at once, on Fractions, with pi and
log 2 entering through rational enclosures only.
"""

from __future__ import annotations

from fractions import Fraction

from .kernels import curvature_coefficient

PI_BOUNDS = (Fraction(333, 106), Fraction(355, 113))
LOG2_BOUNDS = (Fraction(6931, 10**4), Fraction(6932, 10**4))
CHAIN_EXPONENTS = (Fraction(4, 3), Fraction(3, 2), Fraction(2), Fraction(3))
_BAND = (Fraction(17, 14), Fraction(4, 3))  # where 8 - 6p > 0 > 17 - 14p


def _sign_pattern(p) -> str | None:
    """"+-" if u_1 > 0 > u_n for all n >= 2, "-" if u_n <= 0 for all n, else None."""
    p = Fraction(p)
    if not 1 < p <= 3:
        return None
    if curvature_coefficient(1, p) <= 0:
        return "-"
    return "+-" if 17 - 14 * p < 0 else None


def power_bound_certificate() -> tuple:
    """(step, statement, holds) rows proving the theorem, each holds decided on Fractions."""
    corners = tuple(zip(PI_BOUNDS, LOG2_BOUNDS))
    # p0 increases in pi and in log 2, so the two corners bracket it
    lo, hi = bracket = [4 * log2 / (4 + 2 * log2 - pi) for pi, log2 in corners]
    # F(inf, p) = pi/4 - 1 - log2/2 + log2/p decreases in p and vanishes at p0
    p0_root = all(pi / 4 - 1 - l2 / 2 + l2 / p0 == 0 for (pi, l2), p0 in zip(corners, bracket))
    rows = [
        ("p0 bracket", f"{lo} < p0 < {hi}, inside (17/14, 4/3)", _BAND[0] < lo < hi < _BAND[1]),
        (
            "sign change at p0",
            "u_1 > 0 > u_n for n >= 2 at both ends: f2 changes sign once",
            _sign_pattern(lo) == _sign_pattern(hi) == "+-",
        ),
        (
            "lower bound p0",
            "f1 rises from 0, then falls to 1/2 - pi/4 < 0; F rises, then falls to F(inf, p0) = 0:"
            " M_p <= M_p0 < B for p <= p0",
            Fraction(1, 2) - PI_BOUNDS[0] / 4 < 0 and p0_root,
        ),
    ]
    for q in CHAIN_EXPONENTS:
        statement = f"u_n <= 0 for all n: f1 < 0, F falls from 0 to F(inf, {q}) = log lambda_{q}:"
        statement += f" lambda_{q} M_{q} < B < M_{q}, sharp"
        rows.append((f"upper bound {q}", statement, _sign_pattern(q) == "-"))
    statement = "c2(B) = 1 - 1/3 = 2/3 = (4/3)/2 > q/2 = c2(M_q): B > M_q as t -> 0, 4/3 is least"
    rows.append(("q < 4/3 fails", statement, 1 - Fraction(1, 3) == Fraction(4, 3) / 2))
    statement = "F(inf, p) = log2 (1/p - 1/p0) < 0 as log 2 > 0: B < M_p as t -> inf"
    rows.append(("p > p0 fails", statement, LOG2_BOUNDS[0] > 0 and p0_root))
    return tuple(rows)
