"""The exact certificate of the power-mean bounds of the sandor-yang mean."""

import ast
import inspect
import time
from fractions import Fraction

import mpmath as mp
import pytest

from meanbounds import (
    MeanKind,
    curvature_coefficient,
    power_bound_certificate,
    quadratic_coefficient,
    series,
    sharp_lower_exponent,
)
from meanbounds.series import CHAIN_EXPONENTS, LOG2_BOUNDS, PI_BOUNDS, _sign_pattern


def test_every_row_holds_within_a_second():
    start = time.perf_counter()
    rows = power_bound_certificate()
    assert time.perf_counter() - start < 1.0
    assert len(rows) == 9
    for step, statement, holds in rows:
        assert isinstance(step, str) and isinstance(statement, str)
        assert holds is True, step


def test_the_bracket_of_p0_is_printed_exactly():
    rows = {step: statement for step, statement, _ in power_bound_certificate()}
    assert rows["p0 bracket"].startswith("734686/594843 < p0 < 391658/317079")
    assert Fraction(734686, 594843) < Fraction(sharp_lower_exponent()) < Fraction(391658, 317079)


def test_no_decision_uses_a_float():
    # the module has no float literal, no float() and no math or numpy, and
    # every bound it decides with is a Fraction
    tree = ast.parse(inspect.getsource(series))
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float))
        assert not (isinstance(node, ast.Name) and node.id == "float")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None)]
            assert not {"math", "numpy", "mpmath"} & set(names)
    for value in PI_BOUNDS + LOG2_BOUNDS + CHAIN_EXPONENTS:
        assert type(value) is Fraction


def test_rational_enclosures_of_pi_and_log2():
    with mp.workdps(50):
        assert mp.mpf(PI_BOUNDS[0].numerator) / PI_BOUNDS[0].denominator < mp.pi
        assert mp.pi < mp.mpf(PI_BOUNDS[1].numerator) / PI_BOUNDS[1].denominator
        assert mp.mpf(LOG2_BOUNDS[0].numerator) / LOG2_BOUNDS[0].denominator < mp.log(2)
        assert mp.log(2) < mp.mpf(LOG2_BOUNDS[1].numerator) / LOG2_BOUNDS[1].denominator


def test_sign_pattern_at_the_edges_of_the_band():
    # undecided below 17/14, where the bound 17 - 14p on u_n, n >= 2, is positive
    assert _sign_pattern(Fraction(6, 5)) is None
    assert _sign_pattern(Fraction(4, 3)) == "-"
    assert _sign_pattern(Fraction(17, 14)) is None
    assert _sign_pattern(1.25) == "+-"
    assert _sign_pattern(1) is None and _sign_pattern(Fraction(301, 100)) is None


@pytest.mark.parametrize("p", [1.215, 1.23, 1.236, 1.33] + list(CHAIN_EXPONENTS), ids=str)
def test_coefficients_have_the_promised_signs(p):
    pattern = _sign_pattern(p)
    assert pattern in ("+-", "-")
    u = [curvature_coefficient(n, Fraction(p)) for n in range(1, 60)]
    assert all(v < 0 for v in u[1:])
    assert u[0] > 0 if pattern == "+-" else u[0] <= 0


def test_library_c2_is_the_certified_one():
    assert quadratic_coefficient(MeanKind("sandor-yang")) == float(Fraction(2, 3))
    assert quadratic_coefficient(MeanKind.power(4.0 / 3.0)) == pytest.approx(2.0 / 3.0, rel=1e-15)
