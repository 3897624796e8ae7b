"""Endpoint solving, sharp constants, witnesses, chains, and verifications."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from oracles import mean_oracle, slope_root_oracle

from meanbounds import numerics, solver
from meanbounds import (
    MeanKind,
    best_exponent,
    chain_margins,
    chain_table,
    constants_table,
    find_witness,
    gap_peak,
    literature_endpoints,
    log_gap,
    log_mean_normalized,
    peak_ratio,
    sharp_factor,
    sharp_lower_exponent,
    slope_kernel,
    squeeze_margins,
    verify_chain,
    verify_seiffert_lehmer,
    verify_squeeze,
)
from meanbounds.solver import (
    _CLOSED_FORMS,
    LITERATURE_MEANS,
    _bound_predicate,
    _mean_log_on_grid,
)

# frozen from a 50-digit evaluation of the closed forms
P0 = 1.2351702290504027
T0 = 0.93728564929146117
PEAK_RATIO_P0 = 1.0127441286623299
LAMBDA_INF = 0.57053804380438324
LAMBDA_2 = 0.80686263939797384
LAMBDA_3_2 = 0.90567269092295665
LAMBDA_4_3 = 0.95952679160194518


# --- sharp constants ----------------------------------------------------------


def test_sharp_lower_exponent_closed_form():
    assert sharp_lower_exponent() == pytest.approx(P0, rel=1e-15)
    direct = 4.0 * math.log(2.0) / (4.0 + 2.0 * math.log(2.0) - math.pi)
    assert sharp_lower_exponent() == pytest.approx(direct, rel=1e-15)


def test_sharp_factor_frozen_values():
    assert sharp_factor(math.inf) == pytest.approx(LAMBDA_INF, rel=1e-15)
    assert sharp_factor(2.0) == pytest.approx(LAMBDA_2, rel=1e-15)
    assert sharp_factor(1.5) == pytest.approx(LAMBDA_3_2, rel=1e-15)
    assert sharp_factor(4.0 / 3.0) == pytest.approx(LAMBDA_4_3, rel=1e-15)


def test_sharp_factor_is_one_exactly_at_the_crossover_exponent():
    # p0 is defined by lambda(p0) = 1
    assert abs(sharp_factor(sharp_lower_exponent()) - 1.0) <= 1e-14


def test_sharp_factor_decreases_with_the_exponent():
    values = [sharp_factor(p) for p in (4.0 / 3.0, 1.5, 2.0, 5.0, math.inf)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_sharp_factor_domain():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            sharp_factor(bad)


def test_crossover_exponent_is_the_root_of_the_log_factor():
    lo, hi = 1.0, 1.3
    assert math.log(sharp_factor(lo)) > 0 > math.log(sharp_factor(hi))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.log(sharp_factor(mid)) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(P0, abs=1e-12)


def test_constants_table_rows():
    table = constants_table()
    rows = {label: (expr, value) for label, expr, value in table.entries}
    assert rows["p0"][1] == pytest.approx(P0, rel=1e-15)
    assert rows["lambda_inf"][1] == pytest.approx(LAMBDA_INF, rel=1e-15)
    assert rows["lambda_2"][1] == pytest.approx(LAMBDA_2, rel=1e-15)
    assert rows["lambda_3_2"][1] == pytest.approx(LAMBDA_3_2, rel=1e-15)
    assert rows["lambda_4_3"][1] == pytest.approx(LAMBDA_4_3, rel=1e-15)
    assert rows["peak_ratio_p0"][1] == pytest.approx(PEAK_RATIO_P0, rel=1e-12)
    assert rows["two_over_pi"][1] == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert rows["four_over_pi"][1] == pytest.approx(4.0 / math.pi, rel=1e-15)
    assert rows["two_pow_8_5_over_pi"][1] == pytest.approx(2.0 ** 1.6 / math.pi, rel=1e-15)
    assert all(expr for expr, _ in rows.values())


# --- the gap peak -------------------------------------------------------------


def test_gap_peak_at_the_crossover_exponent():
    t0 = gap_peak(P0)
    assert t0 == pytest.approx(T0, rel=1e-12)
    assert abs(slope_kernel(t0, P0)) <= 1e-13
    assert slope_kernel(t0 * (1.0 - 1e-4), P0) > 0 > slope_kernel(t0 * (1.0 + 1e-4), P0)


def test_gap_peak_value_is_the_supremum_ratio():
    assert peak_ratio(P0) == pytest.approx(PEAK_RATIO_P0, rel=1e-12)


def test_gap_peak_moves_down_as_the_exponent_rises():
    peaks = [gap_peak(p) for p in (1.05, 1.15, 1.25, 1.32)]
    assert all(x > y for x, y in zip(peaks, peaks[1:]))


def test_gap_peak_near_the_upper_exponent():
    # t0 ~ 2.3 sqrt(4/3 - p) falls below the bracket's old floor of 1e-3
    for gap in (1e-8, 1e-10):
        p = 4.0 / 3.0 - gap
        t0 = gap_peak(p)
        assert slope_kernel(0.99 * t0, p) > 0 > slope_kernel(1.01 * t0, p)


def test_gap_peak_domain():
    for bad in (0.5, 1.0, 4.0 / 3.0, 2.0):
        with pytest.raises(ValueError):
            gap_peak(bad)


def test_gap_peak_near_the_unit_exponent():
    # t0 ~ 0.28/(p - 1) lay past the bracket's old cap of 1e7 below p = 1 + 3.4e-8
    for gap in (3.3e-8, 1e-8, 1e-10, 1e-12):
        p = 1.0 + gap
        assert gap_peak(p) == pytest.approx(slope_root_oracle(p), rel=5e-5)
    # below 1 + 1e-12 slope_kernel, about t ulp off, cannot place t0 > 2.8e11
    for p in (1.0 + 0.99e-12, 1.0 + 1e-13, math.nextafter(1.0, 2.0)):
        with pytest.raises(ValueError, match=r"^parameter outside \[1 \+ 1e-12, 4/3\)$"):
            gap_peak(p)


def test_peak_bound_holds_with_equality_only_at_the_peak():
    # for p in (1, p0]: log_gap(t, p) <= log_gap(t0, p) with the sup at t0
    ts = np.logspace(-6, math.log10(50.0), 4000)
    for p in (1.05, 1.15, P0):
        t0 = gap_peak(p)
        cap = log_gap(t0, p)
        values = log_gap(ts, p)
        assert float(np.max(values)) <= cap + 1e-12
        assert float(np.max(values)) >= cap - 1e-6  # grid resolution at the peak


def test_factor_bound_below_the_unit_exponent():
    # for p in (0, 1]: B < lambda_p M_p, approached as t -> infinity
    ts = np.logspace(-6, math.log10(50.0), 4000)
    for p in (0.5, 0.8, 1.0):
        cap = math.log(sharp_factor(p))
        values = log_gap(ts, p)
        assert float(np.max(values)) <= cap + 1e-13
        assert log_gap(50.0, p) == pytest.approx(cap, abs=1e-6)


# --- endpoint recovery ---------------------------------------------------------


def assert_sharp(numeric, closed):
    # 60 halvings of [-10, 10] leave a zero endpoint at 20 / 2^61
    tol = 4 * math.ulp(closed) if closed else 20.0 / 2**61
    assert abs(numeric - closed) <= tol, (numeric, closed)


def test_sandor_yang_power_endpoints():
    lower = best_exponent(MeanKind("sandor-yang"), "power", "lower")
    assert lower.closed_form == pytest.approx(P0, rel=1e-15)
    assert_sharp(lower.numeric, P0)
    upper = best_exponent(MeanKind("sandor-yang"), "power", "upper")
    assert upper.closed_form == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert_sharp(upper.numeric, 4.0 / 3.0)


def test_second_seiffert_lehmer_endpoints():
    lower = best_exponent(MeanKind("second-seiffert"), "lehmer", "lower")
    assert lower.closed_form == 0.0
    assert_sharp(lower.numeric, 0.0)
    upper = best_exponent(MeanKind("second-seiffert"), "lehmer", "upper")
    assert upper.closed_form == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert_sharp(upper.numeric, 1.0 / 3.0)


def test_literature_means_are_pinned():
    # read from the catalog's power rows: a catalog edit that changes the survey fails here
    assert LITERATURE_MEANS == (
        "log",
        "identric",
        "first-seiffert",
        "second-seiffert",
        "toader",
        "neuman-sandor",
        "yang",
        "sandor",
    )


def test_literature_catalog_is_recovered():
    reports = literature_endpoints()
    assert len(reports) == 16
    for report in reports:
        assert report.closed_form is not None
        assert_sharp(report.numeric, report.closed_form)


def test_catalog_endpoints_are_exact():
    for (tag, family), forms in _CLOSED_FORMS.items():
        for side, closed in zip(("lower", "upper"), forms):
            report = best_exponent(MeanKind(tag), family, side)
            assert report.decided_by == "limits", (tag, family, side)
            assert report.closed_form == closed, (tag, family, side)
            if closed:
                assert_sharp(report.numeric, closed)
            else:  # 60 halvings of [-10, 10] towards a switch at p = 0
                assert report.numeric == 8.673617379884035e-18, (tag, family, side)


def test_literature_endpoints_make_one_grid_check_each(monkeypatch):
    calls = []
    witness = solver.find_witness

    def counted(*args):
        calls.append(args)
        return witness(*args)

    monkeypatch.setattr(solver, "find_witness", counted)
    literature_endpoints()
    assert len(calls) == 16


def test_best_exponent_falls_back_to_predicate_bisection():
    # yang against the lehmer family from below fails in the interior: past
    # the endpoint both limits still hold, and only the grid finds a witness
    kind = MeanKind("yang")
    report = best_exponent(kind, "lehmer", "lower")
    assert report.decided_by == "grid"
    assert report.numeric == -0.02185582900138966  # the predicate bisection's value
    p = report.numeric + 1e-3
    t = find_witness(kind, "lehmer", p, "lower")
    assert t == pytest.approx(3.58, abs=0.01)
    assert solver._limits_check(kind, "lehmer", "lower")(p)
    a, b = mp.exp(-mp.mpf(t)), mp.exp(mp.mpf(t))
    gap = mp.log(mean_oracle("lehmer", p, a, b)) - mp.log(mean_oracle("yang", None, a, b))
    assert float(gap) == pytest.approx(0.0038, abs=1e-4)


def test_endpoint_report_fields():
    report = best_exponent(MeanKind("log"), "power", "upper")
    assert report.family == "power"
    assert report.side == "upper"


def test_every_catalog_endpoint_is_sharp():
    # the bound predicate must hold just inside the sharp parameter and fail
    # a bit beyond it, in both directions
    for (tag, family), (lower, upper) in _CLOSED_FORMS.items():
        kind = MeanKind(tag)
        pred_lower = _bound_predicate(kind, family, "lower")
        assert pred_lower(lower - 1e-6), (tag, family)
        assert not pred_lower(lower + 1e-3), (tag, family)
        pred_upper = _bound_predicate(kind, family, "upper")
        assert pred_upper(upper + 1e-6), (tag, family)
        assert not pred_upper(upper - 1e-3), (tag, family)


def test_best_exponent_rejects_unbracketed_searches():
    with pytest.raises(RuntimeError, match="never holds"):
        best_exponent(MeanKind.power(12.0), "power", "upper")
    with pytest.raises(RuntimeError, match="always holds"):
        best_exponent(MeanKind.power(-12.0), "power", "upper")
    with pytest.raises(ValueError):
        best_exponent(MeanKind("sandor-yang"), "power", "sideways")
    with pytest.raises(ValueError):
        best_exponent(MeanKind("sandor-yang"), "geometric", "lower")


# --- witnesses -----------------------------------------------------------------


def test_witness_found_beyond_the_lower_endpoint():
    t = find_witness(MeanKind("sandor-yang"), "power", P0 + 0.01, "lower")
    assert t is not None and t > 10.0


def test_witness_found_below_the_upper_endpoint():
    t = find_witness(MeanKind("sandor-yang"), "power", 4.0 / 3.0 - 0.01, "upper")
    assert t is not None and t < 2.0


def test_no_witness_at_the_sharp_parameters():
    assert find_witness(MeanKind("sandor-yang"), "power", 4.0 / 3.0, "upper") is None
    assert find_witness(MeanKind("sandor-yang"), "power", P0, "lower") is None
    assert find_witness(MeanKind("second-seiffert"), "lehmer", 1.0 / 3.0, "upper") is None


def test_target_profile_cache_is_bounded():
    for p in np.linspace(0.5, 3.0, 200):
        find_witness(MeanKind.power(float(p)), "power", 1.0, "lower")
    assert _mean_log_on_grid.cache_info().currsize <= 32


def test_unknown_family_is_rejected():
    kind = MeanKind("sandor-yang")
    for family in ("geometric", "holder"):
        with pytest.raises(ValueError, match="unknown mean family"):
            find_witness(kind, family, 1.0, "lower")
        with pytest.raises(ValueError, match="unknown mean family"):
            best_exponent(kind, family, "upper")
    # the side is checked first
    with pytest.raises(ValueError, match="unknown side"):
        find_witness(kind, "geometric", 1.0, "middle")


def test_witness_side_validation(monkeypatch):
    with pytest.raises(ValueError):
        find_witness(MeanKind("sandor-yang"), "power", 1.0, "middle")
    # the side is checked before any grid is evaluated
    monkeypatch.setattr(solver, "log_mean_normalized", None)
    with pytest.raises(ValueError, match="unknown side"):
        find_witness(MeanKind("sandor-yang"), "power", 1.0, "middle")


# --- chain and squeeze ----------------------------------------------------------


def test_chain_on_sample_pairs():
    assert verify_chain(1.0, 3.0)
    assert verify_chain(1.0, 1.0 + 1e-9)
    assert verify_chain(5.0, 0.002)
    # ratios past DBL_MAX, where the relative gap (hi - lo)/lo overflows
    for a, b in ((1e-200, 1e200), (5e-324, 1.0)):
        assert verify_chain(a, b) and verify_chain(b, a)
    # t >= 512, where the scaled members' margins are rounding noise of an ulp of t
    for a, b in ((1e-308, 1e308), (5e-324, 1.7e308)):
        assert verify_chain(a, b) and verify_chain(b, a)
    t = np.linspace(300.0, 709.0, 400)
    assert verify_chain(np.exp(-t), np.exp(t))
    with pytest.raises(ValueError):
        verify_chain(2.0, 2.0)
    # arrays of pairs: one bool for all of them, and any equal pair is an error
    a = np.array([1.0, 1.0, 5.0, 0.3])
    b = np.array([3.0, 1.0 + 1e-9, 0.002, 4e7])
    for x, y in ((a, b), (1.0, b), (a[:, None], b[None, 1:])):
        result = verify_chain(x, y)
        assert type(result) is bool
        assert result == all(verify_chain(float(u), float(v)) for u, v in np.broadcast(x, y))
    with pytest.raises(ValueError):
        verify_chain(a, np.append(b[:-1], 0.3))
    late = np.full(numerics._BLOCK + 1, 3.0)
    late[-1] = 1.0  # an equal pair in the second block of the sweep
    with pytest.raises(ValueError, match="requires distinct arguments"):
        verify_chain(1.0, late)
    # the sweep's memory stays at one block of pairs, whatever their number
    b = np.exp(2.0 * np.logspace(-10, math.log10(13.8), 10**6))
    tracemalloc.start()
    try:
        assert verify_chain(1.0, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_chain_margins_stay_nonnegative_on_a_sweep():
    rng = np.random.default_rng(20260814)
    t = 10.0 ** rng.uniform(-9, math.log10(9.2), size=2000)
    margins = chain_margins(t)
    assert margins.shape[0] == 10
    assert float(margins.min()) >= -1e-13


def test_a_violation_in_the_last_link_of_a_late_block_is_caught(monkeypatch):
    real, calls = solver._chain_rows, []

    def planted(t):  # the top member drops below power:3 at the last t of the third block
        calls.append(t.size)
        for label, expr, value in real(t):
            if label == "max" and len(calls) == 3:
                value = np.where(t == t[-1], value - 1.0, value)
            yield label, expr, value

    monkeypatch.setattr(solver, "_chain_rows", planted)
    b = np.exp(2.0 * np.logspace(-10, math.log10(13.8), 4 * numerics._BLOCK))
    assert not verify_chain(1.0, b)
    assert calls == [numerics._BLOCK] * 4  # every block is still checked
    calls.clear()
    assert verify_chain(1.0, b[: 2 * numerics._BLOCK])  # the planted block never runs
    calls.clear()
    margins = chain_margins(np.logspace(-10, 1, 3 * numerics._BLOCK))
    assert np.argwhere(margins < -solver.TIE).tolist() == [[9, 3 * numerics._BLOCK - 1]]


def test_chain_margins_reject_negative_nan_and_infinite_t():
    for bad in (-1e-300, math.nan, math.inf, [0.5, -0.5], np.array([[1.0], [math.nan]])):
        with pytest.raises(ValueError, match="t must be nonnegative and finite"):
            chain_margins(bad)
    assert chain_margins(0.0).shape == (10, 1)
    assert chain_margins(np.array([[0.5, 1.0]])).shape == (10, 1, 2)


def test_chain_margins_equal_one_call_per_block():
    # a block whose links were written into a copy, not into the output, would be lost
    block = numerics._BLOCK
    t = 10.0 ** np.random.default_rng(24).uniform(-12.0, 2.5, (3, block + 1))
    flat = t.ravel()
    parts = [chain_margins(flat[i : i + block]) for i in range(0, flat.size, block)]
    whole = chain_margins(t)
    assert whole.shape == (10,) + t.shape
    assert np.concatenate(parts, axis=1).tobytes() == whole.reshape(10, -1).tobytes()
    one = np.array([[0.7]])
    assert chain_margins(one).tobytes() == chain_margins(0.7).tobytes()
    assert chain_margins(one).shape == (10, 1, 1)


def test_chain_table_rows_ascend():
    rows = chain_table(1.0, 3.0)
    assert len(rows) == 11
    labels = [label for label, _, _ in rows]
    assert labels[0] == "lambda_inf*max"
    assert "sandor-yang" in labels
    assert labels[-1] == "max"
    values = [value for _, _, value in rows]
    assert all(x < y for x, y in zip(values, values[1:]))
    # scale-invariance up to the common factor
    scaled = chain_table(10.0, 30.0)
    for (_, _, v1), (_, _, v10) in zip(rows, scaled):
        assert v10 == pytest.approx(10.0 * v1, rel=1e-12)
    # the top member is max(a, b) itself
    for a, b in 10.0 ** np.random.default_rng(11).uniform(-12.0, 12.0, (200, 2)):
        assert chain_table(a, b)[-1][2] == chain_table(b, a)[-1][2] == max(a, b)


def test_chain_table_past_the_overflow_of_exp():
    # t > log(DBL_MAX): e^(log m) of a member overflows, the member itself,
    # at most max(a, b), does not; each matches its mean at raised precision
    for a, b in ((1e-310, 1e308), (5e-324, 1.7e308)):
        rows = chain_table(a, b)
        assert len(rows) == 11
        values = {label: value for label, _, value in rows}
        assert all(0.0 < value <= max(a, b) for value in values.values())
        want = mean_oracle("sandor-yang", None, a, b)
        assert values["sandor-yang"] == pytest.approx(float(want), rel=1e-12)
        for p in (1.5, 2.0):
            want = mean_oracle("power", p, a, b)
            assert values[f"power:{p:g}"] == pytest.approx(float(want), rel=1e-12)
            scaled = sharp_factor(p) * want
            assert values[f"lambda_{p:g}*power:{p:g}"] == pytest.approx(float(scaled), rel=1e-12)


def test_squeeze_margins_positive_even_for_extreme_ratios():
    t = np.concatenate([[1e-150, 1e-30, 1e-10], np.logspace(-8, math.log10(13.8), 200)])
    lower, upper = squeeze_margins(t)
    assert np.all(lower > 0)
    assert np.all(upper > 0)
    # below ~1e-154 the t^2-sized margins underflow, but never to a wrong sign
    tiny_lower, tiny_upper = squeeze_margins(np.array([1e-200]))
    assert tiny_lower[0] >= 0.0 and tiny_upper[0] >= 0.0


def test_squeeze_margins_reject_negative_nan_and_infinite_t():
    # tanh(-1) = -0.76 once fell to the arctan series row, whose radius is 0.1
    for bad in (-1.0, -1e-300, math.nan, math.inf, [0.5, -0.5], np.array([[1.0], [math.nan]])):
        with pytest.raises(ValueError, match="t must be nonnegative and finite"):
            squeeze_margins(bad)
    lower, upper = squeeze_margins(0.0)
    assert np.ndim(lower) == np.ndim(upper) == 0 and isinstance(lower, float)
    assert lower == upper == 0.0
    lower, upper = squeeze_margins(0.5)
    assert isinstance(lower, float) and lower > 0 and upper > 0
    assert [m.shape for m in squeeze_margins(np.array([[0.0, 0.5]]))] == [(1, 2), (1, 2)]


def test_squeeze_on_pairs():
    assert verify_squeeze(1.0, 3.0)
    assert verify_squeeze(1.0, 1.0 + 1e-10)
    assert verify_squeeze(1e-6, 1e6)
    for a, b in ((1e-200, 1e200), (5e-324, 1.0), (1e-308, 1e308)):
        assert verify_squeeze(a, b) and verify_squeeze(b, a)
    with pytest.raises(ValueError):
        verify_squeeze(4.0, 4.0)
    a = np.array([1.0, 1.0, 1e-6, 4.0])
    b = np.array([3.0, 1.0 + 1e-10, 1e6, 0.5])
    for x, y in ((a, b), (1.0, b[:2]), (a[:, None], b[None, :2])):
        result = verify_squeeze(x, y)
        assert type(result) is bool
        assert result == all(verify_squeeze(float(u), float(v)) for u, v in np.broadcast(x, y))
    with pytest.raises(ValueError):
        verify_squeeze(a, np.append(b[:-1], 4.0))
    late = np.full(numerics._BLOCK + 1, 3.0)
    late[-1] = 1.0  # an equal pair in the second block of the sweep
    with pytest.raises(ValueError, match="requires distinct arguments"):
        verify_squeeze(1.0, late)
    # a 2-D broadcast of more pairs than one sweep block
    rng = np.random.default_rng(20260814)
    a = 10.0 ** rng.uniform(-3.0, 3.0, 40)
    b = 10.0 ** rng.uniform(-3.0, 3.0, 1000)
    assert a.size * b.size > numerics._BLOCK
    result = verify_squeeze(a[:, None], b[None, :])
    assert type(result) is bool
    assert result == all(verify_squeeze(float(x), b) for x in a)


def test_verifiers_reject_infinite_arguments():
    late = np.full(numerics._BLOCK + 1, 3.0)
    late[-1] = math.inf  # in the second block of the sweep
    for verify in (verify_chain, verify_squeeze):
        for a, b in ((1.0, math.inf), (math.inf, 2.0), (math.inf, math.inf), (1.0, late)):
            with pytest.raises(ValueError, match="requires finite arguments"):
                verify(a, b)


def test_seiffert_lehmer_verification():
    results = verify_seiffert_lehmer()
    assert results["ok"]
    assert results["limit_third"] == pytest.approx(2.0 / math.pi, abs=1e-6)
    assert results["limit_zero"] == pytest.approx(4.0 / math.pi, abs=1e-6)
    for key in (
        "limit_third_ok",
        "limit_zero_ok",
        "lower_grid_ok",
        "upper_grid_ok",
        "power_53_ok",
        "interlace_ok",
    ):
        assert results[key], key


def test_seiffert_lehmer_verification_equals_a_direct_evaluation():
    # each check written out on the grid, as in the inequalities it states
    grid = solver._grid()
    t_log = log_mean_normalized(MeanKind("second-seiffert"), grid)
    l_third = log_mean_normalized(MeanKind.lehmer(1.0 / 3.0), grid)
    l_zero = log_mean_normalized(MeanKind.lehmer(0.0), grid)
    m_53 = log_mean_normalized(MeanKind.power(5.0 / 3.0), grid)
    t40 = log_mean_normalized(MeanKind("second-seiffert"), 40.0)
    ratio_third = math.exp(t40 - log_mean_normalized(MeanKind.lehmer(1.0 / 3.0), 40.0))
    ratio_zero = math.exp(t40 - log_mean_normalized(MeanKind.lehmer(0.0), 40.0))
    two_pi, four_pi, c53 = 2.0 / math.pi, 4.0 / math.pi, 2.0 ** (8.0 / 5.0) / math.pi
    tie = solver.TIE
    expected = {
        "limit_third": ratio_third,
        "limit_zero": ratio_zero,
        "limit_third_ok": abs(ratio_third - two_pi) <= 1e-6,
        "limit_zero_ok": abs(ratio_zero - four_pi) <= 1e-6,
        "lower_grid_ok": bool(np.all(math.log(two_pi) + l_third <= t_log + tie)),
        "upper_grid_ok": bool(np.all(t_log <= math.log(four_pi) + l_zero + tie)),
        "power_53_ok": bool(np.all(math.log(c53) + m_53 <= t_log + tie)),
        "interlace_ok": bool(np.all(math.log(two_pi) + l_third <= math.log(c53) + m_53 + tie)),
        "ok": True,
    }
    assert verify_seiffert_lehmer() == expected
