"""Command-line interface: output shape, exit codes, determinism."""

import csv
import dataclasses
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from meanbounds import MeanKind, cli, log_mean_normalized, numerics, solver

P0 = 1.2351702290504027
T0 = 0.93728564929146117


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval -----------------------------------------------------------------


def test_eval_quadratic_example(capsys):
    code, out, _ = run(capsys, "eval", "--mean", "power:2", "--a", "1", "--b", "7")
    assert code == 0
    assert out == "5\n"


def test_eval_equal_arguments(capsys):
    code, out, _ = run(capsys, "eval", "--mean", "sandor-yang", "--a", "3.5", "--b", "3.5")
    assert code == 0
    assert out == "3.5\n"


def test_eval_toader(capsys):
    code, out, _ = run(capsys, "eval", "--mean", "toader", "--a", "1", "--b", "2")
    assert code == 0
    assert float(out) == pytest.approx(1.5419644251900402, rel=1e-14)


# stdout of `eval` at an ordinary and an extreme pair, frozen from the
# current evaluators: any change to a mean's digits shows here
EVAL_STDOUT = {
    "harmonic": ("0.696331738437001", "1.99999999999996e-200"),
    "geometric": ("1.47749788493926", "1"),
    "arithmetic": ("3.135", "5.0000000000001e+199"),
    "quadratic": ("4.18012559619923", "7.07106781186583e+199"),
    "log": ("1.99696329825632", "1.08573620475812e+197"),
    "identric": ("2.61230682759988", "3.6787944117145e+199"),
    "first-seiffert": ("2.56008527648321", "3.18309886183793e+199"),
    "second-seiffert": ("3.82556891080033", "6.36619772367587e+199"),
    "neuman-sandor": ("3.47619079321379", "5.67296328553251e+199"),
    "yang": ("3.23290526781128", "4.50158158078544e+199"),
    "sandor": ("2.05393519544573", "1.83939720585725e+199"),
    "toader": ("3.78308923460291", "6.36619772367587e+199"),
    "sandor-yang": ("3.48974005293096", "5.70538043804394e+199"),
    "power:1.7": ("3.94521834081495", "6.65156029099102e+199"),
    "lehmer:0.5": ("4.79250211506074", "1.00000000000014e+200"),
}


@pytest.mark.parametrize("mean", sorted(EVAL_STDOUT))
def test_eval_stdout_is_pinned(capsys, mean):
    for (a, b), out in zip((("0.37", "5.9"), ("1e-200", "1e200")), EVAL_STDOUT[mean]):
        assert run(capsys, "eval", "--mean", mean, "--a", a, "--b", b) == (0, out + "\n", "")


# --- endpoint ---------------------------------------------------------------


def test_endpoint_recovers_the_lower_exponent(capsys):
    code, out, _ = run(
        capsys, "endpoint", "--mean", "sandor-yang", "--family", "power", "--side", "lower"
    )
    assert code == 0
    header, row, trailer = out.split("\n")
    assert header == "closed_form,numeric,difference"
    assert trailer == ""
    closed, numeric, diff = (float(x) for x in row.split(","))
    assert closed == pytest.approx(P0, rel=1e-15)
    assert numeric == pytest.approx(P0, abs=1e-8)
    assert abs(diff) <= solver.ENDPOINT_TOLERANCE


def test_endpoint_exit_code_catches_a_miss_far_below_grid_resolution(capsys, monkeypatch):
    # the catalogued endpoints land within 4.4e-16 of their closed forms
    solve = solver.best_exponent

    def missed(kind, family, side):
        report = solve(kind, family, side)
        return dataclasses.replace(report, numeric=report.numeric + 1e-11)

    monkeypatch.setattr(solver, "best_exponent", missed)
    argv = ("endpoint", "--mean", "sandor-yang", "--family", "power", "--side", "lower")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.startswith("closed_form,numeric,difference\n")


def test_endpoint_without_catalogued_form_is_not_solved(capsys):
    # none of these has an endpoint in the search window
    for mean in ("power:12", "lehmer:0.3", "power:inf"):
        code, out, err = run(
            capsys, "endpoint", "--mean", mean, "--family", "power", "--side", "upper"
        )
        assert (code, out) == (2, ""), mean
        assert err == f"error: no closed form catalogued for {mean}/power\n"


def test_endpoint_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "endpoint", "--mean", "log", "--family", "stolarsky", "--side", "lower")
    assert exc.value.code == 2


# --- witness ----------------------------------------------------------------


def test_witness_beyond_the_sharp_exponent(capsys):
    code, out, _ = run(
        capsys,
        "witness",
        "--mean", "sandor-yang",
        "--family", "power",
        "--param", str(4.0 / 3.0 - 0.01),
        "--side", "upper",
    )
    assert code == 0
    assert 0.0 < float(out) < 2.0


def test_witness_absent_at_the_sharp_exponent(capsys):
    code, out, _ = run(
        capsys,
        "witness",
        "--mean", "sandor-yang",
        "--family", "power",
        "--param", str(4.0 / 3.0),
        "--side", "upper",
    )
    assert code == 0
    assert out == "none\n"


# --- table ------------------------------------------------------------------


def test_constants_table_output(capsys):
    code, out, _ = run(capsys, "table", "--which", "constants")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,expression,value"
    assert len(lines) == 10
    rows = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:]}
    assert float(rows["p0"]) == pytest.approx(P0, rel=1e-14)
    assert float(rows["lambda_2"]) == pytest.approx(math.exp(math.pi / 4 - 1), rel=1e-14)
    assert float(rows["two_over_pi"]) == pytest.approx(2 / math.pi, rel=1e-14)
    assert "\r" not in out


def test_table_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--which", "constants")
    _, second, _ = run(capsys, "table", "--which", "constants")
    assert first == second
    _, chain1, _ = run(capsys, "table", "--which", "chain", "--a", "2", "--b", "5")
    _, chain2, _ = run(capsys, "table", "--which", "chain", "--a", "2", "--b", "5")
    assert chain1 == chain2


def test_chain_table_rows_ascend(capsys):
    code, out, _ = run(capsys, "table", "--which", "chain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,expression,value"
    assert len(lines) == 12
    values = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert lines[1].startswith("lambda_inf*max,")
    assert lines[-1].startswith("max,")


def test_chain_table_top_row_is_max_itself(capsys):
    # sqrt(ab) e^t printed 851411821412.349 here
    argv = ["table", "--which", "chain", "--a", "851411821412.348", "--b", "309.808423318366"]
    _, out, _ = run(capsys, *argv)
    assert out.splitlines()[-1] == "max,max(a,b),851411821412.348"


def test_chain_table_past_the_overflow_of_exp(capsys):
    # t > log(DBL_MAX) here: e^(log m) overflows where the member itself does not
    for a, b in (("1e-310", "1e308"), ("5e-324", "1.7e308")):
        code, out, _ = run(capsys, "table", "--which", "chain", "--a", a, "--b", b)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 12
        assert all(float(line.rsplit(",", 1)[1]) <= float(b) for line in lines[1:])


# --- trace ------------------------------------------------------------------


def _trace_rows(out):
    lines = out.splitlines()
    assert lines[0] == "t,value"
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def test_trace_slope_kernel_signs(capsys):
    code, out, _ = run(
        capsys, "trace", "--function", "slope-kernel",
        "--p", "1", "--t-min", "0.01", "--t-max", "10", "--n", "50",
    )
    assert code == 0
    rows = _trace_rows(out)
    assert len(rows) == 50
    assert all(v > 0 for _, v in rows)

    code, out, _ = run(
        capsys, "trace", "--function", "f1",
        "--p", "2", "--t-min", "0.01", "--t-max", "10", "--n", "50",
    )
    assert code == 0
    assert all(v < 0 for _, v in _trace_rows(out))


def test_trace_aliases_emit_identical_output(capsys):
    argv = ["--p", "1.2", "--t-min", "0.05", "--t-max", "5", "--n", "20"]
    _, named, _ = run(capsys, "trace", "--function", "curvature-kernel", *argv)
    _, alias, _ = run(capsys, "trace", "--function", "f2", *argv)
    assert named == alias


def test_trace_log_gap_peaks_near_t0(capsys):
    code, out, _ = run(
        capsys, "trace", "--function", "log-gap",
        "--p", str(P0), "--t-min", "0.3", "--t-max", "3", "--n", "300",
    )
    assert code == 0
    rows = _trace_rows(out)
    peak_t = max(rows, key=lambda r: r[1])[0]
    assert peak_t == pytest.approx(T0, abs=0.02)


@pytest.mark.parametrize("function", ["log-gap", "F"])
def test_trace_log_gap_at_p_zero_is_sandor_yang_over_geometric(capsys, function):
    # M_0 is the geometric mean, as for MeanKind.power(0)
    ts = np.logspace(-1.0, 0.0, 5)
    gap = log_mean_normalized(MeanKind("sandor-yang"), ts) - log_mean_normalized(
        MeanKind("geometric"), ts
    )
    csv = "t,value\n" + "".join(f"{t:.15g},{v:.15g}\n" for t, v in zip(ts, gap))
    argv = ("trace", "--function", function, "--p", "0", "--t-min", "0.1", "--t-max", "1")
    assert run(capsys, *argv, "--n", "5") == (0, csv, "")


def test_trace_rejects_unknown_function(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "trace", "--function", "bogus",
            "--p", "1", "--t-min", "0.1", "--t-max", "1", "--n", "5")
    assert exc.value.code == 2


# --- verify -----------------------------------------------------------------


def test_verify_single_pair(capsys):
    code, out, _ = run(capsys, "verify", "--which", "chain", "--a", "1", "--b", "3")
    assert code == 0
    assert out == "pass\n"
    code, out, _ = run(capsys, "verify", "--which", "squeeze", "--a", "0.2", "--b", "9")
    assert code == 0
    assert out == "pass\n"


def test_verify_sweeps(capsys):
    code, out, _ = run(capsys, "verify", "--which", "chain", "--pairs", "500")
    assert code == 0
    assert out == "pairs,500\nresult,pass\n"
    code, out, _ = run(capsys, "verify", "--which", "squeeze", "--pairs", "500", "--seed", "7")
    assert code == 0
    assert out.endswith("result,pass\n")


def _verify_peak_bytes(capsys, pairs):
    tracemalloc.start()
    try:
        assert run(capsys, "verify", "--which", "chain", "--pairs", str(pairs))[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_sweep_memory_is_bounded_in_pairs(capsys):
    # pairs are drawn per sweep block, so 4x the pairs keeps the peak
    run(capsys, "verify", "--which", "chain", "--pairs", "100")  # first-use caches
    block = numerics._BLOCK
    assert _verify_peak_bytes(capsys, 16 * block) <= 1.2 * _verify_peak_bytes(capsys, 4 * block)


def test_verify_sweep_catches_a_violation_in_a_late_block(capsys, monkeypatch):
    real, blocks = solver._chain_rows, []

    def planted(t):  # the top member drops below power:3 at the last t of the third block
        blocks.append(t.size)
        for label, expr, value in real(t):
            if label == "max" and len(blocks) == 3:
                value = np.where(t == t[-1], value - 1.0, value)
            yield label, expr, value

    monkeypatch.setattr(solver, "_chain_rows", planted)
    pairs = 4 * numerics._BLOCK
    assert run(capsys, "verify", "--which", "chain", "--pairs", str(pairs)) == (
        1, f"pairs,{pairs}\nresult,FAIL\n", ""
    )
    assert blocks == [numerics._BLOCK] * 4


def _fresh_verify_faults(pairs):
    """Minor page faults of one fresh `verify --which chain --pairs N` process."""
    argv = [sys.executable, "-m", "meanbounds.cli", "verify", "--which", "chain", "--pairs", str(pairs)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert out == f"pairs,{pairs}\nresult,pass\n".encode()
    return usage.ru_minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap thresholds")
def test_verify_sweep_reuses_its_heap_in_a_fresh_process():
    # with glibc's default thresholds each block mapped, returned and faulted in
    # its temporaries again: about 1 900 faults per block, 800 link by link alone
    block = numerics._BLOCK
    extra = _fresh_verify_faults(16 * block) - _fresh_verify_faults(4 * block)
    assert extra / 12 <= 64


def test_verify_seiffert_lehmer(capsys):
    code, out, _ = run(capsys, "verify", "--which", "seiffert-lehmer")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.endswith(",pass") for line in lines)


def test_chain_and_verify_stdout_is_pinned(capsys):
    expected = {
        ("table", "--which", "chain"): """label,expression,value
lambda_inf*max,exp(pi/4-1)/sqrt(2) * max(a,b),1.71161413141315
lambda_3*power:3,exp(pi/4-1)*2^(1/(3)-1/2) * power-mean(3),1.7324895318519
lambda_2*power:2,exp(pi/4-1)*2^(1/(2)-1/2) * power-mean(2),1.80419971019877
lambda_1.5*power:1.5,exp(pi/4-1)*2^(1/(1.5)-1/2) * power-mean(1.5),1.92471310718548
lambda_1.33333*power:1.33333,exp(pi/4-1)*2^(1/(1.33333)-1/2) * power-mean(1.33333),2.00046642064742
sandor-yang,quadratic-mean * exp(arithmetic/second-seiffert - 1),2.07926439355815
power:1.33333,power-mean(1.33333),2.0848468621784
power:1.5,power-mean(1.5),2.12517516148581
power:2,power-mean(2),2.23606797749979
power:3,power-mean(3),2.41014226417523
max,max(a,b),3
""",
        ("verify", "--which", "chain", "--pairs", "500"): "pairs,500\nresult,pass\n",
        ("verify", "--which", "squeeze"): "pairs,10000\nresult,pass\n",
    }
    for argv, out in expected.items():
        assert run(capsys, *argv) == (0, out, ""), argv



def test_endpoint_and_constants_stdout_is_pinned(capsys):
    # (mean, family, side): the CSV row after the header; every row exits 0
    endpoints = {
        ("log", "power", "lower"): "0,8.67361737988404e-18,8.67361737988404e-18",
        ("log", "power", "upper"): "0.333333333333333,0.333333333333333,-5.55111512312578e-17",
        ("identric", "power", "lower"): "0.666666666666667,0.666666666666667,1.11022302462516e-16",
        ("identric", "power", "upper"): "0.693147180559945,0.693147180559945,-1.11022302462516e-16",
        ("first-seiffert", "power", "lower"): "0.60551156139828,0.60551156139828,1.11022302462516e-16",
        ("first-seiffert", "power", "upper"): "0.666666666666667,0.666666666666667,-1.11022302462516e-16",
        ("second-seiffert", "power", "lower"): "1.53492853566138,1.53492853566138,0",
        ("second-seiffert", "power", "upper"): "1.66666666666667,1.66666666666667,-2.22044604925031e-16",
        ("toader", "power", "lower"): "1.5,1.5,0",
        ("toader", "power", "upper"): "1.53492853566138,1.53492853566138,0",
        ("neuman-sandor", "power", "lower"): "1.22275463064469,1.22275463064469,0",
        ("neuman-sandor", "power", "upper"): "1.33333333333333,1.33333333333333,-2.22044604925031e-16",
        ("yang", "power", "lower"): "0.868435398439643,0.868435398439643,0",
        ("yang", "power", "upper"): "1.33333333333333,1.33333333333333,-2.22044604925031e-16",
        ("sandor", "power", "lower"): "0.333333333333333,0.333333333333333,5.55111512312578e-17",
        ("sandor", "power", "upper"): "0.409383890850359,0.409383890850359,-5.55111512312578e-17",
        ("sandor-yang", "power", "lower"): "1.2351702290504,1.2351702290504,4.44089209850063e-16",
        ("sandor-yang", "power", "upper"): "1.33333333333333,1.33333333333333,-2.22044604925031e-16",
        ("second-seiffert", "lehmer", "lower"): "0,8.67361737988404e-18,8.67361737988404e-18",
        ("second-seiffert", "lehmer", "upper"): "0.333333333333333,0.333333333333333,5.55111512312578e-17",
    }
    for (mean, family, side), row in endpoints.items():
        argv = ("endpoint", "--mean", mean, "--family", family, "--side", side)
        assert run(capsys, *argv) == (0, f"closed_form,numeric,difference\n{row}\n", ""), argv
    constants = """label,expression,value
p0,4*log(2)/(4 + 2*log(2) - pi),1.2351702290504
lambda_inf,exp(pi/4 - 1)/sqrt(2),0.570538043804383
lambda_2,exp(pi/4 - 1),0.806862639397974
lambda_3_2,2^(1/6)*exp(pi/4 - 1),0.905672690922957
lambda_4_3,2^(1/4)*exp(pi/4 - 1),0.959526791601945
peak_ratio_p0,exp(log_gap(gap_peak(p0), p0)),1.01274412866233
two_over_pi,2/pi,0.636619772367581
four_over_pi,4/pi,1.27323954473516
two_pow_8_5_over_pi,2^(8/5)/pi,0.964935135545622
"""
    assert run(capsys, "table", "--which", "constants") == (0, constants, "")


# --- usage errors -----------------------------------------------------------

_TRACE = ("trace", "--function", "log-gap", "--p")
_RANGE = "need 0 < t-min < t-max and n >= 2"
_POSITIVE = "a and b must be positive and finite"
_MALFORMED = "could not convert string to float: 'abc'"
_COMMA = "could not convert string to float: '1,5'"

# (argv, the message after "error: ")
USAGE_ERRORS = [
    (("eval", "--mean", "powr:2", "--a", "1", "--b", "2"), "unknown mean 'powr'"),
    (("eval", "--mean", "power", "--a", "1", "--b", "2"), "mean 'power' requires a parameter"),
    (
        ("eval", "--mean", "lehmer:inf", "--a", "1", "--b", "2"),
        "lehmer mean does not accept an infinite parameter",
    ),
    (("eval", "--mean", "arithmetic", "--a", "-1", "--b", "2"), _POSITIVE),
    (("eval", "--mean", "arithmetic", "--a", "0", "--b", "2"), _POSITIVE),
    (("eval", "--mean", "arithmetic", "--a", "inf", "--b", "2"), _POSITIVE),
    (("eval", "--mean", "sandor-yang", "--a", "inf", "--b", "inf"), _POSITIVE),
    (
        ("endpoint", "--mean", "power:2", "--family", "power", "--side", "lower"),
        "no closed form catalogued for power:2/power",
    ),
    (
        ("witness", "--mean", "log:1", "--family", "power", "--param", "1", "--side", "lower"),
        "mean 'log' takes no parameter",
    ),
    (
        ("table", "--which", "chain", "--a", "2", "--b", "2"),
        "chain table requires distinct arguments",
    ),
    (("table", "--which", "chain", "--a", "-1"), _POSITIVE),
    ((*_TRACE, "2", "--t-min", "0", "--t-max", "1", "--n", "10"), _RANGE),
    ((*_TRACE, "2", "--t-min", "2", "--t-max", "1", "--n", "10"), _RANGE),
    ((*_TRACE, "2", "--t-min", "0.1", "--t-max", "1", "--n", "1"), _RANGE),
    ((*_TRACE, "2", "--t-min", "nan", "--t-max", "1", "--n", "10"), _RANGE),
    ((*_TRACE, "2", "--t-min", "0.1", "--t-max", "inf", "--n", "10"), _RANGE),
    ((*_TRACE, "nan", "--t-min", "0.1", "--t-max", "1", "--n", "5"), "p must not be NaN"),
    (
        ("trace", "--function", "f1", "--p", "inf", "--t-min", "0.1", "--t-max", "1", "--n", "5"),
        "p must be finite",
    ),
    (
        ("trace", "--function", "f2", "--p", "nan", "--t-min", "0.1", "--t-max", "1", "--n", "5"),
        "p must be finite",
    ),
    (("verify", "--which", "chain", "--a", "1"), "need two distinct positive values --a and --b"),
    (
        ("verify", "--which", "chain", "--a", "1", "--b", "1"),
        "chain verification requires distinct arguments",
    ),
    (("verify", "--which", "squeeze", "--a", "-1", "--b", "2"), _POSITIVE),
    (("verify", "--which", "chain", "--a", "nan", "--b", "2"), _POSITIVE),
    (("verify", "--which", "chain", "--a", "1", "--b", "inf"), _POSITIVE),
    (("verify", "--which", "squeeze", "--a", "1", "--b", "inf"), _POSITIVE),
    (("verify", "--which", "chain", "--pairs", "0"), "need --pairs >= 1"),
    (("verify", "--which", "squeeze", "--pairs", "-1"), "need --pairs >= 1"),
    # a malformed number reaches the library as text, which raises one ValueError
    (("eval", "--mean", "toader", "--a", "abc", "--b", "2"), _MALFORMED),
    (("eval", "--mean", "toader", "--a", "1", "--b", "1,5"), _COMMA),
    (("eval", "--mean", "log:abc", "--a", "1", "--b", "2"), "mean 'log' takes no parameter"),
    (("eval", "--mean", "bogus:abc", "--a", "1", "--b", "2"), "unknown mean 'bogus'"),
    (
        ("witness", "--mean", "log", "--family", "power", "--param", "abc", "--side", "lower"),
        "bad parameter 'abc' for mean 'power'",
    ),
    (("table", "--which", "chain", "--a", "abc"), _MALFORMED),
    (("table", "--which", "chain", "--b", "1,5"), _COMMA),
    ((*_TRACE, "abc", "--t-min", "0.1", "--t-max", "1", "--n", "5"), _MALFORMED),
    (("verify", "--which", "chain", "--a", "abc", "--b", "2"), _MALFORMED),
    (("verify", "--which", "squeeze", "--a", "1", "--b", "1,5"), _COMMA),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS]
)
def test_usage_error_exits_2_with_one_error_line(capsys, argv, message):
    # nothing on stdout, and one line on stderr: no traceback, no warning
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# --- wiring -----------------------------------------------------------------


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_entry_raises_systemexit(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.argv", ["meanbounds", "eval", "--mean", "power:2", "--a", "1", "--b", "7"]
    )
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "5\n"


def test_seeded_sweep_is_reproducible(capsys, monkeypatch):
    n = 2 * numerics._BLOCK + 5

    def sweep(seed):
        """The blocks of pairs that `verify --which chain` hands verify_chain."""
        blocks = []

        def record(a, b):
            blocks.append((a, b.copy()))
            return True

        monkeypatch.setattr(solver, "verify_chain", record)
        argv = ("verify", "--which", "chain", "--pairs", str(n), "--seed", str(seed))
        assert run(capsys, *argv) == (0, f"pairs,{n}\nresult,pass\n", "")
        assert [a for a, _ in blocks] == [1.0, 1.0, 1.0]
        assert [b.size for _, b in blocks] == [numerics._BLOCK, numerics._BLOCK, 5]
        return np.concatenate([b for _, b in blocks])

    pairs = sweep(7)
    np.testing.assert_array_equal(sweep(7).view(np.uint64), pairs.view(np.uint64))
    assert np.count_nonzero(sweep(8) != pairs) > 0.99 * n
    # the blocks are one draw of t, cut: the pair (1, e^{2t}) for each t
    t = 10.0 ** np.random.default_rng(7).uniform(-10.3, math.log10(13.8), n)
    np.testing.assert_array_equal(pairs.view(np.uint64), np.exp(2.0 * t).view(np.uint64))


def _numbers(row):
    """The row's fields as floats, or None unless every one is a number."""
    try:
        return [float(field) for field in row]
    except ValueError:
        return None


def test_readme_cli_block_runs(capsys):
    # every command the README's CLI block shows exits 0; where its comment, on
    # its line or the lines under it, ends in a row of numbers, that is its stdout
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []  # (argv, comment lines)
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            commands.append((command.split(), []))
        if comment.strip():
            commands[-1][1].append(comment.strip())
    printed = 0
    for argv, comments in commands:
        assert argv[0] == "meanbounds", argv
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        want = list(csv.reader(comments))
        if want and _numbers(want[-1]) is not None:
            got = list(csv.reader(out.splitlines()))
            assert len(got) == len(want) and got[:-1] == want[:-1], argv
            assert _numbers(got[-1]) == _numbers(want[-1]), argv
            printed += 1
    assert len(commands) == 10 and printed == 4
