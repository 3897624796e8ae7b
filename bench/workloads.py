"""Seeded workloads for the meanbounds benchmark, with their output checks.

A workload is a closed loop with one caller: `passes()` yields lists of items,
and the loop runs each item only after the previous one has returned.  Inputs
come from `numpy.random.default_rng(seed)`, so one seed gives one input
sequence.  The program sees only the generated numbers.

Every item carries a check that runs outside the timed region and returns
OK or BAD; a BAD item counts as failed and makes the run incorrect.  The timed
inputs are ones on which the library is right at the seed.  The overflow
defect of `half_log_ratio` at ratios past DBL_MAX is measured apart from the
timed loop, by `extreme_pair_failures()`.

The library is reached through `meanbounds.<name>` and `meanbounds.solver.<name>`
at the moment a pass is built, so a pass built after the tracer has patched
those names calls the traced functions.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np

import meanbounds as mb
from meanbounds import MeanKind

OK, BAD = 0, 1

# The 13 plain means; `power:p` and `lehmer:p` make 15.
PLAIN_TAGS = (
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
    "toader",
    "sandor-yang",
)
MEAN_TAGS = PLAIN_TAGS + ("power", "lehmer")

# Half log ratios t of ordinary pairs: log-uniform over the CLI sweep's range,
# i.e. argument ratios from 1 + 1e-10 to about 1e12.
LOG_T_LO, LOG_T_HI = -10.3, math.log10(13.8)
# Geometric centre sqrt(ab) of ordinary pairs: log-uniform on [1e-100, 1e100].
LOG_CENTRE = 100.0

# Pairs whose ratio exceeds DBL_MAX.  On them 14 of the 15 means return inf,
# NaN or 0 at the seed (ROADMAP item 3); only `geometric` is right.  They are
# kept out of the timed loops, where every operation must succeed, and probed
# by `extreme_pair_failures()`.
EXTREME_PAIRS = ((1e-200, 1e200), (5e-324, 1.0), (1e-308, 1e308))
BULK_PAIRS = 2**17

# A mean must land in [min, max] up to this relative slack: sqrt(ab) * exp(log m)
# with |log m| up to 14 carries a few 1e-15 of rounding, which can put a mean
# that tends to max(a, b) a few ulps above it.
BOUND_SLACK = 1e-13
ORACLE_RTOL = 1e-12  # library value against the 50-digit normalised oracle
ORACLE_SAMPLE = 8  # ordinary pairs per mean in the oracle sample
ENDPOINT_TOL = 1e-3  # the CLI's endpoint tolerance
CHAIN_TIE = 1e-13  # the solver's documented tie for the chain margins
MARGIN_POINTS = 10_000

# Closed forms of the sharp endpoints, (lower, upper), from the literature;
# the solver's own catalog is what the check is checking.
_L2, _LPI = math.log(2.0), math.log(math.pi)
CLOSED_FORMS = {
    ("log", "power"): (0.0, 1.0 / 3.0),
    ("identric", "power"): (2.0 / 3.0, _L2),
    ("first-seiffert", "power"): (_L2 / _LPI, 2.0 / 3.0),
    ("second-seiffert", "power"): (_L2 / (_LPI - _L2), 5.0 / 3.0),
    ("toader", "power"): (1.5, _L2 / (_LPI - _L2)),
    ("neuman-sandor", "power"): (_L2 / math.log(2.0 * math.log(1.0 + math.sqrt(2.0))), 4.0 / 3.0),
    ("yang", "power"): (2.0 * _L2 / (2.0 * _LPI - _L2), 4.0 / 3.0),
    ("sandor", "power"): (1.0 / 3.0, _L2 / (1.0 + _L2)),
    ("sandor-yang", "power"): (4.0 * _L2 / (4.0 + 2.0 * _L2 - math.pi), 4.0 / 3.0),
    ("second-seiffert", "lehmer"): (0.0, 1.0 / 3.0),
}
ENDPOINTS = tuple(
    (tag, family, side) for (tag, family) in CLOSED_FORMS for side in ("lower", "upper")
)


def closed_form(tag, family, side):
    lower, upper = CLOSED_FORMS[(tag, family)]
    return lower if side == "lower" else upper


class Item:
    """One call of the closed loop: fn(*args), its check and its repeat key."""

    __slots__ = ("key", "fn", "args", "check")

    def __init__(self, key, fn, args, check):
        self.key, self.fn, self.args, self.check = key, fn, args, check


# --- input generation -----------------------------------------------------


def ordinary_pairs(rng, n):
    t = 10.0 ** rng.uniform(LOG_T_LO, LOG_T_HI, n)
    centre = 10.0 ** rng.uniform(-LOG_CENTRE, LOG_CENTRE, n)
    lo, hi = centre * np.exp(-t), centre * np.exp(t)
    swap = rng.random(n) < 0.5
    return np.where(swap, hi, lo), np.where(swap, lo, hi)


def mean_kinds(rng):
    """The 15 means; the power and lehmer parameters are drawn afresh."""
    return [MeanKind(tag) for tag in PLAIN_TAGS] + [
        MeanKind.power(rng.uniform(-4.0, 4.0)),
        MeanKind.lehmer(rng.uniform(-2.0, 2.0)),
    ]


def kernel_args(rng):
    t = 10.0 ** rng.uniform(LOG_T_LO, LOG_T_HI)
    return float(t), float(rng.uniform(0.5, 3.0))


# --- checks -----------------------------------------------------------------


def _in_bounds(v, lo, hi):
    with np.errstate(invalid="ignore"):
        return np.isfinite(v) & (v >= lo * (1.0 - BOUND_SLACK)) & (v <= hi * (1.0 + BOUND_SLACK))


def _finite_scalar(v):
    return OK if math.isfinite(v) else BAD


def extreme_pair_failures():
    """(wrong, evaluated): the 15 means on the extreme pairs, both orders.

    A value is wrong unless it is finite and within [min(a, b), max(a, b)].
    This is the overflow defect the timed loops leave out; it is reported,
    not counted as failed items.
    """
    pairs = np.array([p for pair in EXTREME_PAIRS for p in (pair, pair[::-1])])
    a, b = pairs[:, 0], pairs[:, 1]
    wrong = 0
    with np.errstate(all="ignore"):
        for kind in mean_kinds(np.random.default_rng(0)):
            wrong += int(np.sum(~_in_bounds(mb.eval_mean(kind, a, b), np.minimum(a, b), np.maximum(a, b))))
    return wrong, len(MEAN_TAGS) * len(a)


class _Oracle:
    """The 50-digit reference means of tests/oracles.py, loaded on first use."""

    _mod = None

    @classmethod
    def module(cls):
        if cls._mod is None:
            here = os.path.dirname(os.path.abspath(__file__))
            sys.path.insert(0, os.path.join(os.path.dirname(here), "tests"))
            import oracles

            cls._mod = oracles
        return cls._mod

    @classmethod
    def mean(cls, kind, a, b):
        """M(a, b) as sqrt(ab) * m(t), with m evaluated on (e^-t, e^t).

        The oracle's raw-pair formulas lose all digits at extreme centres (its
        identric mean collapses to 1/e near a = 1e-94), so it is fed the
        normalised pair only.
        """
        o = cls.module()
        mp = o.mp
        a, b = mp.mpf(float(a)), mp.mpf(float(b))
        t = mp.log(max(a, b) / min(a, b)) / 2
        return mp.sqrt(a * b) * o.mean_oracle(kind.tag, kind.param, mp.exp(-t), mp.exp(t))

    @classmethod
    def rel_err(cls, kind, a, b, value):
        ref = cls.mean(kind, a, b)
        return abs(float((cls.module().mp.mpf(float(value)) - ref) / ref))


def oracle_sample_checks(rng, evaluate):
    """Compare `evaluate(kind, a, b)` with the oracle on ORACLE_SAMPLE pairs per mean."""
    results = []
    for kind in mean_kinds(rng):
        a, b = ordinary_pairs(rng, ORACLE_SAMPLE)
        values = evaluate(kind, a, b)
        worst = max(_Oracle.rel_err(kind, x, y, v) for x, y, v in zip(a, b, values))
        results.append((f"oracle {kind.label()} worst rel err {worst:.2e}", worst <= ORACLE_RTOL))
    return results


# --- workloads ----------------------------------------------------------------


class BulkEval:
    """One item: eval_mean(kind, a, b) on a fresh batch of 2^17 pairs."""

    name = "bulk-eval"
    window_s = 2.0  # busy seconds between re-pins to the least contended CPU
    tail_block = 200  # 14 passes: the tail falls among their 14 Toader items
    rss_passes = 20  # peak RSS after this many passes

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def passes(self):
        while True:
            a, b = ordinary_pairs(self.rng, BULK_PAIRS)
            lo, hi = np.minimum(a, b), np.maximum(a, b)

            def check(v, lo=lo, hi=hi):
                return OK if np.all(_in_bounds(v, lo, hi)) else BAD

            yield [
                Item(("eval_mean", kind.label(), float(a[0]), float(b[0])), mb.eval_mean, (kind, a, b), check)
                for kind in mean_kinds(self.rng)
            ]

    def final_checks(self):
        return oracle_sample_checks(self.rng, mb.eval_mean)

    def alloc_probe(self):
        a, b = ordinary_pairs(self.rng, BULK_PAIRS)
        return [(kind.tag, mb.eval_mean, (kind, a, b), BULK_PAIRS) for kind in mean_kinds(self.rng)]


class ScalarSession:
    """One item: one scalar call with Python floats."""

    name = "scalar-session"
    window_s = 1.0  # busy seconds between re-pins to the least contended CPU
    tail_block = 1000  # 53 passes: the tail falls inside the slowest kinds, not at their edge
    # peak RSS after this many passes: the slope_kernel series cache grows by
    # one entry for most fresh p, so the RSS grows with the passes run
    rss_passes = 4000

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def passes(self):
        while True:
            pa, pb = ordinary_pairs(self.rng, 1)
            a, b = float(pa[0]), float(pb[0])
            # the same bound check as bulk-eval's, in plain Python: it runs
            # after every one of ~20 000 calls a second
            lo, hi = min(a, b) * (1.0 - BOUND_SLACK), max(a, b) * (1.0 + BOUND_SLACK)

            def check_mean(v, lo=lo, hi=hi):
                return OK if math.isfinite(v) and lo <= v <= hi else BAD

            items = [
                Item(("eval_mean", kind.label(), a, b), mb.eval_mean, (kind, a, b), check_mean)
                for kind in mean_kinds(self.rng)
            ]
            items.append(
                Item(("half_log_ratio", a, b), mb.half_log_ratio, (a, b), lambda v: BAD if v < 0 else _finite_scalar(v))
            )
            for fn in (mb.log_gap, mb.slope_kernel, mb.curvature_kernel):
                t, p = kernel_args(self.rng)
                items.append(Item((fn.__name__, t, p), fn, (t, p), _finite_scalar))
            yield items

    def final_checks(self):
        def scalar_calls(kind, a, b):
            return [mb.eval_mean(kind, float(x), float(y)) for x, y in zip(a, b)]

        return oracle_sample_checks(self.rng, scalar_calls)

    def alloc_probe(self):
        pa, pb = ordinary_pairs(self.rng, 1)
        a, b = float(pa[0]), float(pb[0])
        return [(kind.tag, mb.eval_mean, (kind, a, b), 1) for kind in mean_kinds(self.rng)]


class EndpointCatalog:
    """One item: one solver query; params, p and the margin grids are redrawn each pass."""

    name = "endpoint-catalog"
    window_s = 1.0  # busy seconds between re-pins to the least contended CPU
    tail_block = 200  # 2 passes
    rss_passes = 30

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def passes(self):
        solver = mb.solver
        while True:
            rng = self.rng
            items = []
            for tag, family, side in ENDPOINTS:
                closed = closed_form(tag, family, side)
                items.append(
                    Item(
                        ("best_exponent", tag, family, side),
                        solver.best_exponent,
                        (MeanKind(tag), family, side),
                        lambda r, c=closed: OK if abs(r.numeric - c) <= ENDPOINT_TOL else BAD,
                    )
                )
            # two params on each side of each endpoint, so that the median item
            # lies well inside the find_witness/power group, not at its edge
            for tag, family, side in ENDPOINTS:
                closed = closed_form(tag, family, side)
                sign = 1.0 if side == "lower" else -1.0
                for holds in (True, True, False, False):
                    delta = float(rng.uniform(0.05, 0.5))
                    param = closed - sign * delta if holds else closed + sign * delta
                    items.append(
                        Item(
                            ("find_witness", tag, family, param, side),
                            solver.find_witness,
                            (MeanKind(tag), family, param, side),
                            _witness_check(tag, family, param, side, holds),
                        )
                    )
            p_peak, p_ratio = (float(x) for x in rng.uniform(1.02, 1.31, 2))
            items.append(Item(("gap_peak", p_peak), solver.gap_peak, (p_peak,), _peak_check(p_peak)))
            items.append(
                Item(("peak_ratio", p_ratio), solver.peak_ratio, (p_ratio,), _ratio_check(p_ratio))
            )
            items.append(
                Item(
                    ("verify_seiffert_lehmer",),
                    solver.verify_seiffert_lehmer,
                    (),
                    lambda r: OK if r["ok"] else BAD,
                )
            )
            items.append(Item(("constants_table",), solver.constants_table, (), _constants_check))
            t = 10.0 ** rng.uniform(LOG_T_LO, LOG_T_HI, MARGIN_POINTS)
            items.append(
                Item(
                    ("squeeze_margins", float(t[0])),
                    solver.squeeze_margins,
                    (t,),
                    lambda r: OK if np.all(r[0] > 0) and np.all(r[1] > 0) else BAD,
                )
            )
            t = 10.0 ** rng.uniform(LOG_T_LO, LOG_T_HI, MARGIN_POINTS)
            items.append(
                Item(
                    ("chain_margins", float(t[0])),
                    solver.chain_margins,
                    (t,),
                    lambda r: OK if np.all(r >= -CHAIN_TIE) else BAD,
                )
            )
            yield items

    def final_checks(self):
        return []

    def alloc_probe(self):
        return []


def _gap_sign(tag, family, param, t):
    """sign of log family(param) - log mean at (e^-t, e^t), from the oracle."""
    o = _Oracle.module()
    mp = o.mp
    x, y = mp.exp(-mp.mpf(t)), mp.exp(mp.mpf(t))
    fam = o.power_mean(param, x, y) if family == "power" else o.lehmer_mean(param, x, y)
    return mp.sign(mp.log(fam) - mp.log(o.mean_oracle(tag, None, x, y)))


def _witness_check(tag, family, param, side, holds):
    """No witness where the bound holds; where it fails, either none (the grid
    may miss a failure far out in t) or a t at which the oracle confirms it."""

    def check(t):
        if t is None:
            return OK
        if holds:
            return BAD
        want = 1 if side == "lower" else -1
        return OK if _gap_sign(tag, family, param, t) == want else BAD

    return check


def oracle_peak(p):
    """The oracle's t0 > 0 with slope_kernel(t0, p) = 0, by geometric bisection."""
    slope = _Oracle.module().slope_oracle
    lo, hi = 1e-3, 60.0  # slope > 0 at 1e-3 and < 0 at 60 for p in (1.02, 1.31)
    for _ in range(64):
        mid = math.sqrt(lo * hi)
        if slope(mid, p) > 0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _peak_check(p):
    def check(t0):
        ref = oracle_peak(p)
        return OK if abs(t0 - ref) <= 1e-9 * ref else BAD

    return check


def _oracle_peak_ratio(p):
    o = _Oracle.module()
    return float(o.mp.exp(o.gap_oracle(oracle_peak(p), p)))


def _ratio_check(p):
    def check(ratio):
        ref = _oracle_peak_ratio(p)
        return OK if abs(ratio - ref) <= ORACLE_RTOL * ref else BAD

    return check


_CONSTANTS = {}


def _constants_ok(entries, rtol):
    """Labels in order and values against closed forms and the oracle peak."""
    if not _CONSTANTS:
        p0 = 4.0 * _L2 / (4.0 + 2.0 * _L2 - math.pi)
        e = math.exp(math.pi / 4.0 - 1.0)
        _CONSTANTS.update(
            p0=p0,
            lambda_inf=e / math.sqrt(2.0),
            lambda_2=e,
            lambda_3_2=2.0 ** (1.0 / 6.0) * e,
            lambda_4_3=2.0 ** 0.25 * e,
            peak_ratio_p0=_oracle_peak_ratio(p0),
            two_over_pi=2.0 / math.pi,
            four_over_pi=4.0 / math.pi,
            two_pow_8_5_over_pi=2.0 ** 1.6 / math.pi,
        )
    if [row[0] for row in entries] != list(_CONSTANTS):
        return BAD
    ok = all(abs(value - _CONSTANTS[label]) <= rtol * _CONSTANTS[label] for label, _, value in entries)
    return OK if ok else BAD


def _constants_check(table):
    return _constants_ok(table.entries, ORACLE_RTOL)


class CliOneshot:
    """One item: one fresh `python -m meanbounds.cli` process from a fixed list."""

    name = "cli-oneshot"
    window_s = 0.0  # re-pin before every pass
    tail_block = 10  # one pass: its tail is its slowest command
    rss_passes = 2

    # Labels of the commands, in the order a pass runs them.
    COMMANDS = (
        "eval-toader",
        "eval-sandor-yang",
        "eval-power2",
        "endpoint",
        "witness",
        "table-constants",
        "table-chain",
        "verify-squeeze",
        "verify-chain-1e6",
        "verify-seiffert-lehmer",
    )
    CHAIN_LABELS = (
        ["lambda_inf*max"]
        + [f"lambda_{p:g}*power:{p:g}" for p in (3.0, 2.0, 1.5, 4.0 / 3.0)]
        + ["sandor-yang"]
        + [f"power:{p:g}" for p in (4.0 / 3.0, 1.5, 2.0, 3.0)]
        + ["max"]
    )
    SEIFFERT_LEHMER_LINES = "".join(
        f"{key},pass\n"
        for key in (
            "interlace_ok",
            "limit_third_ok",
            "limit_zero_ok",
            "lower_grid_ok",
            "power_53_ok",
            "upper_grid_ok",
        )
    )

    def __init__(self, seed, launcher=None):
        self.rng = np.random.default_rng(seed)
        # argv prefix that starts one CLI process; the traced run swaps in its own.
        self.launcher = launcher or [sys.executable, "-m", "meanbounds.cli"]
        self.peak_rss_kib = {}

    def commands(self):
        """The fixed list with freshly drawn arguments: (label, argv, check)."""
        rng = self.rng
        pa, pb = ordinary_pairs(rng, 3)
        # keep the CLI's 15-digit echo of the inputs exact
        pairs = [(float(f"{x:.15g}"), float(f"{y:.15g}")) for x, y in zip(pa, pb)]
        cmds = []
        evals = (
            ("eval-toader", "toader", MeanKind("toader")),
            ("eval-sandor-yang", "sandor-yang", MeanKind("sandor-yang")),
            ("eval-power2", "power:2", MeanKind.power(2.0)),
        )
        for (label, mean, kind), (a, b) in zip(evals, pairs):
            cmds.append(
                (label, ["eval", "--mean", mean, "--a", repr(a), "--b", repr(b)], _eval_check(kind, a, b))
            )
        tag, family, side = ENDPOINTS[rng.integers(len(ENDPOINTS))]
        cmds.append(
            (
                "endpoint",
                ["endpoint", "--mean", tag, "--family", family, "--side", side],
                _endpoint_cli_check(closed_form(tag, family, side)),
            )
        )
        tag, family, side = ENDPOINTS[rng.integers(len(ENDPOINTS))]
        holds = bool(rng.random() < 0.5)
        sign = 1.0 if side == "lower" else -1.0
        delta = float(rng.uniform(0.05, 0.5))
        param = closed_form(tag, family, side) + (-sign if holds else sign) * delta
        witness = _witness_check(tag, family, param, side, holds)
        cmds.append(
            (
                "witness",
                ["witness", "--mean", tag, "--family", family, "--param", repr(param), "--side", side],
                lambda out: witness(None if out.strip() == "none" else float(out)),
            )
        )
        cmds.append(("table-constants", ["table", "--which", "constants"], _constants_cli_check))
        a, b = ordinary_pairs(rng, 1)
        a, b = float(f"{a[0]:.15g}"), float(f"{b[0]:.15g}")
        cmds.append(
            (
                "table-chain",
                ["table", "--which", "chain", "--a", repr(a), "--b", repr(b)],
                self._chain_check(a, b),
            )
        )
        # squeeze with the CLI's default 10^4 pairs, chain with 10^6
        for label, which, pairs in (("verify-squeeze", "squeeze", None), ("verify-chain-1e6", "chain", 1_000_000)):
            argv = ["verify", "--which", which, "--seed", str(int(rng.integers(2**31)))]
            argv += ["--pairs", str(pairs)] if pairs else []
            expected = f"pairs,{pairs or 10_000}\nresult,pass\n"
            cmds.append((label, argv, lambda out, e=expected: OK if out == e else BAD))
        cmds.append(
            (
                "verify-seiffert-lehmer",
                ["verify", "--which", "seiffert-lehmer"],
                lambda out: OK if out == self.SEIFFERT_LEHMER_LINES else BAD,
            )
        )
        return cmds

    def passes(self):
        while True:
            yield [
                Item((label, *argv), run_cli, (self.launcher + argv,), self._cli_check(label, check))
                for label, argv, check in self.commands()
            ]

    def _cli_check(self, label, check):
        """Exit code 0 and the expected stdout; also keeps the command's peak RSS."""

        def run(result):
            code, out, rss_kib = result
            self.peak_rss_kib[label] = max(rss_kib, self.peak_rss_kib.get(label, 0))
            if code != 0:
                return BAD
            try:
                return check(out)
            except (ValueError, IndexError):
                return BAD

        return run

    def _chain_check(self, a, b):
        def check(out):
            lines = out.splitlines()
            if lines[0] != "label,expression,value":
                return BAD
            rows = [line.split(",") for line in lines[1:]]
            if [r[0] for r in rows] != self.CHAIN_LABELS:
                return BAD
            values = [float(r[-1]) for r in rows]
            if any(y < x * (1 - 1e-14) for x, y in zip(values, values[1:])):
                return BAD
            by_label = dict(zip(self.CHAIN_LABELS, values))
            refs = {"sandor-yang": MeanKind("sandor-yang")}
            refs.update({f"power:{p:g}": MeanKind.power(p) for p in (4.0 / 3.0, 1.5, 2.0, 3.0)})
            for label, kind in refs.items():
                if _Oracle.rel_err(kind, a, b, by_label[label]) > ORACLE_RTOL:
                    return BAD
            return OK if by_label["max"] == max(a, b) else BAD

        return check

    def final_checks(self):
        return []

    def alloc_probe(self):
        return []


def run_cli(argv):
    """Run one CLI process; return (exit code, stdout, its peak RSS in KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def _eval_check(kind, a, b):
    return lambda out: OK if _Oracle.rel_err(kind, a, b, float(out)) <= ORACLE_RTOL else BAD


def _endpoint_cli_check(closed):
    def check(out):
        lines = out.splitlines()
        if lines[0] != "closed_form,numeric,difference":
            return BAD
        cf, numeric, _ = (float(x) for x in lines[1].split(","))
        ok = abs(cf - closed) <= 1e-14 * max(1.0, abs(closed)) and abs(numeric - closed) <= ENDPOINT_TOL
        return OK if ok else BAD

    return check


def _constants_cli_check(out):
    lines = out.splitlines()
    if lines[0] != "label,expression,value":
        return BAD
    rows = [line.split(",") for line in lines[1:]]
    # values are printed with 15 significant digits
    return _constants_ok([(r[0], r[1], float(r[-1])) for r in rows], 1e-14)


WORKLOADS = {w.name: w for w in (BulkEval, ScalarSession, EndpointCatalog, CliOneshot)}
