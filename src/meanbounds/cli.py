"""Command-line surface: evaluation, verification, endpoints, witnesses, tables.

Exit codes: 0 success/verified, 1 verification failed, 2 usage error.
All numeric output is printed with 15 significant digits, '.' decimal
separator, comma-separated CSV with a header row and LF line endings.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import solver
from .kernels import curvature_kernel, log_gap, slope_kernel
from .means import MeanKind, eval_mean, parse_mean

_TRACEABLE = {
    "log-gap": log_gap,
    "slope-kernel": slope_kernel,
    "curvature-kernel": curvature_kernel,
    "F": log_gap,
    "f1": slope_kernel,
    "f2": curvature_kernel,
}


_CHAIN_BLOCK = 65_536


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_eval(args) -> int:
    try:
        kind = parse_mean(args.mean)
        value = eval_mean(kind, args.a, args.b)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(_fmt(value))
    return 0


def _cmd_endpoint(args) -> int:
    try:
        kind = parse_mean(args.mean)
        report = solver.best_exponent(kind, args.family, args.side)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if report.closed_form is None:
        return _fail_usage(f"no closed form catalogued for {args.mean}/{args.family}")
    diff = report.numeric - report.closed_form
    print("closed_form,numeric,difference")
    print(f"{_fmt(report.closed_form)},{_fmt(report.numeric)},{_fmt(diff)}")
    return 0 if abs(diff) <= solver.ENDPOINT_TOLERANCE else 1


def _cmd_witness(args) -> int:
    try:
        kind = parse_mean(args.mean)
        if args.family not in solver.FAMILIES or args.side not in solver.SIDES:
            raise ValueError("family must be power|lehmer, side lower|upper")
        witness = solver.find_witness(kind, args.family, args.param, args.side)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if witness is None:
        print("none")
    else:
        print(_fmt(witness))
    return 0


def _cmd_table(args) -> int:
    print("label,expression,value")
    if args.which == "constants":
        for label, expr, value in solver.constants_table().entries:
            print(f"{label},{expr},{_fmt(value)}")
        return 0
    try:
        rows = solver.chain_table(args.a, args.b)
    except ValueError as exc:
        return _fail_usage(str(exc))
    for label, expr, value in rows:
        print(f"{label},{expr},{_fmt(value)}")
    return 0


def _cmd_trace(args) -> int:
    if args.t_min <= 0 or args.t_max <= args.t_min or args.n < 2:
        return _fail_usage("need 0 < t-min < t-max and n >= 2")
    func = _TRACEABLE[args.function]
    ts = np.logspace(math.log10(args.t_min), math.log10(args.t_max), args.n)
    try:
        values = func(ts, args.p)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print("t,value")
    for t, v in zip(ts, values):
        print(f"{_fmt(t)},{_fmt(v)}")
    return 0


def _cmd_verify(args) -> int:
    if args.which == "seiffert-lehmer":
        results = solver.verify_seiffert_lehmer()
        for key in sorted(k for k in results if k.endswith("_ok")):
            print(f"{key},{'pass' if results[key] else 'FAIL'}")
        return 0 if results["ok"] else 1

    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None or args.a <= 0 or args.b <= 0 or args.a == args.b:
            return _fail_usage("need two distinct positive values --a and --b")
        check = solver.verify_chain if args.which == "chain" else solver.verify_squeeze
        ok = check(args.a, args.b)
        print("pass" if ok else "FAIL")
        return 0 if ok else 1

    rng = np.random.default_rng(args.seed)
    t = 10.0 ** rng.uniform(-10.3, math.log10(13.8), args.pairs)
    if args.which == "chain":
        # blocks bound the sweep's memory: the margins of 10^6 pairs would
        # otherwise take about 200 MB at once
        ok = all(
            bool(np.all(solver.chain_margins(t[i : i + _CHAIN_BLOCK]) >= -solver.TIE))
            for i in range(0, args.pairs, _CHAIN_BLOCK)
        )
    else:
        low, high = solver.squeeze_margins(t)
        ok = bool(np.all(low > 0) and np.all(high > 0))
    print(f"pairs,{args.pairs}")
    print(f"result,{'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meanbounds",
        description="Evaluate bivariate means and verify their sharp power/lehmer bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a mean at a pair")
    p_eval.add_argument("--mean", required=True, help="e.g. sandor-yang, power:2, lehmer:0.5")
    p_eval.add_argument("--a", type=float, required=True)
    p_eval.add_argument("--b", type=float, required=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_end = sub.add_parser("endpoint", help="recover a sharp bound exponent numerically")
    p_end.add_argument("--mean", required=True)
    p_end.add_argument("--family", required=True, choices=solver.FAMILIES)
    p_end.add_argument("--side", required=True, choices=solver.SIDES)
    p_end.set_defaults(func=_cmd_endpoint)

    p_wit = sub.add_parser("witness", help="find a t where a claimed bound fails")
    p_wit.add_argument("--mean", required=True)
    p_wit.add_argument("--family", required=True, choices=solver.FAMILIES)
    p_wit.add_argument("--param", type=float, required=True)
    p_wit.add_argument("--side", required=True, choices=solver.SIDES)
    p_wit.set_defaults(func=_cmd_witness)

    p_tab = sub.add_parser("table", help="emit a CSV table of constants or the bound chain")
    p_tab.add_argument("--which", required=True, choices=("chain", "constants"))
    p_tab.add_argument("--a", type=float, default=1.0)
    p_tab.add_argument("--b", type=float, default=3.0)
    p_tab.set_defaults(func=_cmd_table)

    p_tr = sub.add_parser("trace", help="emit t,value CSV samples of a kernel function")
    p_tr.add_argument("--function", required=True, choices=tuple(_TRACEABLE))
    p_tr.add_argument("--p", type=float, required=True)
    p_tr.add_argument("--t-min", type=float, required=True)
    p_tr.add_argument("--t-max", type=float, required=True)
    p_tr.add_argument("--n", type=int, required=True)
    p_tr.set_defaults(func=_cmd_trace)

    p_ver = sub.add_parser("verify", help="verify a bound chain or inequality family")
    p_ver.add_argument("--which", required=True, choices=("chain", "squeeze", "seiffert-lehmer"))
    p_ver.add_argument("--a", type=float, default=None)
    p_ver.add_argument("--b", type=float, default=None)
    p_ver.add_argument("--pairs", type=int, default=10_000)
    p_ver.add_argument("--seed", type=int, default=20260814)
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
