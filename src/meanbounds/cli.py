"""Command-line surface: evaluation, verification, endpoints, witnesses, tables.

Exit codes: 0 success/verified, 1 verification failed, 2 usage error.  A
usage error prints one `error:` line on stderr and nothing on stdout.
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
from .means import eval_mean, parse_mean
from .numerics import _BLOCK

_TRACEABLE = {
    "log-gap": log_gap,
    "slope-kernel": slope_kernel,
    "curvature-kernel": curvature_kernel,
    "F": log_gap,
    "f1": slope_kernel,
    "f2": curvature_kernel,
}


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _cmd_eval(args) -> int:
    print(_fmt(eval_mean(parse_mean(args.mean), args.a, args.b)))
    return 0


def _cmd_endpoint(args) -> int:
    kind = parse_mean(args.mean)
    # uncatalogued pairs may have no endpoint in the search window: never solve them
    if solver._closed_form(kind, args.family, args.side) is None:
        raise ValueError(f"no closed form catalogued for {args.mean}/{args.family}")
    report = solver.best_exponent(kind, args.family, args.side)
    diff = report.numeric - report.closed_form
    print("closed_form,numeric,difference")
    print(f"{_fmt(report.closed_form)},{_fmt(report.numeric)},{_fmt(diff)}")
    return 0 if abs(diff) <= solver.ENDPOINT_TOLERANCE else 1


def _cmd_witness(args) -> int:
    witness = solver.find_witness(parse_mean(args.mean), args.family, args.param, args.side)
    print("none" if witness is None else _fmt(witness))
    return 0


def _cmd_table(args) -> int:
    chain = args.which == "chain"
    rows = solver.chain_table(args.a, args.b) if chain else solver.constants_table().entries
    print("label,expression,value")
    for label, expr, value in rows:
        print(f"{label},{expr},{_fmt(value)}")
    return 0


def _cmd_trace(args) -> int:
    if not 0 < args.t_min < args.t_max < math.inf or args.n < 2:
        raise ValueError("need 0 < t-min < t-max and n >= 2")
    ts = np.logspace(math.log10(args.t_min), math.log10(args.t_max), args.n)
    values = _TRACEABLE[args.function](ts, args.p)
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

    check = solver.verify_chain if args.which == "chain" else solver.verify_squeeze
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise ValueError("need two distinct positive values --a and --b")
        ok = check(args.a, args.b)
        print("pass" if ok else "FAIL")
        return 0 if ok else 1

    if args.pairs < 1:
        raise ValueError("need --pairs >= 1")
    rng = np.random.default_rng(args.seed)
    # t log-uniform on [5e-11, 13.8]; the pair (1, e^{2t}) has half log ratio t.
    # Drawn per sweep block: the same stream as one draw, in bounded memory
    ok = True
    for start in range(0, args.pairs, _BLOCK):
        n = min(_BLOCK, args.pairs - start)
        ok = check(1.0, np.exp(2.0 * 10.0 ** rng.uniform(-10.3, math.log10(13.8), n))) and ok
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
    # every rejected value, by the library or a check above, is a ValueError
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
