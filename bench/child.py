"""Workload processes of the benchmark; `bench/run.py` starts each in a fresh interpreter.

    child.py run --workload W --seed N --seconds S --trace 0|1 --out DIR
    child.py cli --spans-dir DIR -- ARGV...     one traced CLI process

`run` prints one JSON object on stdout; `cli` prints what the CLI prints.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array

from quiet import allowed_cpus, pin_quietest


def _cli(args):
    """Run the CLI's main() under the tracer and write its spans to a file."""
    import meanbounds.cli

    from tracing import Tracer, write_spans

    tracer = Tracer()
    tracer.install()
    try:
        code = meanbounds.cli.main(args.argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        write_spans(tracer.spans, os.path.join(args.spans_dir, f"cli-{os.getpid()}.csv.gz"))
    raise SystemExit(code)


REPEAT_SAMPLE = 100_000  # items whose keys are kept for the repeat share


class Tally:
    """Checks every item's output outside the timed region and counts failures."""

    def __init__(self):
        from workloads import OK

        self._ok = OK
        self.attempted = 0
        self.failed = 0
        self.bad = []
        # hashes of the first REPEAT_SAMPLE item keys, in a flat array: keeping
        # every key would grow the RSS in step with throughput
        self._hashes = array("q")

    def check(self, item, out):
        self.attempted += 1
        if len(self._hashes) < REPEAT_SAMPLE:
            self._hashes.append(hash(item.key))
        if item.check(out) != self._ok:
            self.failed += 1
            if len(self.bad) < 20:
                self.bad.append(repr(item.key)[:200])

    def repeat_share(self):
        """Share of the sampled items whose key equals an earlier item's."""
        return 1.0 - len(set(self._hashes)) / len(self._hashes)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def block_tail(block):
    """The highest percentile with at least 10 items beyond it (the slowest
    item in a block of 10 or fewer): (value, percentile)."""
    ordered = sorted(block)
    n = len(ordered)
    return (ordered[n - 11], 100.0 * (n - 10) / n) if n > 10 else (ordered[-1], 100.0)


class Run:
    """What the closed loop records: per pass its rate (items over busy time)
    and item count, per tail block its (rate, tail, percentile), every item
    latency in pass order, spooled to a file, and the peak RSS."""

    def __init__(self, spool_path):
        self.spool_path = spool_path
        self.pass_rates, self.pass_sizes, self.blocks = array("d"), array("q"), []
        self.peak_rss_mb = None


def closed_loop(passes, seconds, wl, tally, cpus, spool_path, peak_rss_mb, by_label=None):
    """Run whole passes back to back, one caller, for `seconds` of wall time.

    A warm-up of at least `wl.window_s` of busy time (at least one pass) is
    run first and discarded.  After every `wl.window_s` of busy time the loop
    re-pins itself, between passes, to the least contended CPU of `cpus`.  A
    tail block is the fewest whole passes with at least `wl.tail_block`
    items, so every block holds the same mix.  Latencies go to the spool file
    at each re-pin, so the loop's own memory does not grow with the run's
    throughput; with `by_label`, each item's latency is also added to
    `by_label[item label]`.  `peak_rss_mb()` is read after `wl.rss_passes`
    measured passes (or at the end, if the run is shorter): a fixed amount of
    work, so memory that grows with the work done, such as an unbounded
    cache, counts the same in every run whatever the host's speed.  Returns
    the Run and CPU seconds per wall second.
    """
    clock = time.perf_counter
    pin_quietest(cpus)
    busy = 0.0
    while True:
        for item in next(passes):
            start = clock()
            out = item.fn(*item.args)
            busy += clock() - start
            tally.check(item, out)
        if busy >= wl.window_s:
            break
    run = Run(spool_path)
    pending, block, block_busy, since_pin = array("d"), array("d"), 0.0, 0.0
    pin_quietest(cpus)
    with open(spool_path, "wb") as spool:
        cpu0, start_all = _cpu_s(), clock()
        while clock() - start_all < seconds or not run.blocks:
            first, busy = len(pending), 0.0
            for item in next(passes):
                start = clock()
                out = item.fn(*item.args)
                took = clock() - start
                pending.append(took)
                if by_label is not None:
                    by_label.setdefault(item.key[0], array("d")).append(took)
                tally.check(item, out)
                busy += took
            n = len(pending) - first
            run.pass_rates.append(n / busy)
            run.pass_sizes.append(n)
            if len(run.pass_sizes) == wl.rss_passes:
                run.peak_rss_mb = peak_rss_mb()
            block.extend(pending[first:])
            block_busy += busy
            if len(block) >= wl.tail_block:
                run.blocks.append((len(block) / block_busy, *block_tail(block)))
                block, block_busy = array("d"), 0.0
            since_pin += busy
            if since_pin >= wl.window_s:
                pending.tofile(spool)
                pending, since_pin = array("d"), 0.0
                pin_quietest(cpus)
        cpu_per_wall = (_cpu_s() - cpu0) / (clock() - start_all)
        pending.tofile(spool)
    if run.peak_rss_mb is None:
        run.peak_rss_mb = peak_rss_mb()
    return run, cpu_per_wall


def summarise(run):
    """End-to-end timings over the slower half of the passes and of the tail
    blocks (see bench/quiet.py for why the slower half)."""
    import numpy as np

    rates = np.asarray(run.pass_rates)
    slow = np.zeros(len(rates), dtype=bool)
    slow[np.argsort(rates)[: (len(rates) + 1) // 2]] = True
    latencies = np.fromfile(run.spool_path)
    os.remove(run.spool_path)
    kept = latencies[np.repeat(slow, np.asarray(run.pass_sizes))]
    blocks = sorted(run.blocks)[: (len(run.blocks) + 1) // 2]
    return {
        "items_per_s": float(np.median(rates[slow])),
        "latency_p50_ms": float(np.median(kept)) * 1e3,
        "latency_tail_ms": statistics.median(tail for _, tail, _ in blocks) * 1e3,
        "tail_percentile": statistics.median(pct for _, _, pct in blocks),
        "samples": len(kept),
        "passes": f"{int(slow.sum())} of {len(rates)}",
        "tail_blocks": f"{len(blocks)} of {len(run.blocks)}",
    }


def _alloc_kib_per_pair(calls):
    """tracemalloc peak of each eval_mean call, per pair, by mean tag."""
    import tracemalloc

    out = {}
    tracemalloc.start()
    try:
        for tag, fn, args, pairs in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            out[tag] = (tracemalloc.get_traced_memory()[1] - base) / pairs / 1024.0
    finally:
        tracemalloc.stop()
    return out


def _merge_cli_spans(spans_dir):
    from tracing import read_spans

    merged = []
    for name in sorted(os.listdir(spans_dir)):
        if name.startswith("cli-"):
            path = os.path.join(spans_dir, name)
            offset = len(merged)
            merged.extend(
                (n, tag, s, e, parent + offset if parent >= 0 else -1, el)
                for n, tag, s, e, parent, el in read_spans(path)
            )
            os.remove(path)
    return merged


def _run(args):
    import workloads
    from tracing import Profile, Tracer, write_spans

    cls = workloads.WORKLOADS[args.workload]
    is_cli = cls is workloads.CliOneshot
    tally = Tally()
    cpus = allowed_cpus()
    spool = os.path.join(args.out, f"latencies-{os.getpid()}.f64")
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF

    def peak_rss_mb():
        return resource.getrusage(who).ru_maxrss / 1024.0

    result = {}
    if not args.trace:
        wl = cls(args.seed)
        run, _ = closed_loop(wl.passes(), args.seconds, wl, tally, cpus, spool, peak_rss_mb)
        result.update(summarise(run), peak_rss_mb=run.peak_rss_mb)
    else:
        half = args.seconds / 2.0
        wl = cls(args.seed)
        walls = {}
        untraced, cpu_per_wall = closed_loop(
            wl.passes(), half, wl, tally, cpus, spool, peak_rss_mb, walls if is_cli else None
        )
        untraced_rate = summarise(untraced)["items_per_s"]
        if is_cli:
            spans_dir = os.path.join(args.out, f"cli-spans-{os.getpid()}")
            os.makedirs(spans_dir, exist_ok=True)
            launcher = [sys.executable, os.path.abspath(__file__), "cli", "--spans-dir", spans_dir, "--"]
            traced = cls(args.seed + 1, launcher=launcher)
            run, _ = closed_loop(traced.passes(), half, traced, tally, cpus, spool, peak_rss_mb)
            spans = _merge_cli_spans(spans_dir)
            os.rmdir(spans_dir)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                traced = cls(args.seed + 1)
                run, _ = closed_loop(traced.passes(), half, traced, tally, cpus, spool, peak_rss_mb)
            finally:
                tracer.uninstall()
            spans = tracer.spans
        write_spans(spans, os.path.join(args.out, f"spans-{args.workload}.csv.gz"))
        result["layers"] = layer_metrics(
            Profile(spans),
            trace_overhead=summarise(run)["items_per_s"] / untraced_rate,
            cpu_per_wall=cpu_per_wall,
            alloc=_alloc_kib_per_pair(wl.alloc_probe()),
            cli_runs={
                label: (statistics.median(walls[label]), kib / 1024.0)
                for label, kib in getattr(wl, "peak_rss_kib", {}).items()
            },
        )
    final = wl.final_checks()
    wrong, evaluated = workloads.extreme_pair_failures()
    if args.trace:
        result["layers"]["means.extreme_pair_failures"] = {"value": wrong, "unit": "count"}
    result.update(
        extreme_pairs=f"{wrong} of {evaluated}",
        attempted=tally.attempted,
        failed=tally.failed,
        repeat_share=tally.repeat_share(),
        bad_items=tally.bad,
        bad_checks=[what for what, ok in final if not ok],
    )
    print(json.dumps(result))


NUMERIC_KERNELS = ("logcosh", "logsinh", "atan_tanh_ratio_m1", "atan_sinh_ratio_m1")


def layer_metrics(profile, trace_overhead, cpu_per_wall, alloc, cli_runs):
    """Per-layer metrics of one traced run, except the two import times."""
    from tracing import MODULES
    from workloads import MEAN_TAGS, CliOneshot

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    put("bench.trace_overhead", trace_overhead, "ratio")
    put("bench.cpu_per_wall", cpu_per_wall, "ratio")
    for module in MODULES:
        put(f"{module}.calls", profile.calls[module], "count")
        put(f"{module}.self_s", profile.self_s[module], "s")
        put(f"{module}.self_share", profile.share(profile.self_s[module]), "ratio")
    put("numerics.ellipe_agm.self_s", profile.self_s["numerics.ellipe_agm"], "s")
    put("numerics.gauss_legendre_quadrant.calls", profile.calls["numerics.gauss_legendre_quadrant"], "count")
    for fn in NUMERIC_KERNELS:
        put(f"numerics.{fn}.self_s", profile.self_s[f"numerics.{fn}"], "s")
        put(f"numerics.{fn}.elems", profile.elems[f"numerics.{fn}"], "count")
    put(
        "means.eval_mean.self_us_per_call",
        per(profile.self_s["means.eval_mean"], profile.calls["means.eval_mean"]) * 1e6,
        "us",
    )
    put("means.log_mean_normalized.self_s", profile.self_s["means.log_mean_normalized"], "s")
    for tag in MEAN_TAGS:
        key = f"means.eval_mean[{tag}]"
        put(f"means.{tag}.self_share", profile.share(profile.tag_self_s[tag]), "ratio")
        put(f"means.{tag}.s_per_mpair", per(profile.incl_s[key], profile.elems[key]) * 1e6, "s/Mpair")
        put(f"means.{tag}.alloc_kb_per_pair", alloc.get(tag, 0.0), "KiB/pair")
    put("kernels.slope_kernel.calls", profile.calls["kernels.slope_kernel"], "count")
    endpoints = profile.calls["solver.best_exponent"]
    put("solver.best_exponent.calls", endpoints, "count")
    put("solver.grid_evals_per_endpoint", per(profile.endpoint_grid_evals, endpoints), "count")
    put(
        "solver.limit_rejects_per_endpoint",
        per(profile.endpoint_predicates - profile.endpoint_grid_evals, endpoints),
        "count",
    )
    for fn in ("best_exponent", "gap_peak", "chain_margins"):
        put(f"solver.{fn}.self_s", profile.self_s[f"solver.{fn}"], "s")
    put("cli.main.self_s", profile.self_s["cli.main"], "s")
    for label in CliOneshot.COMMANDS:
        wall_s, rss_mb = cli_runs.get(label, (0.0, 0.0))
        put(f"cli.{label}.wall_s", wall_s, "s")
        put(f"cli.{label}.rss_mb", rss_mb, "MB")
    return metrics


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run)
    p = sub.add_parser("cli")
    p.add_argument("--spans-dir", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    args.func(args)


if __name__ == "__main__":
    main()
