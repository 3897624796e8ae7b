"""Benchmark of meanbounds: one workload per run, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see bench/NOTES.md):
bulk-eval, scalar-session, endpoint-catalog, cli-oneshot.

--trace 0 reports the end-to-end metrics: `setup_s` as the median over fresh
processes (interpreter start, `import meanbounds`, first item with cold
caches), then one workload process measured for S seconds.  --trace 1 reports
the per-layer metrics of BENCHMARK.json from a process that runs S/2 seconds
untraced and S/2 seconds traced.  Every workload process runs with its BLAS and
OpenMP thread pools set to one thread.  Every measurement window and set-up
probe starts on the least contended CPU; the loop timings come from the
slower half of the passes and the set-up time from the faster half of the
probes (bench/quiet.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `failed` counts items whose output failed a check, and any failure
makes `correct` false.  The known overflow defect at ratios past DBL_MAX is
kept out of the timed loops and probed apart: the line before the result says
how many of the 15 means are wrong on the extreme pairs.  The process exits 1
if it cannot measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from quiet import allowed_cpus, fast_half, pin_quietest, unpin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_POOLS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
SETUP_PROBES = 21  # fresh processes per set-up median, after one discarded priming run
IMPORT_PROBES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(1)


def child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.update(THREAD_POOLS)
    return env


def run_json(argv, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(argv)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"exit code {proc.returncode}: {' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload, seed, deadline):
    """Median over the faster half of fresh probe processes, each started on
    the least contended CPU (bench/quiet.py); also every probe's time."""
    probe = os.path.join(HERE, "probe.py")
    cpus = allowed_cpus()
    runs = []
    try:
        for _ in range(SETUP_PROBES + 1):
            pin_quietest(cpus)
            spawn_t = time.perf_counter()
            runs.append(run_json([probe, "setup", workload, str(seed), repr(spawn_t)], deadline)["setup_s"])
    finally:
        unpin(cpus)
    runs = runs[1:]
    return statistics.median(fast_half(runs, lambda setup: -setup)), [round(setup, 4) for setup in runs]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "meanbounds", "__init__.py")):
        fail("no meanbounds sources under src/; run from the root of a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    if not args.trace:
        setup_s, setups = setup_seconds(args.workload, args.seed, deadline)
    else:
        imports = [run_json([os.path.join(HERE, "probe.py"), "imports"], deadline) for _ in range(IMPORT_PROBES)]
    child = [os.path.join(HERE, "child.py"), "run", "--workload", args.workload, "--seed", str(args.seed)]
    child += ["--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    res = run_json(child, deadline)

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = res["layers"]
        for key in ("import_s", "numpy_import_s"):
            metrics[f"cli.{key}"] = {"value": statistics.median(p[key] for p in imports), "unit": "s"}
        metrics["bench.error_share"] = {"value": failed / attempted, "unit": "ratio"}
        metrics["bench.repeat_share"] = {"value": res["repeat_share"], "unit": "ratio"}
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        units = {"items_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
        metrics.update({name: {"value": res[name], "unit": unit} for name, unit in units.items()})
        wanted = spec["end_to_end"]
        print(
            f"{args.workload}: {res['samples']} items in the slower {res['passes']} passes; "
            f"tail = p{res['tail_percentile']:.3f}, median over the slower {res['tail_blocks']} tail blocks; error_share = {failed}/{attempted} = {failed / attempted:.4g}; "
            f"repeat_share = {res['repeat_share']:.4g}; means wrong on the extreme pairs (untimed) = {res['extreme_pairs']}; "
            f"setup_s runs = {setups}"
        )
    if set(metrics) != {m["name"] for m in wanted}:
        fail(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} does not match BENCHMARK.json")
    for what in res["bad_items"] + res["bad_checks"]:
        print(f"check failed: {what}", file=sys.stderr)
    correct = not res["bad_items"] and not res["bad_checks"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
