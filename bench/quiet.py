"""Measure on the least contended CPU, and say which part of a run is used.

On a shared host a virtual CPU runs slower while its hyperthread sibling runs
another tenant's work.  On a 2-vCPU Xeon VM (bench/NOTES.md, Machine) each
item's latency falls in one of two modes about 1.6x apart, and the share of
items in the fast mode changes from run to run (about 30-60 %), while the
speed within each mode holds steady.  The plain median of a run, and its mean
rate, fall where the two modes meet and move with that share: whole 20 s runs
of one workload differed by 20-30 %.  Two controls act on the benchmark's own
processes only:

- before each measurement window (and each set-up probe) the benchmark times a
  short pure-Python loop on every CPU it may use and pins itself, and so every
  process it starts, to the fastest one;
- the loop timings of a run come from its slower half of passes and of tail
  blocks (bench/child.py, `summarise`).  The slow mode is present in every
  run, so statistics taken inside it repeat; the fast mode comes and goes.
  Set-up probes, which are single fresh processes, use their faster half
  (`fast_half`).
"""

import math
import os
import time


def allowed_cpus():
    return frozenset(os.sched_getaffinity(0))


def loop_s():
    """Best of three timings of a fixed pure-Python loop, about 0.5 ms each."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(5000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def pin_quietest(cpus):
    """Pin this process to the CPU of `cpus` that runs the loop fastest now.

    Returns the loop time on every CPU of `cpus`."""
    if len(cpus) < 2:
        return {cpu: loop_s() for cpu in cpus}
    timings = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = loop_s()
    os.sched_setaffinity(0, {min(timings, key=timings.get)})
    return timings


def unpin(cpus):
    os.sched_setaffinity(0, cpus)


def fast_half(measurements, speed):
    """The faster half (rounded up) of `measurements` by `speed(m)`, in their original order."""
    ranked = sorted(range(len(measurements)), key=lambda i: speed(measurements[i]), reverse=True)
    keep = sorted(ranked[: math.ceil(len(measurements) / 2)])
    return [measurements[i] for i in keep]
