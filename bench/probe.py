"""Fresh-process timings; `bench/run.py` starts one interpreter per probe.

    probe.py setup WORKLOAD SEED SPAWN_T   interpreter start, `import meanbounds`
                                           and the first item with cold caches
    probe.py imports                       import times of numpy and meanbounds

Nothing but `sys` and `time` is imported before the timed imports, so the
times include numpy as `import meanbounds` pays for it.  SPAWN_T is the
parent's `time.perf_counter()` just before it started this process; on Linux
that clock is CLOCK_MONOTONIC, shared by both processes.
"""

import sys
import time


def setup(workload, seed, spawn_t):
    import meanbounds  # noqa: F401

    imported = time.perf_counter()
    import workloads

    item = next(workloads.WORKLOADS[workload](seed).passes())[0]
    start = time.perf_counter()
    item.fn(*item.args)
    took = time.perf_counter() - start
    # a CLI item is itself a fresh process, so its wall time is the set-up time
    return took if workload == "cli-oneshot" else imported - spawn_t + took


def imports():
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_done = time.perf_counter()
    import meanbounds  # noqa: F401

    return {"numpy_import_s": numpy_done - start, "import_s": time.perf_counter() - start}


if __name__ == "__main__":
    import json

    if sys.argv[1] == "setup":
        print(json.dumps({"setup_s": setup(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]))}))
    else:
        print(json.dumps(imports()))
