"""One sample of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED TRACED SIZE``

Protocol on standard output (the workload's own prints go to stderr):

1. the line ``ready`` once imports, world and inputs are built, so the
   parent can time set-up from process start;
2. one JSON line with the sample: run time, peak RSS, set-up split, the
   output check, exact work counters and, when ``TRACED`` is 1, the
   per-layer host-time attribution of the run.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from heapq import heappop, heappush

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def host_ref(n: int = 120_000) -> float:
    """Seconds a fixed pure-Python loop (heap, dict, calls) takes right now.

    The host's CPU speed drifts by tens of percent within seconds and
    over minutes, and the simulator's run and import times drift with it.
    Timed next to the run, the loop measures that drift, so ``run.py`` can
    scale a sample's seconds to a host of fixed speed.  It is benchmark
    code: no change to the program moves it.
    """
    t0 = time.perf_counter()
    heap: list = []
    counts: dict = {}
    for i in range(n):
        heappush(heap, ((i * 7919) % 10007, i))
        key = i % 997
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 512:
            heappop(heap)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    name, seed, traced, size = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    sys.path.insert(0, SRC)
    import layers
    import workloads

    out, sys.stdout = sys.stdout, sys.stderr
    workload = workloads.WORKLOADS[name](size)
    workload.load()
    t0 = time.perf_counter()
    workload.world(seed)
    t1 = time.perf_counter()
    workload.inputs(seed)
    t2 = time.perf_counter()
    out.write("ready\n")
    out.flush()

    ref_before = host_ref()
    profiler = None
    if traced:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    t3 = time.perf_counter()
    workload.run()
    run_s = time.perf_counter() - t3
    if profiler is not None:
        profiler.disable()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_s = (ref_before + host_ref()) / 2

    doc = {
        "run_s": run_s,
        "world_s": t1 - t0,
        "inputs_s": t2 - t1,
        "rss_mb": rss_mb,
        "ref_s": ref_s,
        **workload.check().to_dict(),
    }
    if profiler is not None:
        import pstats

        classifier = layers.Classifier(os.path.join(SRC, "repro"), HERE)
        doc["layers"] = layers.attribute(pstats.Stats(profiler).stats, classifier)
    out.write(json.dumps(doc) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stderr.flush()
    # skip tearing down the simulated world's heap: the sample is complete
    os._exit(code)
