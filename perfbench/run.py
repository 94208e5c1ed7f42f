"""Benchmark runner: host time, set-up and memory of the ``repro`` simulator.

Usage::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seconds 40     # every metric, every workload

Each sample runs in a fresh interpreter (``worker.py``), one at a time,
so set-up is measured from process start and peak RSS belongs to one
run.  Samples repeat until ``--seconds`` is used up and the medians are
reported.  End-to-end seconds are scaled per sample to a host of fixed
speed (see ``worker.host_ref`` and README.md).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1``
spends half the time on untraced samples (set-up split, exact counters,
run-time spread) and half on cProfile-traced samples (per-layer self
time, calls into each layer, tracing overhead).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The simulation's
own outputs (makespan, cost, SLA, digest of the sim output) are printed
on the line before it as ``model: {...}``; they are seed-deterministic
and must be identical between samples of one run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPRO = os.path.join(SRC, "repro")

sys.path.insert(0, HERE)
import layers  # noqa: E402

WORKLOAD_NAMES = ("campaign", "waas_tenants", "fig10_matrix")

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``
END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: exact work counters read from simulation state, with their units
COUNTS = (
    ("simcore.events", "count"),
    ("simcore.peak_queue", "count"),
    ("simcore.trace_records", "count"),
    ("cluster.jobs_completed", "count"),
    ("transfer.bytes", "B"),
    ("transfer.file_ok_ratio", "ratio"),
    ("cloud.instances_launched", "count"),
    ("galaxy.jobs", "count"),
    ("waas.admitted", "count"),
    ("waas.rejected", "count"),
    ("waas.scale_events", "count"),
    ("obs.spans", "count"),
)

#: (name, unit) of the per-layer metrics, reported with ``--trace 1``
PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.world_s", "s"),
    ("setup.inputs_s", "s"),
    *(
        (f"{layer}.{kind}", unit)
        for layer in layers.LAYERS + (layers.UNATTRIBUTED,)
        for kind, unit in (("self_s", "s"), ("share", "ratio"), ("calls_in", "count"))
        if not (layer == layers.UNATTRIBUTED and kind == "calls_in")
    ),
    *COUNTS,
    ("simcore.events_per_s", "1/s"),
    ("cluster.calls_in_per_job", "calls/job"),
    ("trace.overhead", "ratio"),
    ("run_s.samples", "count"),
    ("run_s.spread", "ratio"),
    ("run_s.wall", "s"),
    ("setup_s.wall", "s"),
    ("host.ref_s", "s"),
)

MIN_UNTRACED = 3

#: time of ``worker.host_ref`` on the host the reported seconds are scaled to
REF_NOMINAL_S = 0.1


class BenchError(Exception):
    """The benchmark could not run or its samples disagree."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        # identical hash order in every sample, so counters repeat exactly
        PYTHONHASHSEED="0",
        # all load from one single-threaded process
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def sample(workload: str, seed: int, traced: bool, size: str) -> dict:
    """Run one worker; returns its document plus ``setup_s``/``wall_s``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           workload, str(seed), "1" if traced else "0", size]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        result = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {workload} seed {seed} exited with code {code}")
    doc = json.loads(result.strip().splitlines()[-1])
    doc["setup_s"] = setup_s
    doc["wall_s"] = time.perf_counter() - t0
    return doc


def collect(workload: str, seed: int, traced: bool, size: str,
            until: float, minimum: int) -> list[dict]:
    """Samples until ``until`` (perf_counter) would be overrun, at least ``minimum``."""
    docs: list[dict] = []
    while True:
        if len(docs) >= minimum:
            expected = statistics.median(d["wall_s"] for d in docs)
            if time.perf_counter() + expected > until:
                return docs
        docs.append(sample(workload, seed, traced, size))


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def scaled(doc: dict, key: str) -> float:
    """A sample's seconds scaled to a host on which ``host_ref`` takes
    ``REF_NOMINAL_S`` (see ``worker.host_ref``)."""
    return doc[key] * REF_NOMINAL_S / doc["ref_s"]


def same(docs: list[dict], key: str) -> bool:
    return all(d[key] == docs[0][key] for d in docs[1:])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """One benchmark run; returns the result object and the model outputs."""
    start = time.perf_counter()
    if trace:
        untraced = collect(workload, seed, False, size, start + seconds / 2, MIN_UNTRACED)
        traced = collect(workload, seed, True, size, start + seconds, 1)
    else:
        untraced = collect(workload, seed, False, size, start + seconds, MIN_UNTRACED)
        traced = []
    docs = untraced + traced
    if not (same(docs, "model") and same(docs, "counts")):
        raise BenchError("samples of one seed disagree on model outputs or counters")
    if traced and not all(
        d["layers"]["calls_in"] == traced[0]["layers"]["calls_in"] for d in traced
    ):
        raise BenchError("traced samples disagree on calls_in")

    med = statistics.median
    run_s = [d["run_s"] for d in untraced]
    setup_s = [d["setup_s"] for d in untraced]
    if trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = {
            "run_s": med(scaled(d, "run_s") for d in untraced),
            "setup_s": med(scaled(d, "setup_s") for d in untraced),
            "peak_rss_mb": med(d["rss_mb"] for d in untraced),
        }
    units = dict(PER_LAYER if trace else END_TO_END)
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    errors = sorted({e for d in docs for e in d["errors"]})
    return {
        "result": {
            "correct": failed == 0 and not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "model": docs[0]["model"],
        "errors": errors,
        "run_s": {"median": med(run_s), "spread": spread(run_s), "samples": len(run_s)},
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    med = statistics.median
    counts = untraced[0]["counts"]
    run_s = med(d["run_s"] for d in untraced)
    world_s = med(d["world_s"] for d in untraced)
    inputs_s = med(d["inputs_s"] for d in untraced)
    metrics = {
        "setup.import_s": med(d["setup_s"] - d["world_s"] - d["inputs_s"] for d in untraced),
        "setup.world_s": world_s,
        "setup.inputs_s": inputs_s,
    }
    calls_in = traced[0]["layers"]["calls_in"]
    for layer in layers.LAYERS + (layers.UNATTRIBUTED,):
        metrics[f"{layer}.self_s"] = med(d["layers"]["self_s"][layer] for d in traced)
        metrics[f"{layer}.share"] = med(
            d["layers"]["self_s"][layer] / d["layers"]["total_s"] for d in traced
        )
        if layer != layers.UNATTRIBUTED:
            metrics[f"{layer}.calls_in"] = calls_in[layer]
    metrics.update({name: counts[name] for name, _unit in COUNTS})
    jobs = counts["cluster.jobs_completed"]
    metrics["simcore.events_per_s"] = counts["simcore.events"] / run_s
    metrics["cluster.calls_in_per_job"] = calls_in["cluster"] / jobs if jobs else 0.0
    metrics["trace.overhead"] = med(d["run_s"] for d in traced) / run_s
    metrics["run_s.samples"] = len(untraced)
    metrics["run_s.spread"] = spread([d["run_s"] for d in untraced])
    metrics["run_s.wall"] = run_s
    metrics["setup_s.wall"] = med(d["setup_s"] for d in untraced)
    metrics["host.ref_s"] = med(d["ref_s"] for d in untraced + traced)
    return metrics


def preflight() -> None:
    """Refuse to run without the program's sources or with an unmapped package."""
    if not os.path.isfile(os.path.join(REPRO, "__init__.py")):
        raise BenchError(f"no repro sources under {SRC}")
    missing = layers.unmapped_packages(REPRO)
    if missing:
        raise BenchError(f"repro packages without a layer: {', '.join(missing)}")
    # compile once up front so no sample pays for writing bytecode
    compileall.compile_dir(SRC, quiet=1)


def report(seed: int, seconds: float, size: str) -> None:
    """Every end-to-end and per-layer metric of every workload, by name."""
    for workload in WORKLOAD_NAMES:
        for trace in (False, True):
            out = measure(workload, seed, seconds, trace, size)
            res = out["result"]
            print(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'}): "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} "
                  f"failed_frac={res['failed'] / res['attempted']:.4f}")
            for name, m in res["metrics"].items():
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
        print(f"  model: {json.dumps(out['model'], sort_keys=True)}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="report every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shapes for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    try:
        preflight()
        if args.all:
            report(args.seed, args.seconds, args.size)
            return 0
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (BenchError, layers.UnmappedPackage) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    run_s = out["run_s"]
    print(f"run_s wall: median {run_s['median']:.4f} s, spread {run_s['spread']:.4f}, "
          f"{run_s['samples']} samples")
    for error in out["errors"]:
        print(f"check failed: {error}")
    print("model: " + json.dumps(out["model"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
