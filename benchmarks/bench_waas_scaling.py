"""WaaS tenant scaling: the 100k-tenant stressor shape at 1k..100k tenants.

Runs the ``FULL_GRID`` stressor shape (``queue_depth`` autoscaling over
4-task DAGs at 50 arrivals/s) with ``tenants = workflows = N`` for each
requested N.  Every point runs in a fresh interpreter, so its peak RSS
is its own, and prints wall time, kernel events, events/s, peak RSS and
``tasks_failed`` (every point also passes ``WaasResult.check_shape``).
With ``--trajectory`` each point is appended to the perf trajectory as
suite ``waas-scale-<N>``.

    PYTHONPATH=src python benchmarks/bench_waas_scaling.py --tenants 1000 10000
    PYTHONPATH=src python benchmarks/bench_waas_scaling.py \\
        --tenants 10000 100000 --trajectory BENCH_trajectory.json
"""

import argparse
import json
import pathlib
import resource
import subprocess
import sys
from dataclasses import asdict, replace

from repro.bench import harness, trajectory, waas


def shape(tenants: int) -> waas.WaasConfig:
    return replace(waas.FULL_GRID[3], tenants=tenants, workflows=tenants)


def run_point(tenants: int) -> dict:
    """One point, in this process: the run's metrics plus its peak RSS."""
    result = waas.run(shape(tenants))
    result.check_shape()
    return {
        "tenants": tenants,
        "wall_seconds": round(result.wall_seconds, 3),
        "events_processed": result.events_processed,
        "events_per_sec": round(result.events_per_sec, 1),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
        "tasks_submitted": result.tasks_submitted,
        "tasks_failed": result.tasks_failed,
        "sla_attainment": result.sla_attainment,
    }


def run_fresh(tenants: int) -> dict:
    """Run one point in a child interpreter and return its JSON line."""
    out = subprocess.run(
        [sys.executable, __file__, "--point", str(tenants)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def record(point: dict) -> trajectory.TrajectoryRecord:
    """The point as a trajectory record (one run, ok: ``check_shape``
    already asserted that no task was lost)."""
    config = shape(point["tenants"])
    spec = harness.BenchSpec(
        name=f"waas/{config.policy}/t{config.tenants}-w{config.workflows}",
        task="waas.run",
        params=asdict(config),
    )
    return trajectory.TrajectoryRecord(
        commit=trajectory.current_commit(),
        date=trajectory.utc_now_iso(),
        suite=f"waas-scale-{point['tenants']}",
        config_digest=harness.config_digest([spec]),
        workers=1,
        wall_seconds=point["wall_seconds"],
        events_processed=point["events_processed"],
        events_per_sec=point["events_per_sec"],
        tasks_ok=1,
        tasks_failed=point["tasks_failed"],
        peak_rss_mb=point["peak_rss_mb"],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tenants", type=int, nargs="+", default=[1000, 3000, 10000]
    )
    parser.add_argument(
        "--trajectory", type=pathlib.Path, default=None,
        help="append each point to this perf-trajectory file",
    )
    parser.add_argument("--point", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point is not None:
        print(json.dumps(run_point(args.point)))
        return
    print("| tenants | wall (s) | events | events/s | peak RSS (MB) | tasks | failed |")
    print("|---|---|---|---|---|---|---|")
    for tenants in args.tenants:
        p = run_fresh(tenants)
        print(
            f"| {tenants:,} | {p['wall_seconds']:.2f} | {p['events_processed']:,} "
            f"| {p['events_per_sec']:,.0f} | {p['peak_rss_mb']:,.0f} "
            f"| {p['tasks_submitted']:,} | {p['tasks_failed']} |",
            flush=True,
        )
        if args.trajectory is not None:
            trajectory.append(record(p), args.trajectory)


if __name__ == "__main__":
    main()
