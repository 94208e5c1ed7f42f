"""The benchmark's three workloads, driven through the layers' public APIs.

Each workload is a class whose steps ``worker.py`` times separately:

* ``load()`` imports the ``repro`` modules the workload needs;
* ``world(seed)`` builds the simulated world(s);
* ``inputs(seed)`` generates the workload's inputs from the seed;
* ``run()`` drains the workload (the timed region);
* ``check()`` verifies the outputs and returns an :class:`Outcome`.

Why these three: see ``README.md`` next to this file.  The classes never
pass ``scheduler=``/``dispatch=`` and never call the ``gp-bench``
entry points, so a change to the kernel's modes or to ``repro.bench`` is
measured by unchanged benchmark code.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field

MB = 1024 * 1024


@dataclass
class Outcome:
    """What ``check`` found: units attempted/failed, model outputs, counts."""

    attempted: int
    failed: int
    model: dict
    counts: dict
    #: invariants that do not belong to one unit; any failure here fails
    #: every unit of the run
    global_errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        failed = self.attempted if self.global_errors else self.failed
        return {
            "attempted": self.attempted,
            "failed": failed,
            "model": self.model,
            "counts": self.counts,
            "errors": self.global_errors,
        }


def digest(doc) -> str:
    """Short stable hash of a JSON-able simulation output."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def world_counts(beds, pools, galaxies=(), spans: int = 0) -> dict:
    """Exact per-layer work counters read from public simulation state."""
    from repro.cluster.condor import JobState

    files_ok = sum(t.files_transferred for b in beds for t in b.go.tasks.values())
    faults = sum(t.faults for b in beds for t in b.go.tasks.values())
    attempts = files_ok + faults
    return {
        "simcore.events": sum(b.ctx.sim.events_processed for b in beds),
        "simcore.peak_queue": max(b.ctx.sim.peak_queue_depth for b in beds),
        # the always-on structured log, counted without materialising its
        # records (which would cost more than some runs); 0 once a context
        # no longer has one
        "simcore.trace_records": sum(
            len(b.ctx.trace._rows) for b in beds if hasattr(b.ctx, "trace")
        ),
        "cluster.jobs_completed": sum(
            1 for p in pools for j in p.schedd.jobs.values()
            if j.state is JobState.COMPLETED
        ),
        "transfer.bytes": sum(
            t.bytes_transferred for b in beds for t in b.go.tasks.values()
        ),
        "transfer.file_ok_ratio": files_ok / attempts if attempts else 0.0,
        "cloud.instances_launched": sum(len(b.ec2.instances) for b in beds),
        "galaxy.jobs": sum(len(g.jobs.jobs) for g in galaxies),
        "waas.admitted": 0,
        "waas.rejected": 0,
        "waas.scale_events": 0,
        "obs.spans": spans,
    }


# ---------------------------------------------------------------------------
# campaign: one big deploy, then a flood of transfers and Condor jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSize:
    workers: int = 125          # + 3 head nodes = a 128-node deployment
    transfers: int = 2000
    jobs: int = 20000
    owners: int = 8
    file_mb: tuple = (16, 32, 64, 128)
    job_cpu_s: float = 45.0


class Campaign:
    """128-node deploy; 2k GO transfers and 20k Condor jobs at t=0."""

    SIZES = {"full": CampaignSize(), "tiny": CampaignSize(workers=4, transfers=6, jobs=48)}

    def __init__(self, size: str = "full") -> None:
        self.size = self.SIZES[size]

    def load(self) -> None:
        import repro.core  # noqa: F401
        import repro.provision.deployer  # noqa: F401

    def world(self, seed: int) -> None:
        from repro.core import CloudTestbed
        from repro.core.usecase import usecase_topology
        from repro.provision.deployer import Deployer

        self.bed = CloudTestbed(seed=seed)
        self.deployer = Deployer(self.bed)
        self.topology = usecase_topology("m1.small", cluster_nodes=self.size.workers)

    def inputs(self, seed: int) -> None:
        s = self.size
        rng = random.Random(seed)
        self.file_sizes = [rng.choice(s.file_mb) * MB for _ in range(s.transfers)]
        self.job_work = [s.job_cpu_s * (1.0 + 0.5 * rng.random()) for _ in range(s.jobs)]
        self.job_owner = [f"owner{rng.randrange(s.owners)}" for _ in range(s.jobs)]
        for i, size in enumerate(self.file_sizes):
            self.bed.cvrg_fs.write(self._path(i), size=size, owner="boliu")

    @staticmethod
    def _path(i: int) -> str:
        return f"/home/boliu/campaign/input-{i:05d}.dat"

    def run(self) -> None:
        from repro.core.testbed import CVRG_DATA_ENDPOINT
        from repro.transfer.globus_online import TransferItem, TransferSpec

        bed = self.bed
        sim = bed.ctx.sim
        self.deployment = bed.run(until=sim.process(self.deployer.deploy(self.topology)))
        self.deploy_s = bed.now

        def load(ctx):
            self.tasks = [
                bed.go.submit("boliu", TransferSpec(
                    source_endpoint=CVRG_DATA_ENDPOINT,
                    dest_endpoint=self.deployment.endpoint_name,
                    items=[TransferItem(self._path(i), self._path(i))],
                    label=f"campaign-{i:05d}",
                    notify=False,
                ))
                for i in range(len(self.file_sizes))
            ]
            pool = self.deployment.pool
            self.jobs = [
                pool.submit(cpu_work=w, owner=o)
                for w, o in zip(self.job_work, self.job_owner)
            ]
            waits = [bed.go.when_done(t) for t in self.tasks]
            waits += [pool.when_done(j) for j in self.jobs]
            yield ctx.sim.all_of(waits)

        bed.run(until=sim.process(load(bed.ctx)))

    def check(self) -> Outcome:
        from repro.cluster.condor import JobState
        from repro.transfer.globus_online import TaskStatus

        bed, pool = self.bed, self.deployment.pool
        failed = sum(
            1 for t, size in zip(self.tasks, self.file_sizes)
            if t.status is not TaskStatus.SUCCEEDED or t.bytes_transferred != size
        )
        failed += sum(1 for j in self.jobs if j.state is not JobState.COMPLETED)
        errors = []
        if len(self.deployment.nodes) != self.size.workers + 3:
            errors.append(f"deployed {len(self.deployment.nodes)} nodes")
        moved = sum(t.bytes_transferred for t in self.tasks)
        if moved != sum(self.file_sizes):
            errors.append(f"moved {moved} bytes, planned {sum(self.file_sizes)}")
        now = bed.now
        cost = bed.meter.cost(now, mode="proportional")
        by_type = bed.meter.cost_by_type(now, mode="proportional")
        if abs(sum(by_type.values()) - cost) > 1e-6 * max(cost, 1.0):
            errors.append("cost by type does not sum to the total")
        sim_out = {
            "deploy_s": self.deploy_s,
            "makespan_s": now,
            "cost_usd": cost,
            "cost_hourly_usd": bed.meter.cost(now, mode="hourly"),
            "usage_by_owner": pool.usage_by_owner,
            "task_done_s": [t.completion_time for t in self.tasks],
            "job_end_s": [j.end_time for j in self.jobs],
        }
        return Outcome(
            attempted=len(self.tasks) + len(self.jobs),
            failed=failed,
            model={
                "makespan_s": round(now, 3),
                "deploy_s": round(self.deploy_s, 3),
                "cost_usd": round(cost, 6),
                "digest": digest(sim_out),
            },
            counts=world_counts([bed], [pool]),
            global_errors=errors,
        )


# ---------------------------------------------------------------------------
# waas_tenants: many tenants streaming workflows into one elastic pool
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaasSize:
    tenants: int = 2000
    workflows: int = 2000
    arrival_rate_per_s: float = 1.0
    dag_tasks: int = 4
    unique_dags: int = 200
    max_in_flight: int = 2000
    base_workers: int = 8
    max_workers: int = 128
    step: int = 8


class WaasTenants:
    """Poisson arrivals from ~2k tenant-owners; queue_depth autoscaling."""

    SIZES = {
        "full": WaasSize(),
        "tiny": WaasSize(tenants=24, workflows=48, arrival_rate_per_s=0.04,
                         unique_dags=8, max_in_flight=16, base_workers=1,
                         max_workers=5, step=1),
    }

    def __init__(self, size: str = "full") -> None:
        self.size = self.SIZES[size]

    def load(self) -> None:
        import repro.core  # noqa: F401
        import repro.provision.instance  # noqa: F401
        import repro.waas  # noqa: F401

    def world(self, seed: int) -> None:
        from repro.core import CloudTestbed
        from repro.provision.instance import GlobusProvision
        from repro.waas import waas_topology

        self.bed = CloudTestbed(seed=seed)
        self.gp = GlobusProvision(self.bed)
        self.topology = waas_topology(self.size.base_workers)

    def inputs(self, seed: int) -> None:
        from repro.waas import poisson_plan

        s = self.size
        self.plan = poisson_plan(
            s.tenants, s.workflows, s.arrival_rate_per_s,
            dag_tasks=s.dag_tasks, unique_dags=s.unique_dags, seed=seed,
        )

    def run(self) -> None:
        from repro.waas import (
            AdmissionController, ElasticProvisioner, WaasService, make_policy,
        )

        s, bed, gp = self.size, self.bed, self.gp
        sim = bed.ctx.sim
        gpi = gp.create(self.topology)
        bed.run(until=sim.process(gp.start(gpi.id)))
        self.admission = AdmissionController(bed.ctx, max_in_flight=s.max_in_flight)
        self.service = WaasService(gp, gpi.id, self.plan, self.admission)
        self.provisioner = ElasticProvisioner(
            gp, gpi.id, make_policy("queue_depth", step=s.step),
            self.service.snapshot, max_workers=s.max_workers,
        )

        def drive(ctx):
            self.service.open()
            self.provisioner.start()
            yield self.service.all_done
            self.provisioner.stop()

        bed.run(until=sim.process(drive(bed.ctx)))

    def check(self) -> Outcome:
        bed, service, prov = self.bed, self.service, self.provisioner
        requests = self.plan.requests
        # every workflow must complete: this workload configures no rejection
        failed = sum(
            1 for r in requests
            if r.completed_s is None or r.arrived_s is None or r.completed_s < r.arrived_s
        )
        errors = []
        if len(service.completed) + len(service.rejected) != len(requests):
            errors.append("workflows unaccounted for")
        planned_tasks = sum(len(r.dag.tasks) for r in requests)
        if not service.jobs_submitted == service.jobs_completed == planned_tasks:
            errors.append(
                f"tasks: planned {planned_tasks}, submitted {service.jobs_submitted}, "
                f"completed {service.jobs_completed}"
            )
        if prov.peak_workers > max(self.size.max_workers, self.size.base_workers):
            errors.append(f"peak workers {prov.peak_workers} above the cap")
        now = bed.now
        cost = bed.meter.cost(now, mode="proportional")
        hourly = bed.meter.cost(now, mode="hourly")
        by_type = bed.meter.cost_by_type(now, mode="proportional")
        if abs(sum(by_type.values()) - cost) > 1e-4:
            errors.append("cost by type does not sum to the total")
        if cost > hourly + 1e-9:
            errors.append("proportional cost above hourly cost")
        makespans = sorted(r.makespan_s for r in service.completed)
        sim_out = {
            "makespan_s": now,
            "workflow_done_s": [r.completed_s for r in requests],
            "cost_by_type_usd": by_type,
            "cost_hourly_usd": hourly,
            "scaling": [asdict(e) for e in prov.events],
            "sla_met": service.sla_met,
        }
        counts = world_counts([bed], [service.pool])
        counts.update({
            "waas.admitted": self.admission.admitted,
            "waas.rejected": self.admission.rejected,
            "waas.scale_events": len(prov.events),
        })
        return Outcome(
            attempted=len(requests),
            failed=failed,
            model={
                "makespan_s": round(now, 3),
                "workflow_p50_s": round(makespans[len(makespans) // 2], 3) if makespans else 0.0,
                "sla_attainment": round(service.sla_attainment, 4),
                "cost_usd": round(cost, 6),
                "digest": digest(sim_out),
            },
            counts=counts,
            global_errors=errors,
        )


# ---------------------------------------------------------------------------
# fig10_matrix: the paper's Fig. 10 grid with span capture on
# ---------------------------------------------------------------------------


INSTANCE_TYPES = ("m1.small", "c1.medium", "m1.large", "m1.xlarge")


@dataclass(frozen=True)
class Fig10Size:
    widths: tuple = (1, 2, 4, 8)


class Fig10Matrix:
    """4 instance types x widths {1,2,4,8}; a fresh world per column."""

    SIZES = {"full": Fig10Size(), "tiny": Fig10Size(widths=(1,))}

    def __init__(self, size: str = "full") -> None:
        self.size = self.SIZES[size]

    def load(self) -> None:
        import repro.core  # noqa: F401
        import repro.obs  # noqa: F401

    def world(self, seed: int) -> None:
        from repro.core import CloudTestbed
        from repro.obs import capture

        # a context built inside the block keeps recording spans after it
        with capture() as self.cap:
            self.beds = [
                CloudTestbed(seed=seed) for _ in INSTANCE_TYPES for _ in self.size.widths
            ]

    def inputs(self, seed: int) -> None:
        self.columns = [(t, w) for t in INSTANCE_TYPES for w in self.size.widths]

    def run(self) -> None:
        from repro.core.usecase import UseCaseError, run_usecase
        from repro.obs import critpath_doc

        self.results = []
        for bed, (itype, width) in zip(self.beds, self.columns):
            try:
                result = run_usecase(
                    bed=bed, instance_type=itype, cluster_nodes=width, scale_up_with=None,
                )
            except UseCaseError:
                result = None
            self.results.append(result)
        self.critpath = critpath_doc(self.cap)

    def check(self) -> Outcome:
        rows = {}
        failed_cols = set()
        for bed, col, result in zip(self.beds, self.columns, self.results):
            if result is None:
                failed_cols.add(col)
                continue
            row = (result.deploy_minutes, result.steps34_minutes, result.steps34_cost_usd(bed))
            if not all(v > 0 for v in row):
                failed_cols.add(col)
            rows[col] = row
        # the paper's Fig. 10 orderings, at every pool width
        for width in self.size.widths:
            cols = [(t, width) for t in INSTANCE_TYPES]
            if any(c not in rows for c in cols):
                failed_cols.update(cols)
                continue
            deploys, execs, costs = zip(*(rows[c] for c in cols))
            ordered = (
                list(execs) == sorted(execs, reverse=True)
                and list(deploys) == sorted(deploys, reverse=True)
                and list(costs) == sorted(costs)
                and all(1.2 <= hi / lo <= 2.6 for lo, hi in zip(costs, costs[1:]))
                and costs[-1] / costs[0] > 3.0
            )
            if not ordered:
                failed_cols.update(cols)
        errors = []
        if not self.critpath["critical_path_s"] > 0 or not self.critpath["layers"]:
            errors.append("critical path is empty")
        spans = sum(len(r.spans) for r in self.cap.recorders)
        sim_out = {
            "rows": {f"{t}/{w}": rows.get((t, w)) for t, w in self.columns},
            "critpath_layers": self.critpath["layers"],
            "critical_path_s": self.critpath["critical_path_s"],
            "spans": spans,
        }
        deployments = [r.instance.deployment for r in self.results if r is not None]
        return Outcome(
            attempted=len(self.columns),
            failed=len(failed_cols),
            model={
                "exec_min": {t: round(rows[(t, 1)][1], 3) for t in INSTANCE_TYPES
                             if (t, 1) in rows},
                "cost_usd": {t: round(rows[(t, 1)][2], 6) for t in INSTANCE_TYPES
                             if (t, 1) in rows},
                "critical_path_s": round(self.critpath["critical_path_s"], 3),
                "digest": digest(sim_out),
            },
            counts=world_counts(
                self.beds,
                [d.pool for d in deployments],
                [d.galaxy for d in deployments],
                spans=spans,
            ),
            global_errors=errors,
        )


WORKLOADS = {
    "campaign": Campaign,
    "waas_tenants": WaasTenants,
    "fig10_matrix": Fig10Matrix,
}
