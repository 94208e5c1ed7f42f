"""Causal span edges: who released whom, across entity tracks.

Every cross-layer hand-off the critical-path walk relies on must be a
recorded ``cause_id`` edge: EC2 boot releases the Chef converge on that
instance, a Galaxy job's stage-in/condor-wait cite the job, a Condor
run cites the wait that held it, a WaaS admission cites the arrival.
The links ride on domain objects (span-id carriers such as
``CondorJob.run_span_id`` and EC2's boot span ids), not ambient state.
"""

import json

import pytest

from repro.core import CloudTestbed, run_usecase
from repro.obs import capture
from repro.provision import GlobusProvision
from repro.waas import AdmissionController, WaasService, poisson_plan, waas_topology


@pytest.fixture(scope="module")
def usecase_doc():
    with capture() as cap:
        run_usecase(run_large=False)
    [doc] = json.loads(json.dumps(cap.to_docs()))
    return doc


def _by_id(doc):
    return {s["id"]: s for s in doc["spans"]}


def _named(doc, name):
    return [s for s in doc["spans"] if s["name"] == name]


def test_chef_converge_cites_the_instance_boot(usecase_doc):
    by_id = _by_id(usecase_doc)
    converges = _named(usecase_doc, "chef.converge")
    assert converges
    for span in converges:
        cause = by_id.get(span["cause_id"])
        assert cause is not None, f"converge {span['track']} has no cause"
        assert cause["name"] == "ec2.boot"
        assert cause["end"] <= span["start"]


def test_condor_run_cites_the_wait_that_held_it(usecase_doc):
    by_id = _by_id(usecase_doc)
    runs = _named(usecase_doc, "condor.run")
    assert runs
    for span in runs:
        cause = by_id.get(span["cause_id"])
        assert cause is not None
        assert cause["name"] == "condor.wait"
        assert cause["track"] == span["track"]


def test_galaxy_staging_and_dispatch_cite_the_job():
    # NFS staging is free, so stage spans only open under a backend that
    # charges per-job stage-in/out (the object store does)
    with capture() as cap:
        run_usecase(run_large=False, storage="object_store")
    [doc] = json.loads(json.dumps(cap.to_docs()))
    by_id = _by_id(doc)
    stage_ins = _named(doc, "galaxy.stage_in")
    stage_outs = _named(doc, "galaxy.stage_out")
    assert stage_ins and stage_outs
    for span in stage_ins + stage_outs:
        cause = by_id.get(span["cause_id"])
        assert cause is not None
        assert cause["name"] == "galaxy.job"
    # the condor.wait a Galaxy job opens points back at that job's span
    galaxy_jobs = {s["id"] for s in _named(doc, "galaxy.job")}
    caused_waits = [
        s for s in _named(doc, "condor.wait") if s["cause_id"] in galaxy_jobs
    ]
    assert caused_waits, "no condor.wait cites a galaxy.job"
    # the staging-concurrency gauge sampled both edges of the window
    series = doc.get("series") or {}
    assert "galaxy.staging_active" in series
    values = [v for _, v in series["galaxy.staging_active"]]
    assert max(values) >= 1.0 and values[-1] == 0.0


def test_go_file_spans_cite_their_task(usecase_doc):
    by_id = _by_id(usecase_doc)
    files = _named(usecase_doc, "go.file")
    assert files
    for span in files:
        cause = by_id.get(span["cause_id"])
        assert cause is not None
        assert cause["name"] == "go.task"


def _run_waas():
    bed = CloudTestbed(seed=0)
    gp = GlobusProvision(bed)
    gpi = gp.create(waas_topology(2, instance_type="m1.small"))
    start = bed.ctx.sim.process(gp.start(gpi.id), name="gp-start")
    bed.run(until=start)
    plan = poisson_plan(4, 6, 0.1, dag_tasks=3, unique_dags=2,
                        mean_task_work_s=30.0, seed=0)
    service = WaasService(gp, gpi.id, plan, AdmissionController(bed.ctx, max_in_flight=4))

    def drive(ctx):
        service.open()
        yield service.all_done

    bed.run(until=bed.ctx.sim.process(drive(bed.ctx), name="waas-drive"))


def test_waas_admission_chain_arrival_to_dispatch():
    with capture() as cap:
        _run_waas()
    [doc] = json.loads(json.dumps(cap.to_docs()))
    by_id = _by_id(doc)
    admits = _named(doc, "waas.admit")
    workflows = {s["id"]: s for s in _named(doc, "waas.workflow")}
    assert admits
    for span in admits:
        assert span["cause_id"] in workflows, "admit does not cite the arrival"
        assert span["start"] == span["end"], "admit is a zero-width mark"
    # task-level condor.waits cite the admission that released the workflow
    admit_ids = {s["id"] for s in admits}
    caused = [s for s in _named(doc, "condor.wait") if s["cause_id"] in admit_ids]
    assert caused, "no condor.wait cites a waas.admit"
    series = doc.get("series") or {}
    assert "waas.in_flight" in series
    assert series["waas.in_flight"][-1][1] == 0.0, "in-flight gauge did not drain"

