"""Whole-system observability: spans from real deployments.

These are the obs layer's acceptance tests: an instrumented use-case run must
export a schema-valid Chrome trace, its span totals must reconcile with
the span-derived timeline, and recording must leave simulation output
byte-identical to an obs-off run.
"""

import pytest

from repro.core import CloudTestbed, run_usecase, usecase_topology
from repro.obs import capture, chrome_trace, summary_rows
from repro.obs.validate import check_chrome_trace
from repro.provision import GlobusProvision
from repro.reporting import collect_intervals


def _deploy(seed: int = 60):
    """One GP deployment (boots + converges) inside a capture block."""
    with capture() as cap:
        bed = CloudTestbed(seed=seed)
        gp = GlobusProvision(bed)
        gpi = gp.create(usecase_topology("m1.small", cluster_nodes=1))

        def scenario():
            yield from gp.start(gpi.id)

        bed.ctx.sim.run(until=bed.ctx.sim.process(scenario()))
    return bed, cap


def test_deployment_spans_cover_boot_and_converge():
    bed, cap = _deploy()
    [doc] = cap.to_docs()
    names = {s["name"] for s in doc["spans"]}
    assert {"kernel.run", "ec2.boot", "chef.converge", "chef.recipe"} <= names
    # every span closed cleanly
    for span in doc["spans"]:
        assert span["end"] is not None, span
        assert span["status"] == "ok", span
    # recipes nest under their converge span
    by_id = {s["id"]: s for s in doc["spans"]}
    for s in doc["spans"]:
        if s["name"] == "chef.recipe":
            assert by_id[s["parent_id"]]["name"] == "chef.converge"


def test_span_totals_reconcile_with_timeline_intervals():
    bed, cap = _deploy()
    rows = {r["name"]: r for r in summary_rows(cap)}
    intervals = collect_intervals(cap)

    def interval_total(prefix):
        return sum(iv.end - iv.start for iv in intervals if iv.label.startswith(prefix))

    assert rows["ec2.boot"]["total_s"] == pytest.approx(interval_total("boot"))
    assert rows["chef.converge"]["total_s"] == pytest.approx(interval_total("chef"))


def test_usecase_transfer_spans_reconcile_with_go_rows():
    with capture() as cap:
        result = run_usecase(run_large=False)
    rows = {r["name"]: r for r in summary_rows(cap)}
    assert rows["go.task"]["count"] >= 1
    # reconcile against the go rows of the span-derived timeline
    go_total = sum(
        iv.end - iv.start
        for iv in collect_intervals(cap)
        if iv.label.startswith("go ")
    )
    assert rows["go.task"]["total_s"] == pytest.approx(go_total)
    assert result.step3_job.state.value == "ok"


def test_usecase_chrome_trace_is_perfetto_valid():
    with capture() as cap:
        run_usecase(run_large=False)
    doc = chrome_trace(cap)
    assert check_chrome_trace(doc) == []


def test_observability_does_not_perturb_simulation_output():
    quiet = run_usecase(run_large=False)
    with capture():
        observed = run_usecase(run_large=False)
    assert quiet.steps34_seconds == observed.steps34_seconds
    assert quiet.deploy_seconds == observed.deploy_seconds
