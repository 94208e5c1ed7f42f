"""Workflow DAG validation and execution."""

import pytest

from repro.galaxy import Connection, JobState, Workflow, WorkflowError
from repro.simcore import SimContext


def build_linear_workflow(app):
    wf = Workflow(name="linear")
    inp = wf.add_input("text in")
    s1 = wf.add_step("upper1", connect={"input": inp})
    wf.add_step("upper1", connect={"input": (s1, "output")})
    return wf, inp


def test_validate_ok(app):
    wf, _ = build_linear_workflow(app)
    wf.validate(app.toolbox)  # no raise


def test_validate_rejects_cycle(app):
    wf = Workflow(name="cyclic")
    s1 = wf.add_step("upper1", connect={})
    s2 = wf.add_step("upper1", connect={})
    wf.steps[s1.id].connections["input"] = Connection(s2.id, "output")
    wf.steps[s2.id].connections["input"] = Connection(s1.id, "output")
    with pytest.raises(WorkflowError, match="cycle"):
        wf.validate(app.toolbox)


def test_validate_names_a_three_step_cycle_from_an_export(app):
    """A cycle imported from a ``.ga``-style export is rejected, and the
    error lists the steps around it (first step repeated last)."""
    def step(sid, upstream):
        return {
            "id": sid, "type": "tool", "tool_id": "upper1",
            "connections": {"input": {"step": upstream, "output": "output"}},
        }

    wf = Workflow.from_dict({
        "format": "galaxy-workflow-v1",
        "name": "triangle",
        "steps": [
            {"id": 1, "type": "data_input"},
            step(2, 4), step(3, 2), step(4, 3),
        ],
    })
    with pytest.raises(WorkflowError, match="cycle") as info:
        wf.validate(app.toolbox)
    listed = [int(x) for x in str(info.value).split("[", 1)[1].rstrip("]").split(",")]
    assert listed[0] == listed[-1]
    assert sorted(listed[:-1]) == [2, 3, 4]
    # each listed step feeds the next one round the cycle
    for a, b in zip(listed, listed[1:]):
        assert wf.steps[b].connections["input"].source_step == a


def test_validate_rejects_unconnected_data_input(app):
    wf = Workflow(name="dangling")
    wf.add_step("upper1")
    with pytest.raises(WorkflowError, match="unconnected"):
        wf.validate(app.toolbox)


def test_validate_rejects_unknown_output_name(app):
    wf = Workflow(name="bad-output")
    inp = wf.add_input()
    s1 = wf.add_step("upper1", connect={"input": inp})
    wf.add_step("upper1", connect={"input": (s1, "no_such_output")})
    with pytest.raises(WorkflowError, match="no output"):
        wf.validate(app.toolbox)


def test_validate_rejects_non_data_connection(app):
    wf = Workflow(name="bad-param")
    inp = wf.add_input()
    wf.add_step("upper1", connect={"input": inp, "bogus": inp})
    with pytest.raises(WorkflowError, match="not a data parameter"):
        wf.validate(app.toolbox)


def test_linear_workflow_runs_end_to_end(app):
    history = app.create_history("boliu", "wf run")
    wf, inp = build_linear_workflow(app)
    app.save_workflow(wf)
    ds = app.upload_data(history, "input.txt", data=b"abc", ext="txt")
    inv = app.run_workflow("boliu", "linear", history, inputs={inp.id: ds})
    app.ctx.sim.run(until=app.workflows.when_done(inv))
    assert inv.state == "ok"
    final_step = max(s.id for s in wf.tool_steps())
    final = inv.jobs[final_step].outputs["output"]
    assert app.fs.read(final.file_path) == b"ABC"
    # history now holds: input + 2 intermediates
    assert len(history.datasets) == 3


def test_diamond_workflow_joins_branches(app):
    history = app.create_history("boliu", "diamond")
    wf = Workflow(name="diamond")
    inp = wf.add_input()
    left = wf.add_step("upper1", connect={"input": inp})
    right = wf.add_step("upper1", connect={"input": inp})
    join = wf.add_step(
        "cat1",
        connect={"first": (left, "output"), "second": (right, "output")},
    )
    ds = app.upload_data(history, "x", data=b"ab", ext="txt")
    inv = app.workflows.invoke(wf, history, user="boliu", inputs={inp.id: ds})
    app.ctx.sim.run(until=app.workflows.when_done(inv))
    assert inv.state == "ok"
    out = inv.jobs[join.id].outputs["output"]
    assert app.fs.read(out.file_path) == b"AB\nAB"


def test_workflow_missing_inputs_rejected(app):
    history = app.create_history("boliu")
    wf, inp = build_linear_workflow(app)
    with pytest.raises(WorkflowError, match="inputs must be supplied"):
        app.workflows.invoke(wf, history, user="boliu", inputs={})


def test_workflow_error_propagates_and_stops_downstream(app):
    history = app.create_history("boliu")
    wf = Workflow(name="fails")
    inp = wf.add_input()
    bad = wf.add_step("crash1", connect={"input": inp})
    down = wf.add_step("upper1", connect={"input": (bad, "output")})
    ds = app.upload_data(history, "x", data=b"ab")
    inv = app.workflows.invoke(wf, history, user="boliu", inputs={inp.id: ds})
    app.ctx.sim.run(until=app.workflows.when_done(inv))
    assert inv.state == "error"
    assert inv.jobs[bad.id].state == JobState.ERROR
    assert down.id not in inv.jobs  # downstream never submitted


def test_unknown_saved_workflow(app):
    history = app.create_history("boliu")
    from repro.galaxy import GalaxyError

    with pytest.raises(GalaxyError, match="no saved workflow"):
        app.run_workflow("boliu", "missing", history, inputs={})


def test_clone_workflow_is_independent(app):
    wf, _ = build_linear_workflow(app)
    wf.published = True
    copy = wf.clone()
    assert copy.name == "Copy of linear"
    assert not copy.published
    copy.add_input("extra")
    assert len(copy.steps) == len(wf.steps) + 1


def test_workflow_steps_run_in_parallel_on_wide_pool():
    """Two independent branches overlap in time."""
    from repro.cluster import CondorPool, MachineAd
    from repro.galaxy import CondorJobRunner, GalaxyApp

    from .conftest import sleep_tool, uppercase_tool

    ctx = SimContext(seed=2)
    pool = CondorPool(ctx, negotiation_interval_s=2.0)
    for i in range(2):
        pool.add_machine(MachineAd(name=f"w{i}", cores=1, memory_gb=4.0, cpu_factor=1.0))
    app = GalaxyApp(ctx, runner=CondorJobRunner(ctx, pool), job_overheads=(0.0, 0.0))
    app.install_tool(sleep_tool(cpu_work=100.0))
    app.create_user("u")
    h = app.create_history("u")
    wf = Workflow(name="wide")
    inp = wf.add_input()
    wf.add_step("sleep100", connect={"input": inp})
    wf.add_step("sleep100", connect={"input": inp})
    ds = app.upload_data(h, "x", data=b"1")
    inv = app.workflows.invoke(wf, h, user="u", inputs={inp.id: ds})
    ctx.sim.run(until=app.workflows.when_done(inv))
    assert inv.state == "ok"
    assert ctx.now < 150.0  # parallel, not 200 serial
