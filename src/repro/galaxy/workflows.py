"""Workflows: composable tool DAGs and their execution engine.

"With Galaxy's workflow editor, various tools can be configured and
composed to complete an analysis" (Sec. II-1).  A workflow is a DAG whose
nodes are either *input steps* (dataset placeholders) or *tool steps*
whose data parameters connect to upstream step outputs.  Invoking a
workflow on a history schedules each step as soon as its inputs are OK,
so independent branches run in parallel on the Condor pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Optional

from ..simcore import SimContext, SimEvent
from .datasets import Dataset, History
from .jobs import Job, JobManager, JobState
from .tools import Tool, Toolbox


class WorkflowError(Exception):
    pass


@dataclass(frozen=True)
class Connection:
    """Wire an upstream step's output into a downstream data parameter."""

    source_step: int
    source_output: str = "output"


@dataclass
class WorkflowStep:
    """One node of the DAG."""

    id: int
    type: str                   # "data_input" | "tool"
    tool_id: str = ""
    label: str = ""
    params: dict = field(default_factory=dict)
    #: data-parameter name -> Connection
    connections: dict[str, Connection] = field(default_factory=dict)


@dataclass
class Workflow:
    """An editable, shareable workflow definition."""

    name: str
    steps: dict[int, WorkflowStep] = field(default_factory=dict)
    annotation: str = ""
    tags: list[str] = field(default_factory=list)
    published: bool = False
    _next_step: int = 1

    def add_input(self, label: str = "Input dataset") -> WorkflowStep:
        step = WorkflowStep(id=self._next_step, type="data_input", label=label)
        self._next_step += 1
        self.steps[step.id] = step
        return step

    def add_step(
        self,
        tool: Tool | str,
        params: Optional[dict] = None,
        connect: Optional[dict[str, WorkflowStep | tuple[WorkflowStep, str] | Connection]] = None,
        label: str = "",
    ) -> WorkflowStep:
        tool_id = tool if isinstance(tool, str) else tool.id
        connections: dict[str, Connection] = {}
        for param, src in (connect or {}).items():
            if isinstance(src, Connection):
                connections[param] = src
            elif isinstance(src, tuple):
                connections[param] = Connection(src[0].id, src[1])
            else:
                connections[param] = Connection(src.id)
        step = WorkflowStep(
            id=self._next_step,
            type="tool",
            tool_id=tool_id,
            label=label or tool_id,
            params=dict(params or {}),
            connections=connections,
        )
        self._next_step += 1
        self.steps[step.id] = step
        return step

    # -- validation -------------------------------------------------------------
    def validate(self, toolbox: Toolbox) -> None:
        """Raise :class:`WorkflowError` for structural problems."""
        sorter = TopologicalSorter(
            {
                step.id: [c.source_step for c in step.connections.values()]
                for step in self.steps.values()
            }
        )
        try:
            sorter.prepare()
        except CycleError as exc:
            # args[1] lists the step ids around the cycle, first == last
            raise WorkflowError(f"workflow has a cycle: {exc.args[1]}") from None
        for step in self.steps.values():
            if step.type == "data_input":
                if step.connections:
                    raise WorkflowError(f"input step {step.id} cannot have connections")
                continue
            tool = toolbox.get(step.tool_id)  # raises ToolError if unknown
            data_params = {p.name for p in tool.data_params()}
            for param, conn in step.connections.items():
                if param not in data_params:
                    raise WorkflowError(
                        f"step {step.id}: {param!r} is not a data parameter of {tool.id}"
                    )
                src = self.steps.get(conn.source_step)
                if src is None:
                    raise WorkflowError(
                        f"step {step.id}: connection from unknown step {conn.source_step}"
                    )
                if src.type == "tool":
                    src_tool = toolbox.get(src.tool_id)
                    if all(o.name != conn.source_output for o in src_tool.outputs):
                        raise WorkflowError(
                            f"step {step.id}: {src.tool_id} has no output "
                            f"{conn.source_output!r}"
                        )
            missing = data_params - set(step.connections)
            if missing:
                raise WorkflowError(
                    f"step {step.id} ({tool.id}): unconnected data inputs {sorted(missing)}"
                )

    def input_steps(self) -> list[WorkflowStep]:
        return [s for s in self.steps.values() if s.type == "data_input"]

    def tool_steps(self) -> list[WorkflowStep]:
        return [s for s in self.steps.values() if s.type == "tool"]

    def clone(self, name: Optional[str] = None) -> "Workflow":
        """Deep copy, e.g. when a reader extracts a shared workflow."""
        import copy

        wf = copy.deepcopy(self)
        wf.name = name or f"Copy of {self.name}"
        wf.published = False
        return wf

    # -- serialisation (Galaxy's ".ga" export format, simplified) ------------
    def to_dict(self) -> dict:
        return {
            "format": "galaxy-workflow-v1",
            "name": self.name,
            "annotation": self.annotation,
            "tags": list(self.tags),
            "steps": [
                {
                    "id": s.id,
                    "type": s.type,
                    "tool_id": s.tool_id,
                    "label": s.label,
                    "params": dict(s.params),
                    "connections": {
                        param: {"step": c.source_step, "output": c.source_output}
                        for param, c in s.connections.items()
                    },
                }
                for s in sorted(self.steps.values(), key=lambda s: s.id)
            ],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "Workflow":
        if doc.get("format") != "galaxy-workflow-v1":
            raise WorkflowError(f"not a workflow export: {doc.get('format')!r}")
        wf = cls(
            name=doc["name"],
            annotation=doc.get("annotation", ""),
            tags=list(doc.get("tags", [])),
        )
        for s in doc["steps"]:
            step = WorkflowStep(
                id=s["id"],
                type=s["type"],
                tool_id=s.get("tool_id", ""),
                label=s.get("label", ""),
                params=dict(s.get("params", {})),
                connections={
                    param: Connection(c["step"], c.get("output", "output"))
                    for param, c in s.get("connections", {}).items()
                },
            )
            wf.steps[step.id] = step
            wf._next_step = max(wf._next_step, step.id + 1)
        return wf

    @classmethod
    def from_json(cls, text: str) -> "Workflow":
        import json

        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WorkflowError(f"bad workflow JSON: {exc}") from exc
        return cls.from_dict(doc)


@dataclass
class WorkflowInvocation:
    """One run of a workflow against a history."""

    workflow: Workflow
    history: History
    jobs: dict[int, Job] = field(default_factory=dict)       # step id -> job
    step_outputs: dict[tuple[int, str], Dataset] = field(default_factory=dict)
    state: str = "running"     # running | ok | error
    done: Optional[SimEvent] = None

    def job_for(self, step: WorkflowStep) -> Job:
        return self.jobs[step.id]


class WorkflowEngine:
    """Schedules workflow steps as jobs, respecting the DAG."""

    def __init__(self, ctx: SimContext, toolbox: Toolbox, jobs: JobManager) -> None:
        self.ctx = ctx
        self.toolbox = toolbox
        self.jobs = jobs

    def invoke(
        self,
        workflow: Workflow,
        history: History,
        user: str,
        inputs: dict[int, Dataset],
    ) -> WorkflowInvocation:
        """Start a workflow run; inputs map input-step ids to datasets."""
        workflow.validate(self.toolbox)
        needed = {s.id for s in workflow.input_steps()}
        if set(inputs) != needed:
            raise WorkflowError(
                f"inputs must be supplied for steps {sorted(needed)}, got {sorted(inputs)}"
            )
        for step_id, ds in inputs.items():
            if not ds.usable:
                raise WorkflowError(f"input dataset for step {step_id} is not ok")
        inv = WorkflowInvocation(
            workflow=workflow, history=history, done=self.ctx.sim.event()
        )
        for step_id, ds in inputs.items():
            inv.step_outputs[(step_id, "output")] = ds
        self.ctx.sim.process(self._drive(inv, user), name=f"wf-{workflow.name}")
        return inv

    def when_done(self, inv: WorkflowInvocation) -> SimEvent:
        assert inv.done is not None
        return inv.done

    def _drive(self, inv: WorkflowInvocation, user: str):
        """Run each tool step in its own process: a step submits the moment
        every upstream output is OK, so independent branches overlap fully."""
        sim = self.ctx.sim
        # step id -> event that fires with True (outputs usable) or False
        step_ok: dict[int, "SimEvent"] = {}
        for step in inv.workflow.steps.values():
            step_ok[step.id] = sim.event()
        for step in inv.workflow.input_steps():
            step_ok[step.id].succeed(True)

        def run_step(step: WorkflowStep):
            upstream_ids = [c.source_step for c in step.connections.values()]
            results = yield sim.all_of([step_ok[sid] for sid in set(upstream_ids)])
            if not all(results.values()):
                inv.state = "error"
                step_ok[step.id].succeed(False)
                return
            tool = self.toolbox.get(step.tool_id)
            input_datasets = []
            params = dict(step.params)
            for param, conn in step.connections.items():
                ds = inv.step_outputs.get((conn.source_step, conn.source_output))
                if ds is None:
                    up_job = inv.jobs[conn.source_step]
                    ds = up_job.outputs[conn.source_output]
                    inv.step_outputs[(conn.source_step, conn.source_output)] = ds
                input_datasets.append(ds)
                params.pop(param, None)
            job = self.jobs.submit(
                tool, user=user, history=inv.history,
                params=params, inputs=input_datasets,
            )
            inv.jobs[step.id] = job
            yield self.jobs.when_done(job)
            if job.state == JobState.ERROR:
                inv.state = "error"
                step_ok[step.id].succeed(False)
            else:
                step_ok[step.id].succeed(True)

        procs = [
            sim.process(run_step(step), name=f"wf-step-{step.id}")
            for step in inv.workflow.tool_steps()
        ]
        if procs:
            yield sim.all_of(procs)
        if inv.state != "error":
            inv.state = "ok"
        if not inv.done.triggered:
            inv.done.succeed(inv)
