"""Critical-path extraction: bounds, contiguity, determinism.

The pinned invariants: the walk is contiguous backward coverage, so the
critical-path length equals the makespan exactly and is therefore (a)
never longer than the makespan and (b) never shorter than the longest
single operational span; container spans (``kernel.run``) never become
chain nodes; and the resulting document is byte-identical whether the
run happened in-process or in a pool worker, because it is built from
spans only, never metrics.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import run_suite
from repro.core import run_usecase
from repro.obs import capture, critical_path, critpath_doc, layer_of
from repro.obs.critpath import CONTAINER_NAMES

from ..provenance.conftest import tiny_suite


def test_layer_mapping_longest_prefix_wins():
    assert layer_of("ec2.boot") == "boot"
    assert layer_of("chef.converge") == "converge"
    assert layer_of("go.task") == "transfer"
    assert layer_of("gridftp.transfer") == "transfer"
    assert layer_of("galaxy.stage_in") == "transfer"
    assert layer_of("galaxy.stage_out") == "transfer"
    assert layer_of("condor.wait") == "queue"
    assert layer_of("condor.run") == "execute"
    assert layer_of("galaxy.job.run") == "execute"
    assert layer_of("waas.workflow") == "service"
    assert layer_of("something.else") == "something"


def test_empty_doc_yields_zero_path():
    ctx = critical_path({"label": "empty", "spans": []})
    assert ctx["makespan_s"] == 0.0
    assert ctx["critical_path_s"] == 0.0
    assert ctx["segments"] == []
    doc = critpath_doc([{"label": "empty", "spans": []}])
    assert doc["makespan_s"] == 0.0
    assert doc["layers"] == {}


def _span(id, name, track, start, end, parent_id=None, cause_id=None):
    return {
        "id": id,
        "name": name,
        "track": track,
        "start": start,
        "end": end,
        "parent_id": parent_id,
        "cause_id": cause_id,
        "status": "ok",
    }


def test_causal_chain_attributes_each_layer():
    # boot -> converge -> wait -> run, linked by cause edges
    doc = {
        "label": "chain",
        "spans": [
            _span(1, "ec2.boot", "ec2/i-1", 0.0, 60.0),
            _span(2, "chef.converge", "chef/n-1", 60.0, 200.0, cause_id=1),
            _span(3, "condor.wait", "condor/job-1", 200.0, 230.0, cause_id=2),
            _span(4, "condor.run", "condor/job-1", 230.0, 300.0, cause_id=3),
        ],
    }
    ctx = critical_path(doc)
    assert ctx["makespan_s"] == 300.0
    assert ctx["critical_path_s"] == 300.0
    assert ctx["chain_spans"] == 4
    assert ctx["layers"] == {
        "boot": 60.0,
        "converge": 140.0,
        "queue": 30.0,
        "execute": 70.0,
    }
    assert [s["name"] for s in ctx["segments"]] == [
        "ec2.boot",
        "chef.converge",
        "condor.wait",
        "condor.run",
    ]


def test_uncovered_time_becomes_explicit_idle():
    doc = {
        "label": "gappy",
        "spans": [
            _span(1, "ec2.boot", "ec2/i-1", 0.0, 50.0),
            _span(2, "condor.run", "condor/job-1", 80.0, 100.0),
        ],
    }
    ctx = critical_path(doc)
    assert ctx["critical_path_s"] == ctx["makespan_s"] == 100.0
    idle = [s for s in ctx["segments"] if s["layer"] == "idle"]
    assert sum(s["duration_s"] for s in idle) == 30.0


def test_container_span_never_enters_the_chain():
    doc = {
        "label": "wrapped",
        "spans": [
            _span(1, "kernel.run", "kernel", 0.0, 500.0),
            _span(2, "ec2.boot", "ec2/i-1", 0.0, 60.0),
        ],
    }
    ctx = critical_path(doc)
    names = {s["name"] for s in ctx["segments"]}
    assert "kernel.run" not in names
    # the container stretches the makespan; the excess reads as idle
    assert ctx["makespan_s"] == 500.0
    assert ctx["layers"]["idle"] == 440.0
    assert ctx["layers"]["boot"] == 60.0


spans_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            ["ec2.boot", "chef.converge", "go.task", "condor.wait", "condor.run"]
        ),
        st.integers(0, 4),          # track index
        st.floats(0.0, 1000.0, allow_nan=False),
        st.floats(0.001, 500.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(spans_strategy)
def test_path_length_bounds_and_contiguity(raw):
    spans = [
        _span(i + 1, name, f"{name.split('.', 1)[0]}/t{track}", start, start + dur)
        for i, (name, track, start, dur) in enumerate(raw)
    ]
    doc = {"label": "prop", "spans": spans}
    ctx = critical_path(doc)
    makespan = max(s["end"] for s in spans) - min(s["start"] for s in spans)
    longest = max(
        (s["end"] - s["start"] for s in spans if s["name"] not in CONTAINER_NAMES),
        default=0.0,
    )
    # contiguous coverage: path length == makespan, so <= and >= both hold
    assert ctx["critical_path_s"] == pytest.approx(ctx["makespan_s"])
    assert ctx["makespan_s"] == pytest.approx(makespan)
    assert ctx["critical_path_s"] <= makespan + 1e-9
    assert ctx["critical_path_s"] >= longest - 1e-9
    # segments tile [trace_start, makespan_end] without overlap or gaps
    prev_end = None
    for seg in ctx["segments"]:
        assert seg["duration_s"] >= 0.0
        assert seg["end"] == pytest.approx(seg["start"] + seg["duration_s"])
        if prev_end is not None:
            assert seg["start"] == pytest.approx(prev_end)
        prev_end = seg["end"]
    assert sum(ctx["layers"].values()) == pytest.approx(ctx["critical_path_s"])


def test_usecase_path_covers_makespan_and_contains_longest_span():
    with capture() as cap:
        run_usecase(run_large=False)
    [doc] = json.loads(json.dumps(cap.to_docs()))
    ctx = critical_path(doc)
    closed = [
        s
        for s in doc["spans"]
        if s["end"] is not None and s["name"] not in CONTAINER_NAMES
    ]
    longest = max(s["end"] - s["start"] for s in closed)
    assert ctx["critical_path_s"] == pytest.approx(ctx["makespan_s"])
    assert ctx["critical_path_s"] >= longest
    assert set(ctx["layers"]) >= {"boot", "converge"}


@pytest.fixture(scope="module")
def critpath_blobs():
    out = {}
    for workers in (1, 2):
        result = run_suite(tiny_suite(), workers=workers, obs=True)
        assert result.ok
        doc = critpath_doc(result.obs_docs(), suite="tiny")
        out[workers] = json.dumps(doc, sort_keys=True)
    return out


def test_critpath_doc_is_byte_identical_sequential_vs_pooled(critpath_blobs):
    blobs = set(critpath_blobs.values())
    assert len(blobs) == 1, "critpath doc differs between in-process and pool"


def test_critpath_doc_from_real_run_is_schema_valid(critpath_blobs):
    from repro.obs.validate import check_critpath

    doc = json.loads(next(iter(critpath_blobs.values())))
    assert check_critpath(doc) == []
    assert doc["layers"], "expected non-empty layer attribution"
