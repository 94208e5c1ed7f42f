"""The memoised CEL -> RMA decode behind ``load_expression``.

A CEL archive is a descriptor that regenerates its data
deterministically, so its RMA decode is kept in a small fixed-size
cache.  The cache must be invisible: a cold and a warm run give the same
bytes and the same simulated times, and no caller can change what the
next caller reads.
"""

import inspect

import numpy as np
import pytest

from repro.crdata import USECASE_TOOL_ID, catalog, install_crdata_tools
from repro.galaxy import GalaxyApp, JobState
from repro.simcore import SimContext
from repro.workloads import make_four_cel_archive


class _Handle:
    """The one method ``load_expression`` calls on an input handle."""

    name = "cel"

    def __init__(self, data: bytes) -> None:
        self._data = data

    def read(self) -> bytes:
        return self._data


def _run_usecase_job(tool_id=USECASE_TOOL_ID, params=None):
    ctx = SimContext(seed=9)
    app = GalaxyApp(ctx, job_overheads=(0.0, 0.0))
    install_crdata_tools(app.toolbox)
    app.create_user("boliu")
    history = app.create_history("boliu", "memo")
    arch = make_four_cel_archive()
    ds = app.upload_data(
        history, "fourCelFileSamples.zip", data=arch.to_bytes(),
        size=arch.declared_size, ext="zip",
    )
    job = app.run_tool("boliu", history, tool_id, params=params or {}, inputs=[ds])
    ctx.sim.run(until=app.jobs.when_done(job))
    assert job.state == JobState.OK, job.stderr
    outputs = {
        name: app.fs.read(out.file_path) for name, out in sorted(job.outputs.items())
    }
    return outputs, (job.create_time, job.start_time, job.end_time, ctx.now)


@pytest.mark.parametrize(
    "tool_id,params",
    [
        (USECASE_TOOL_ID, {"top_n": 50}),
        ("crdata_affyVolcanoPlot", {}),
        ("crdata_affyFilterProbes", {"top_n": 100}),
    ],
)
def test_cold_and_warm_runs_are_identical(tool_id, params):
    catalog._decode_cel.cache_clear()
    cold = _run_usecase_job(tool_id, params)
    assert catalog._decode_cel.cache_info().misses == 1
    warm = _run_usecase_job(tool_id, params)
    assert catalog._decode_cel.cache_info().hits >= 1
    assert warm == cold


def test_cached_values_are_read_only():
    data = make_four_cel_archive().to_bytes()
    em = catalog.load_expression(_Handle(data))
    with pytest.raises(ValueError):
        em.values[0, 0] = 0.0
    with pytest.raises(ValueError):
        em.values += 1.0
    again = catalog.load_expression(_Handle(data))
    assert again.values is em.values


def test_cached_decode_shares_no_mutable_list():
    data = make_four_cel_archive().to_bytes()
    cached = catalog._decode_cel(data)
    values, *annotations = cached
    assert not values.flags.writeable
    assert all(isinstance(a, tuple) for a in annotations)
    em = catalog.load_expression(_Handle(data))
    for seq in (em.probe_names, em.sample_names, em.groups):
        assert isinstance(seq, tuple)
    # rebinding a field of one caller's matrix leaves the next caller's intact
    em.groups = ["x"] * len(em.groups)
    assert catalog.load_expression(_Handle(data)).groups == annotations[2]


def test_cache_size_is_a_fixed_constant():
    assert isinstance(catalog.CEL_DECODE_CACHE_SIZE, int)
    assert catalog._decode_cel.cache_info().maxsize == catalog.CEL_DECODE_CACHE_SIZE
    assert list(inspect.signature(catalog.load_expression).parameters) == ["handle"]
    catalog._decode_cel.cache_clear()
    for seed in range(catalog.CEL_DECODE_CACHE_SIZE + 2):
        catalog.load_expression(_Handle(make_four_cel_archive(seed=seed, n_probes=50).to_bytes()))
    assert catalog._decode_cel.cache_info().currsize == catalog.CEL_DECODE_CACHE_SIZE


def test_decode_matches_an_uncached_rma():
    from repro.crdata.engines import normalize
    from repro.crdata.formats import CelArchive

    data = make_four_cel_archive().to_bytes()
    em = catalog.load_expression(_Handle(data))
    arch = CelArchive.from_bytes(data)
    fresh = normalize.rma(arch.intensities())
    assert em.values.tobytes() == fresh.tobytes()
    assert list(em.probe_names) == arch.probe_names()
    assert list(em.sample_names) == arch.array_names
    assert list(em.groups) == arch.groups
    assert np.shares_memory(em.values, catalog.load_expression(_Handle(data)).values)
