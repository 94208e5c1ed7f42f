"""Byte-identity pins for the CRData analysis path.

gp-replay and provenance-based re-execution compare tool outputs byte
for byte, so any change to the numerics of RMA, the moderated t-test,
the top table or the volcano figure must show up here.  The digests
below were produced by the stable-argsort quantile normalisation and
the Python-sorted ``TopTableRow`` list that preceded the vectorised
engines; a faster engine must reproduce them exactly.

To inspect the current values: ``PYTHONPATH=src python
tests/crdata/test_kernel_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.crdata import install_crdata_tools, plots
from repro.crdata.catalog import two_group_mask
from repro.crdata.engines import diffexpr, normalize
from repro.galaxy import GalaxyApp, JobState
from repro.simcore import SimContext
from repro.workloads import (
    make_affy_cel_archive,
    make_expression_matrix_bytes,
    make_four_cel_archive,
)

GOLDEN = {
    'affy.rma': 'e27bab8db7f3bd83',
    'affy.tsv': '4ca58f608582f7a7',
    'affy.tsv50': '5deaea6a69d1f7c7',
    'affy.prior': '52.58967513617897 0.0906575674414013',
    'affy.volcano': '501f38d4efa803f2',
    'four.rma': '2ee6a743971515d2',
    'four.tsv': '6a1bd661c2d3315d',
    'four.tsv50': 'aa2071112ca08b9b',
    'four.prior': '50.38487242155655 0.02919767800424959',
    'four.volcano': '8ceb6f573bf2a8a6',
    'crdata_matrixTTest.top_table': 'e0db58aefd578021',
    'crdata_matrixModeratedTTest.top_table': 'bb2aee4de234e0db',
    'crdata_matrixModeratedTTest.top_table.info': '30 probes at FDR<=0.05 (prior df=inf)',
    'crdata_matrixModeratedTTest.figure': '2cb21f3b8296122c',
    'crdata_affyVolcanoPlot.figure': '411ac2c93e8750c1',
    'crdata_affyDifferentialExpression.top_table': 'aa2071112ca08b9b',
    'crdata_affyDifferentialExpression.top_table.info': '464 probes at FDR<=0.05 (prior df=50.38)',
    'crdata_affyDifferentialExpression.figure': '8a1c94bf01919add',
}

ARCHIVES = {"four": make_four_cel_archive, "affy": make_affy_cel_archive}

#: (tool id, input, output names) pinned through Galaxy; "matrix" is the
#: fixed expression matrix, "cel" the four-array use-case archive
TOOL_OUTPUTS = [
    ("crdata_matrixTTest", "matrix", ("top_table",)),
    ("crdata_matrixModeratedTTest", "matrix", ("top_table", "figure")),
    ("crdata_affyVolcanoPlot", "matrix", ("figure",)),
    ("crdata_affyDifferentialExpression", "cel", ("top_table", "figure")),
]


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def archive_digests(key: str) -> dict[str, str]:
    arch = ARCHIVES[key]()
    values = normalize.rma(arch.intensities())
    groups = list(arch.groups)
    res = diffexpr.moderated_t_test(values, two_group_mask(groups), arch.probe_names())
    # the volcano exactly as affyVolcanoPlot draws it
    lfc = np.array([r.log_fc for r in res.rows])
    neglog = -np.log10(np.maximum([r.p_value for r in res.rows], 1e-300))
    hot = np.array([r.adj_p_value <= 0.05 for r in res.rows])
    svg = plots.scatter_svg(lfc, neglog, "Volcano plot", hot)
    return {
        f"{key}.rma": _sha(values.tobytes()),
        f"{key}.tsv": _sha(res.as_tsv()),
        f"{key}.tsv50": _sha(res.as_tsv(50)),
        f"{key}.prior": f"{res.d0!r} {res.s0_sq!r}",
        f"{key}.volcano": _sha(svg),
    }


def tool_digests() -> dict[str, str]:
    ctx = SimContext(seed=9)
    app = GalaxyApp(ctx, job_overheads=(0.0, 0.0))
    install_crdata_tools(app.toolbox)
    app.create_user("golden")
    history = app.create_history("golden", "golden")
    cel = make_four_cel_archive()
    inputs = {
        "matrix": app.upload_data(
            history, "matrix.tsv", data=make_expression_matrix_bytes(), ext="tabular"
        ),
        "cel": app.upload_data(
            history, "fourCelFileSamples.zip", data=cel.to_bytes(),
            size=cel.declared_size, ext="zip",
        ),
    }
    out = {}
    for tool_id, kind, names in TOOL_OUTPUTS:
        job = app.run_tool("golden", history, tool_id, params=None, inputs=[inputs[kind]])
        app.ctx.sim.run(until=app.jobs.when_done(job))
        assert job.state == JobState.OK, job.stderr
        for name in names:
            hda = job.outputs[name]
            out[f"{tool_id}.{name}"] = _sha(app.fs.read(hda.file_path))
            if hda.info:
                out[f"{tool_id}.{name}.info"] = hda.info
    return out


@pytest.mark.parametrize("key", sorted(ARCHIVES))
def test_usecase_archive_outputs_are_byte_identical(key):
    got = archive_digests(key)
    assert got == {k: v for k, v in GOLDEN.items() if k.startswith(f"{key}.")}


def test_tool_outputs_are_byte_identical():
    got = tool_digests()
    assert got == {k: v for k, v in GOLDEN.items() if k.startswith("crdata_")}


if __name__ == "__main__":
    digests = {}
    for key in sorted(ARCHIVES):
        digests.update(archive_digests(key))
    digests.update(tool_digests())
    for k, v in digests.items():
        print(f"    {k!r}: {v!r},")
