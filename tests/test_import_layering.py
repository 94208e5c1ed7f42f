"""Import layering: nothing below Galaxy's analysis step loads SciPy.

CRData registers its 35 tools from metadata and each tool imports its
engine on its first run; Galaxy workflows check for cycles with the
stdlib.  So a deploy, a GO transfer and a Condor drain load neither
SciPy nor networkx, and the paper's use-case tool loads
``scipy.special`` but not ``scipy.stats``.

Each case runs in a fresh interpreter, because the pytest process itself
has long since imported everything.  The assertions read
``sys.modules`` only, never wall time, so they hold on any host.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = textwrap.dedent(
    """
    import json, sys
    print(json.dumps({
        name: name in sys.modules
        for name in ("scipy", "scipy.special", "scipy.stats", "networkx")
    }))
    """
)


def _loaded(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; which heavy modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script) + PROBE],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.waas",
        "repro.provision.deployer",
        "repro.provision.cli",
        "repro.bench.cli",
        "repro.provenance.cli",
    ],
)
def test_entry_modules_load_no_scipy_or_networkx(module):
    loaded = _loaded(f"import {module}\n")
    assert not loaded["scipy"], f"importing {module} loaded scipy"
    assert not loaded["networkx"], f"importing {module} loaded networkx"


DEPLOY_AND_DRAIN = """
    from repro.cluster.condor import JobState
    from repro.core import CVRG_DATA_ENDPOINT, CloudTestbed, usecase_topology
    from repro.provision.deployer import Deployer
    from repro.transfer.globus_online import TaskStatus, TransferItem, TransferSpec

    bed = CloudTestbed(seed=3)
    sim = bed.ctx.sim
    # the use-case topology installs Galaxy and the full CRData catalog
    topology = usecase_topology("m1.small", cluster_nodes=2)
    deployment = bed.run(until=sim.process(Deployer(bed).deploy(topology)))
    assert deployment.galaxy.toolbox.get("crdata_affyDifferentialExpression")
    paths = [f"/home/boliu/layering/in-{i}.dat" for i in range(3)]
    for path in paths:
        bed.cvrg_fs.write(path, size=8 * 1024 * 1024, owner="boliu")

    def load(ctx):
        tasks = [
            bed.go.submit("boliu", TransferSpec(
                source_endpoint=CVRG_DATA_ENDPOINT,
                dest_endpoint=deployment.endpoint_name,
                items=[TransferItem(p, p)], notify=False,
            ))
            for p in paths
        ]
        jobs = [deployment.pool.submit(cpu_work=30.0, owner=f"o{i % 2}") for i in range(6)]
        yield ctx.sim.all_of(
            [bed.go.when_done(t) for t in tasks]
            + [deployment.pool.when_done(j) for j in jobs]
        )
        assert all(t.status is TaskStatus.SUCCEEDED for t in tasks)
        assert all(j.state is JobState.COMPLETED for j in jobs)

    bed.run(until=sim.process(load(bed.ctx)))
"""


def test_deploy_and_drain_loads_no_scipy_or_networkx():
    loaded = _loaded(DEPLOY_AND_DRAIN)
    assert not loaded["scipy"]
    assert not loaded["networkx"]


USECASE = """
    from repro.core.usecase import run_usecase
    from repro.galaxy import JobState

    result = run_usecase(scale_up_with=None, run_large=False)
    assert result.step3_job.state == JobState.OK
"""


def test_usecase_job_loads_scipy_special_but_not_stats():
    """affyDifferentialExpression.R runs the moderated t-test on
    ``scipy.special`` alone."""
    loaded = _loaded(USECASE)
    assert loaded["scipy.special"], "the use-case job did not run its engine"
    assert not loaded["scipy.stats"]
    assert not loaded["networkx"]
