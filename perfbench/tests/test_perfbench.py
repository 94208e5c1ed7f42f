"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
REPRO = os.path.join(ROOT, "src", "repro")


def _prepared(name: str, seed: int):
    w = workloads.WORKLOADS[name]("tiny")
    w.load()
    w.world(seed)
    w.inputs(seed)
    return w


def _inputs_of(w) -> object:
    if isinstance(w, workloads.Campaign):
        return (w.file_sizes, w.job_work, w.job_owner)
    if isinstance(w, workloads.WaasTenants):
        return [(r.id, r.tenant.name, r.arrival_s, r.allowance_s, r.dag)
                for r in w.plan.requests]
    return (w.columns, [b.ctx.seed for b in w.beds])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    assert _inputs_of(_prepared(name, 3)) == _inputs_of(_prepared(name, 3))
    if name != "fig10_matrix":  # the Fig. 10 grid is the same for every seed
        assert _inputs_of(_prepared(name, 3)) != _inputs_of(_prepared(name, 4))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_the_output_check(name):
    w = _prepared(name, 1)
    w.run()
    outcome = w.check().to_dict()
    assert outcome["attempted"] > 0
    assert outcome["failed"] == 0, outcome
    assert outcome["errors"] == []
    assert set(outcome["counts"]) == {n for n, _ in run.COUNTS}
    # a second run of the same seed gives the same model outputs and counters
    again = _prepared(name, 1)
    again.run()
    second = again.check().to_dict()
    assert second["model"] == outcome["model"]
    assert second["counts"] == outcome["counts"]


def test_wrong_answer_counts_as_failed():
    w = _prepared("campaign", 1)
    w.run()
    w.tasks[0].bytes_transferred -= 1
    outcome = w.check().to_dict()
    assert outcome["errors"] and outcome["failed"] == outcome["attempted"]


def test_every_repro_package_has_a_layer():
    assert layers.unmapped_packages(REPRO) == []
    assert set(layers.PACKAGE_LAYER.values()) == set(layers.LAYERS)


def test_new_package_without_a_layer_fails(tmp_path):
    fake = tmp_path / "repro"
    shutil.copytree(REPRO, fake, ignore=shutil.ignore_patterns("__pycache__"))
    (fake / "newlayer").mkdir()
    (fake / "newlayer" / "__init__.py").write_text("")
    assert layers.unmapped_packages(str(fake)) == ["newlayer"]
    classifier = layers.Classifier(str(fake), PERFBENCH)
    with pytest.raises(layers.UnmappedPackage):
        classifier.layer_of(str(fake / "newlayer" / "mod.py"))
    assert classifier.layer_of(str(fake / "cluster" / "condor.py")) == "cluster"
    assert classifier.layer_of(str(fake / "calibration.py")) == "core"
    assert classifier.layer_of(os.path.join(PERFBENCH, "run.py")) == layers.UNATTRIBUTED
    assert classifier.layer_of("~") is None


def test_attribution_charges_builtins_to_the_caller():
    classifier = layers.Classifier(REPRO, PERFBENCH)
    cond = (os.path.join(REPRO, "cluster", "condor.py"), 1, "negotiate")
    kern = (os.path.join(REPRO, "simcore", "kernel.py"), 1, "step")
    sort = ("~", 0, "<built-in method builtins.sorted>")
    key = (os.path.join(REPRO, "cluster", "condor.py"), 9, "key")
    # (cc, nc, tt, ct, callers{caller: (nc, cc, tt, ct)})
    stats = {
        kern: (1, 1, 1.0, 10.0, {}),
        cond: (5, 5, 2.0, 9.0, {kern: (5, 5, 2.0, 9.0)}),
        sort: (7, 7, 4.0, 7.0, {cond: (4, 4, 3.0, 6.0), kern: (3, 3, 1.0, 1.0)}),
        key: (70, 70, 3.0, 3.0, {sort: (70, 70, 3.0, 3.0)}),
    }
    out = layers.attribute(stats, classifier)
    assert out["self_s"]["simcore"] == pytest.approx(1.0 + 1.0)
    assert out["self_s"]["cluster"] == pytest.approx(2.0 + 3.0 + 3.0)
    assert out["total_s"] == pytest.approx(10.0)
    # sorted is mostly called from cluster, so its calls into cluster stay inside
    assert out["calls_in"]["cluster"] == 5
    assert out["calls_in"]["simcore"] == 0


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, names", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_cli_prints_every_metric(trace, names):
    proc = _bench(ROOT, "--workload", "campaign", "--seed", "2", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(names)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(tmp_path, "--workload", "campaign", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
