"""The waas suite through the harness: shape, registry, determinism."""

from dataclasses import replace

import pytest

from repro.bench import suites, waas
from repro.bench.harness import BenchSuite, run_suite

pytestmark = pytest.mark.bench

# one cheap shape shared by the determinism tests (the full smoke grid
# runs in CI; here a single overload scenario keeps the suite fast)
TINY = replace(
    waas.SMOKE_CONFIG, tenants=6, workflows=12, arrival_rate_per_s=0.05,
    max_in_flight=8,
)


def _tiny_suite(policy: str = "queue_depth") -> BenchSuite:
    cfg = replace(TINY, policy=policy)
    return BenchSuite("waas-tiny", "ad-hoc", (suites._waas_spec(cfg),))


def test_smoke_config_runs_and_checks_shape():
    result = waas.run(TINY)
    result.check_shape()
    assert result.workflows_completed == 12
    assert result.policy == {"name": "static"}
    assert result.scaling_events == []
    assert result.cost_proportional_usd > 0
    assert result.plan_work_s > 0
    assert result.deploy_sim_seconds > 0


def test_autoscaled_config_beats_static_smoke_baseline():
    static = waas.run(waas.SMOKE_CONFIG)
    elastic = waas.run(replace(waas.SMOKE_CONFIG, policy="queue_depth"))
    static.check_shape()
    elastic.check_shape()
    assert elastic.scale_ups > 0
    assert elastic.peak_workers > 1
    # the smoke shape is tuned so elasticity wins on SLA
    assert elastic.sla_attainment > static.sla_attainment


def test_result_round_trips_through_config_dict():
    result = waas.run(TINY)
    doc = result.to_dict()
    rebuilt = waas.WaasConfig(**doc["config"])
    assert rebuilt == TINY


def test_suite_is_registered():
    assert "waas" in suites.names()
    suite = suites.waas_suite(smoke=True)
    assert [s.task for s in suite.specs] == ["waas.run"] * 3
    policies = [s.name.split("/")[1] for s in suite.specs]
    assert policies == ["static", "queue_depth", "deadline_slack"]
    combined = suites.combined(None, smoke=True)
    assert any(s.task == "waas.run" for s in combined.specs)


def test_sim_json_invariant_across_workers():
    suite = _tiny_suite()
    seq = run_suite(suite, workers=1)
    par = run_suite(suite, workers=2)
    assert seq.ok and par.ok
    assert seq.sim_json() == par.sim_json()


def test_sim_json_invariant_under_observability():
    suite = _tiny_suite()
    off = run_suite(suite, workers=1)
    on = run_suite(suite, workers=1, obs=True)
    assert off.ok and on.ok
    assert off.sim_json() == on.sim_json()
    # obs actually recorded something while leaving the sim untouched
    assert on.obs_docs(), "expected waas spans/metrics in the obs stream"
