"""Trajectory artefact: append, round-trip, aggregation, rendering."""

import json

import pytest

from repro.bench import suites, trajectory
from repro.bench.harness import run_suite

pytestmark = pytest.mark.bench


def _record(**overrides):
    doc = dict(
        commit="abc1234",
        date="2026-08-07T00:00:00+00:00",
        suite="scale",
        config_digest="0" * 16,
        workers=4,
        wall_seconds=1.25,
        events_processed=20000,
        events_per_sec=16000.0,
        tasks_ok=4,
        tasks_failed=0,
    )
    doc.update(overrides)
    return trajectory.TrajectoryRecord(**doc)


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "traj.json"
    assert trajectory.load(path) == []
    trajectory.append(_record(commit="aaaa111"), path)
    records = trajectory.append(_record(commit="bbbb222"), path)
    assert [r.commit for r in records] == ["aaaa111", "bbbb222"]
    assert trajectory.load(path) == records
    # the file is a plain JSON list, readable without this module
    doc = json.loads(path.read_text())
    assert [d["commit"] for d in doc] == ["aaaa111", "bbbb222"]


def test_records_carrying_a_dispatch_mode_still_load_and_render(tmp_path):
    """Records written while the kernel had dispatch modes carry a
    ``dispatch`` key; loading drops it and rendering still works."""
    path = tmp_path / "traj.json"
    old = dict(_record(commit="0ld0ld0").to_dict(), dispatch="cohort")
    path.write_text(json.dumps([old]))
    [record] = trajectory.load(path)
    assert record == _record(commit="0ld0ld0")
    assert "dispatch" not in record.to_dict()
    table = trajectory.render([record])
    assert "0ld0ld0" in table
    assert "dispatch" not in table


def test_from_suite_result_aggregates_kernel_counters():
    result = run_suite(suites.scale_suite(smoke=True), workers=1)
    record = trajectory.from_suite_result(result, commit="c0ffee1", date="2026-08-07")
    assert record.commit == "c0ffee1"
    assert record.suite == result.suite
    assert record.config_digest == result.config_digest()
    expected_events = sum(t.payload["events_processed"] for t in result.tasks)
    assert record.events_processed == expected_events
    assert record.events_per_sec > 0
    assert record.tasks_ok == len(result.tasks)
    assert record.tasks_failed == 0


def test_scale_smoke_event_count_matches_committed_baseline():
    """The gate's exact pin holds for the code as it stands."""
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / (
        "benchmarks/results/trajectory_baseline.json"
    )
    baseline = json.loads(path.read_text())
    # the suite `gp-bench scale --smoke` runs, named as the gate expects
    result = run_suite(suites.combined(["scale"], smoke=True), workers=1)
    record = trajectory.from_suite_result(result, commit="c0ffee1", date="d")
    assert record.suite == baseline["suite"]
    assert record.events_processed == baseline["events_processed"]


def test_from_suite_result_without_kernel_counters():
    result = run_suite(suites.fig11_suite(smoke=True), workers=1)
    record = trajectory.from_suite_result(result, commit="c0ffee1", date="2026-08-07")
    assert record.events_processed == 0
    assert record.events_per_sec == 0.0


def test_render_shows_most_recent_commits(tmp_path):
    path = tmp_path / "traj.json"
    for i in range(12):
        trajectory.append(_record(commit=f"commit{i:02d}"), path)
    records = trajectory.load(path)
    table = trajectory.render(records, last=3)
    assert "commit11" in table and "commit09" in table
    assert "commit00" not in table
    assert "12 runs tracked" in table


def test_current_commit_returns_short_hash_or_unknown():
    commit = trajectory.current_commit()
    assert commit == "unknown" or (4 <= len(commit) <= 40)


# -- the --check regression gate -------------------------------------------


def _baseline(**overrides):
    doc = {
        "suite": "scale",
        "min_events_per_sec": 10000,
        "reference_events_per_sec": 16000,
        "critpath": {
            "layers": {"boot": 60.0, "execute": 40.0},
            "makespan_s": 100.0,
            "tolerance_s": 1e-6,
        },
    }
    doc.update(overrides)
    return doc


def _critpath(**overrides):
    doc = {"layers": {"boot": 60.0, "execute": 40.0}, "makespan_s": 100.0}
    doc.update(overrides)
    return doc


def test_check_passes_within_bounds():
    failures = trajectory.check_against_baseline(
        _baseline(), [_record()], _critpath()
    )
    assert failures == []


def test_check_fails_without_matching_record():
    failures = trajectory.check_against_baseline(
        _baseline(), [_record(suite="waas")], _critpath()
    )
    assert any("no trajectory record" in f for f in failures)


def test_check_fails_on_failed_tasks_and_slow_runs():
    failures = trajectory.check_against_baseline(
        _baseline(), [_record(tasks_failed=1)], _critpath()
    )
    assert any("failed task" in f for f in failures)
    failures = trajectory.check_against_baseline(
        _baseline(), [_record(events_per_sec=9000.0)], _critpath()
    )
    assert any("events/sec regressed" in f for f in failures)


def test_check_names_the_drifted_layer():
    critpath = _critpath(layers={"boot": 65.0, "execute": 40.0})
    failures = trajectory.check_against_baseline(
        _baseline(), [_record()], critpath
    )
    assert any("layer 'boot' drifted" in f for f in failures)
    # a layer present on only one side is drift too, not a silent skip
    critpath = _critpath(layers={"boot": 60.0, "execute": 40.0, "queue": 3.0})
    failures = trajectory.check_against_baseline(
        _baseline(), [_record()], critpath
    )
    assert any("layer 'queue' drifted" in f for f in failures)


def test_check_names_makespan_drift_and_missing_critpath():
    failures = trajectory.check_against_baseline(
        _baseline(), [_record()], _critpath(makespan_s=99.0)
    )
    assert any("makespan drifted" in f for f in failures)
    failures = trajectory.check_against_baseline(_baseline(), [_record()], None)
    assert any("no --critpath file" in f for f in failures)


def test_check_pins_events_processed_exactly():
    baseline = _baseline(events_processed=20000)
    assert trajectory.check_against_baseline(baseline, [_record()], _critpath()) == []
    for drifted in (19999, 20001):
        failures = trajectory.check_against_baseline(
            baseline, [_record(events_processed=drifted)], _critpath()
        )
        assert any("events_processed drifted" in f for f in failures)


def test_check_uses_latest_matching_record():
    records = [_record(events_per_sec=5000.0), _record(events_per_sec=20000.0)]
    assert trajectory.check_against_baseline(_baseline(), records, _critpath()) == []


def test_main_check_exit_codes(tmp_path, capsys):
    traj = tmp_path / "traj.json"
    trajectory.append(_record(), traj)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_baseline()))
    critpath = tmp_path / "scale.critpath.json"
    critpath.write_text(json.dumps(_critpath()))

    ok = trajectory.main(
        ["--check", "--trajectory", str(traj), "--baseline", str(baseline),
         "--critpath", str(critpath)]
    )
    assert ok == 0
    assert "within baseline bounds" in capsys.readouterr().out

    critpath.write_text(json.dumps(_critpath(layers={"boot": 65.0, "execute": 40.0})))
    bad = trajectory.main(
        ["--check", "--trajectory", str(traj), "--baseline", str(baseline),
         "--critpath", str(critpath)]
    )
    assert bad == 1
    assert "trajectory check FAILED" in capsys.readouterr().err

    assert trajectory.main(
        ["--check", "--trajectory", str(traj),
         "--baseline", str(tmp_path / "missing.json")]
    ) == 2
    assert trajectory.main(
        ["--check", "--trajectory", str(traj), "--baseline", str(baseline),
         "--critpath", str(tmp_path / "missing.critpath.json")]
    ) == 2


def test_main_renders_table_without_check(tmp_path, capsys):
    traj = tmp_path / "traj.json"
    trajectory.append(_record(), traj)
    assert trajectory.main(["--trajectory", str(traj)]) == 0
    assert "Perf trajectory" in capsys.readouterr().out


def test_committed_baseline_matches_the_schema():
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / (
        "benchmarks/results/trajectory_baseline.json"
    )
    doc = json.loads(path.read_text())
    assert doc["suite"] == "scale-smoke"
    assert doc["min_events_per_sec"] > 0
    assert isinstance(doc["events_processed"], int) and doc["events_processed"] > 0
    layers = doc["critpath"]["layers"]
    assert layers and all(v >= 0 for v in layers.values())
    assert doc["critpath"]["makespan_s"] > 0


def test_module_entry_point_runs_once_in_a_fresh_interpreter():
    """``python -m repro.bench.trajectory`` finds the module unimported
    (the package does not import it eagerly), so runpy raises no
    double-import RuntimeWarning and the gate exits 0 with warnings as
    errors."""
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.bench.trajectory", "--help"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "RuntimeWarning" not in out.stderr
