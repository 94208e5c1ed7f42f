"""Replay: byte-identity, bundles that carry retired kernel knobs,
counterfactual comparisons, override parsing, and the gp-replay CLI."""

import json

import pytest

from repro.bench.harness import run_suite
from repro.provenance import (
    BundleError,
    build_bundle,
    parse_overrides,
    rebuild_suite,
    replay,
    write_bundle,
)
from repro.provenance.cli import main

from .conftest import tiny_suite


def test_replay_is_byte_identical():
    result = run_suite(tiny_suite(), obs=True)
    report = replay(build_bundle(result))
    assert report.mode == "verify"
    assert report.verified is True
    assert report.divergence is None


def _with_kernel_knobs(bundle, tmp_path, scheduler, dispatch):
    """The bundle as an older writer produced it: the scenario section
    also names the kernel scheduler and dispatch mode, and every digest
    covers them."""
    from repro.provenance.bundle import content_digest

    path = write_bundle(bundle, tmp_path / "knobs.bundle.json")
    doc = json.loads(path.read_text())
    doc["sections"]["scenario"].update(scheduler=scheduler, dispatch=dispatch)
    doc["section_digests"]["scenario"] = content_digest(
        doc["sections"]["scenario"]
    )
    doc["digest"] = content_digest(doc["section_digests"])
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
@pytest.mark.parametrize("dispatch", ["scalar", "cohort"])
def test_replay_is_byte_identical_across_matrix(
    tiny_bundle, tmp_path, scheduler, dispatch
):
    """Bundles written under any of the retired kernel modes still verify
    and replay byte-identically; the one kernel ignores the knobs."""
    from repro.provenance import read_bundle, verify_bundle

    path = _with_kernel_knobs(tiny_bundle, tmp_path, scheduler, dispatch)
    old = read_bundle(path)
    assert old.scenario["scheduler"] == scheduler
    assert old.scenario["dispatch"] == dispatch
    assert old.digest() != tiny_bundle.digest()  # the knobs are digested
    verify_bundle(old)
    report = replay(old)
    assert report.mode == "verify"
    assert report.verified is True
    assert report.divergence is None
    assert main([str(path), "-q"]) == 0


def test_rebuild_suite_reapplies_seeds(tiny_bundle):
    suite = rebuild_suite(tiny_bundle)
    assert suite.name == "tiny"
    assert suite.specs[0].params["seed"] == 0
    assert suite.specs[0].task == "scale.run"


def test_rebuild_suite_applies_param_overrides(tiny_bundle):
    suite = rebuild_suite(
        tiny_bundle, {"seed": 7, "instance_type": "c1.medium"}
    )
    assert suite.specs[0].params["seed"] == 7
    assert suite.specs[0].params["instance_type"] == "c1.medium"


def test_rebuild_suite_rejects_malformed_scenario(tiny_bundle):
    import dataclasses

    broken = dataclasses.replace(tiny_bundle, scenario={"suite": "x"})
    with pytest.raises(BundleError) as exc:
        rebuild_suite(broken)
    assert exc.value.code == "scenario.malformed"

    empty = dataclasses.replace(
        tiny_bundle, scenario={**tiny_bundle.scenario, "specs": []}
    )
    with pytest.raises(BundleError) as exc:
        rebuild_suite(empty)
    assert exc.value.code == "scenario.malformed"


def test_counterfactual_instance_type_reports_deltas(tiny_bundle):
    report = replay(tiny_bundle, overrides={"instance_type": "c1.medium"})
    assert report.mode == "counterfactual"
    assert report.replay_ok
    assert report.comparison, "expected per-metric delta rows"
    metrics = {row["metric"] for row in report.comparison}
    assert any(m.startswith("scale/tiny:") for m in metrics)
    assert any(m.endswith("sim_seconds") for m in metrics)
    # a faster instance type must actually move the makespan
    assert any(
        row["delta"] != 0
        for row in report.comparison
        if row["metric"].endswith(":sim_seconds")
    )
    assert "counterfactual" in report.render()


def test_counterfactual_seed_changes_outcome(tiny_bundle):
    report = replay(tiny_bundle, overrides={"seed": 3})
    assert report.mode == "counterfactual"
    assert report.replay_ok


def test_replay_report_round_trips_through_json(tiny_bundle):
    report = replay(tiny_bundle)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["mode"] == "verify"
    assert doc["verified"] is True
    assert doc["tasks"] == 1


def test_parse_overrides():
    assert parse_overrides([]) == {}
    assert parse_overrides(["seed=5", "instance_type=c1.medium"]) == {
        "seed": 5,
        "instance_type": "c1.medium",
    }
    for bad in [
        "nonsense", "=x", "seed=", "warp_factor=9", "scheduler=heap",
        "dispatch=scalar",
    ]:
        with pytest.raises(BundleError) as exc:
            parse_overrides([bad])
        assert exc.value.code == "override.unknown"


@pytest.fixture()
def bundle_path(tiny_bundle, tmp_path):
    return write_bundle(tiny_bundle, tmp_path / "tiny.bundle.json")


def test_cli_verify_exit_zero(bundle_path, capsys):
    assert main([str(bundle_path)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_cli_check_only(bundle_path, capsys):
    assert main([str(bundle_path), "--check-only"]) == 0
    out = capsys.readouterr().out
    assert "bundle ok" in out
    assert "1 spec(s)" in out


def test_cli_export_sim_matches_bundled_sim(bundle_path, tiny_bundle, tmp_path):
    sim_path = tmp_path / "sim.json"
    code = main(
        [str(bundle_path), "--check-only", "--export-sim", str(sim_path), "-q"]
    )
    assert code == 0
    assert sim_path.read_text() == tiny_bundle.sim_json() + "\n"


def test_cli_json_out_report(bundle_path, tmp_path):
    report_path = tmp_path / "report.json"
    assert main([str(bundle_path), "--json-out", str(report_path), "-q"]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["verified"] is True
    assert doc["divergence"] is None


def test_cli_counterfactual_exit_zero(bundle_path, capsys):
    code = main([str(bundle_path), "--override", "instance_type=c1.medium"])
    assert code == 0
    assert "counterfactual" in capsys.readouterr().out


def test_cli_bad_override_exit_two(bundle_path, capsys):
    assert main([str(bundle_path), "--override", "warp=9"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "override.unknown"


@pytest.mark.parametrize("knob", ["scheduler=heap", "dispatch=scalar"])
def test_cli_retired_kernel_override_exit_two(bundle_path, capsys, knob):
    assert main([str(bundle_path), "--override", knob]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "override.unknown"


def test_cli_missing_bundle_exit_three(tmp_path, capsys):
    assert main([str(tmp_path / "absent.bundle.json")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "bundle.unreadable"


# -- trace-diff localization: name the span that moved ----------------------


def _tampered_bundle_path(bundle, tmp_path, mutate):
    """Write the bundle, apply ``mutate(sections)``, re-digest, rewrite."""
    from repro.provenance.bundle import content_digest

    path = write_bundle(bundle, tmp_path / "tampered.bundle.json")
    doc = json.loads(path.read_text())
    mutate(doc["sections"])
    for name, section in doc["sections"].items():
        doc["section_digests"][name] = content_digest(section)
    doc["digest"] = content_digest(doc["section_digests"])
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def test_replay_names_the_span_that_moved(tiny_bundle, tmp_path):
    from repro.provenance import read_bundle

    def shift_first_condor_wait(sections):
        spans = [
            s for d in sections["spans"] for s in d["spans"]
            if s["name"] == "condor.wait"
        ]
        spans[0]["start"] -= 1.5

    path = _tampered_bundle_path(tiny_bundle, tmp_path, shift_first_condor_wait)
    report = replay(read_bundle(path))
    assert report.verified is False
    div = report.span_divergence
    assert div is not None
    assert div.name == "condor.wait"
    assert div.track.startswith("condor/")
    assert div.field == "start"
    assert div.actual == div.expected + 1.5
    rendered = report.render()
    assert "DIVERGED" in rendered
    assert "condor.wait" in rendered
    assert div.track in rendered
    assert f"t={div.time:g}s" in rendered


def test_spans_only_tamper_still_fails_verification(tiny_bundle, tmp_path):
    """Sim JSON byte-equal but spans differ -> DIVERGED, never a pass."""
    from repro.provenance import read_bundle

    def drop_last_span(sections):
        sections["spans"][0]["spans"].pop()

    path = _tampered_bundle_path(tiny_bundle, tmp_path, drop_last_span)
    report = replay(read_bundle(path))
    assert report.verified is False
    assert report.span_divergence is not None
    assert report.span_divergence.field == "<missing>"
    # the numeric sim compare saw nothing wrong; the span diff did
    assert report.divergence is None


def test_cli_reports_span_divergence_and_exit_one(tiny_bundle, tmp_path, capsys):
    def shift_boot(sections):
        spans = [
            s for d in sections["spans"] for s in d["spans"]
            if s["name"] == "ec2.boot"
        ]
        spans[0]["end"] += 2.0

    path = _tampered_bundle_path(tiny_bundle, tmp_path, shift_boot)
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "first diverging span" in out
    assert "ec2.boot" in out
