"""Command line surface: artifacts, exit codes, and failure modes."""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from riskbench.cli import main
from riskbench.datafiles import data_path
from riskbench.errors import (ConfigError, ModelInvalidError, RiskbenchError,
                              RiskmlSyntaxError)
from riskbench.fileio import atomic_write_text, read_text
from riskbench.search import (SearchConfig, archive_to_csv,
                              make_feature_space, run_campaign)
from riskbench.sim.scenario import SCENARIO_FIELDS

from conftest import _PACKAGE_ROOT, just_outside, run_cli

MODEL = data_path("corner.riskml")
SCENARIO = data_path("corner_cell.scenario")


def run_main(*args):
    """Run `main` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(SystemExit) as raised:
        main(list(map(str, args)))
    return raised.value.code, out.getvalue(), err.getvalue()


def write_config(path, **overrides):
    entries = {
        "model": str(MODEL),
        "scenario": str(SCENARIO),
        "situation": "low_light_rush",
        "event": "insufficient_distance",
        "algorithm": "random",
        "budget": 15,
        "seed": 4,
        "sim_seed": 11,
        "threshold": 0.5,
        "out": "camp",
    }
    entries.update(overrides)
    lines = [f"{key} = {value}" for key, value in entries.items()
             if value is not None]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def campaign(tmp_path):
    """One small finished campaign to explain and replay against."""
    write_config(tmp_path / "c.config")
    result = run_cli("run", "--config", "c.config", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    return tmp_path


# -- validate -----------------------------------------------------------------


def test_validate_accepts_the_shipped_models(tmp_path):
    for name in ("default.riskml", "corner.riskml"):
        result = run_cli("validate", "--model", data_path(name))
        assert result.returncode == 0
        assert "ok" in result.stdout


def test_validate_reports_diagnostics(tmp_path):
    bad = tmp_path / "bad.riskml"
    bad.write_text('actor a\ngoal g owner ghost "g"\n')
    result = run_cli("validate", "--model", bad)
    assert result.returncode == 1
    assert "ghost" in result.stderr


def _corner_with(old, new):
    text = MODEL.read_text()
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("old,new", [
    ("[50, 1000] lux", "[50, 1e999] lux"),
    ("[50, 1000] lux", "[-1e999, 1000] lux"),
    ("min_margin < 0", "min_margin < -1e999"),
], ids=["upper-bound", "lower-bound", "threshold"])
def test_validate_rejects_non_finite_model_numbers(tmp_path, old, new):
    bad = tmp_path / "bad.riskml"
    bad.write_text(_corner_with(old, new))
    result = run_cli("validate", "--model", bad)
    assert result.returncode == 1
    assert "non-finite" in result.stderr


_ILLUMINANCE = ("feature illuminance continuous [50, 1000] lux "
                "binds environment.illuminance")


# The field types a feature of each kind may bind, and a domain of that kind.
_KINDS = {"continuous": ((float,), "[0.25, 0.75] u"),
          "integer": ((float, int), "[1, 2] u"),
          "categorical": ((str,), "{ssm, monitored_stop}")}


def _interval(kind, lo, hi):
    return (kind, f"[{lo!r}, {hi!r}] u")


def _reaching_outside(field):
    """Feature domains of a kind that fits `field`, each with one end or
    category just outside the field's domain."""
    if field.choices:
        return [("categorical", "{%s, %s}" % (field.choices[0], outside))
                for outside in just_outside(field)]
    kind = "integer" if field.type is int else "continuous"
    return [_interval(kind, value, value + 1) if value <= field.lo
            else _interval(kind, value - 1, value)
            for value in just_outside(field)]


# (kind, domain, path) of a binding that names no field, a field of a type
# the kind does not fit, or a field whose domain leaves out part of the
# feature's.
_MISMATCHES = st.one_of(
    st.sampled_from([("continuous", "[0.25, 0.75] u", path + "_x")
                     for path in SCENARIO_FIELDS]),
    st.sampled_from([(kind, domain, f.path)
                     for kind, (types, domain) in _KINDS.items()
                     for f in SCENARIO_FIELDS.values()
                     if f.type not in types]),
    st.sampled_from([(kind, domain, f.path)
                     for f in SCENARIO_FIELDS.values()
                     if f.type in (float, int, str)
                     for kind, domain in _reaching_outside(f)]))


@settings(max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_MISMATCHES)
@example(("continuous", "[50, 1000] lux", "camera.yawn"))
@example(("integer", "[0, 500] count", "belt.object_count"))
@example(("continuous", "[0, 2] ratio", "environment.contrast"))
def test_validate_rejects_any_binding_mismatch(tmp_path, mismatch):
    kind, domain, path = mismatch
    bad = tmp_path / "bad.riskml"
    bad.write_text(_corner_with(
        _ILLUMINANCE, f"feature illuminance {kind} {domain} binds {path}"))
    code, out, err = run_main("validate", "--model", bad)
    output = out + err
    assert code == 1, output
    assert "feature 'illuminance': " in output
    assert path in output


def test_validate_rejects_an_integer_bound_a_float_cannot_hold(tmp_path):
    bad = tmp_path / "bad.riskml"
    bad.write_text(MODEL.read_text() + "feature n integer "
                   "[0, 9007199254740993] count binds belt.object_count\n")
    result = run_cli("validate", "--model", bad)
    assert result.returncode == 1
    assert "feature 'n': integer bound beyond 2^53" in result.stderr


def test_validate_rejects_a_domain_wider_than_a_float(tmp_path):
    # Each bound is finite, but decoding a search point multiplies by
    # hi - lo, which is not.
    for name in ("default.riskml", "default_cell.scenario"):
        shutil.copy(data_path(name), tmp_path / name)
    model = tmp_path / "default.riskml"
    model.write_text(model.read_text().replace(
        "camera_yaw continuous [1.22, 1.92]",
        "camera_yaw continuous [-1e308, 1e308]"))
    result = run_cli("validate", "--model", model)
    assert result.returncode == 1
    assert "feature 'camera_yaw': domain wider than a float can hold" \
        in result.stderr


def test_validate_missing_file_is_an_io_error():
    result = run_cli("validate", "--model", "/nonexistent/m.riskml")
    assert result.returncode == 2


@pytest.mark.parametrize("target", ["model", "config", "scenario", "archive"])
def test_an_input_that_is_not_utf8_cannot_be_read(campaign, target):
    bad = campaign / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00bad")
    (campaign / "point.json").write_text(json.dumps(_POINT))
    args = {
        "model": ["validate", "--model", bad],
        "config": ["run", "--config", bad],
        "scenario": ["replay", "point.json", "--model", MODEL,
                     "--scenario", bad],
        "archive": ["explain", bad, "--model", MODEL],
    }[target]
    result = run_cli(*args, cwd=campaign)
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: cannot read {bad}: not UTF-8")


# -- cases --------------------------------------------------------------------


def test_cases_writes_the_case_file(tmp_path):
    result = run_cli("cases", "--model", MODEL, cwd=tmp_path)
    assert result.returncode == 0
    doc = json.loads((tmp_path / "cases.json").read_text())
    assert len(doc["cases"]) == 1
    assert doc["cases"][0]["goal"] == "safe_collaboration"


def test_cases_warns_when_nothing_to_argue(tmp_path):
    model = tmp_path / "calm.riskml"
    model.write_text("""
actor a
goal g owner a "g"
feature f continuous [0, 1] ratio binds environment.contrast
event fine positive when min_margin > 0 impacts +g
situation s "x" scenario "f.scenario" exposes fine features f
""")
    result = run_cli("cases", "--model", model, "--out", "out.json",
                     cwd=tmp_path)
    assert result.returncode == 0
    assert json.loads((tmp_path / "out.json").read_text())["cases"] == []
    assert "no" in result.stderr.lower()


# -- run ------------------------------------------------------------------------


def test_run_produces_the_campaign_artifacts(campaign):
    out = campaign / "camp"
    assert (out / "archive.csv").exists()
    assert (out / "summary.txt").exists()
    header = json.loads((out / "campaign.json").read_text())
    assert header["evaluations"] == 15
    assert header["config"]["algorithm"] == "random"
    assert header["threshold"] == 0.5
    summary = (out / "summary.txt").read_text().strip().split("\n")
    assert len(summary) == 3
    assert summary[0] == ("situation low_light_rush, "
                          "event insufficient_distance, algorithm random")
    assert summary[1].startswith("evaluations 15, violations ")
    assert summary[2].startswith("best robustness ")
    rows = (out / "archive.csv").read_text().strip().split("\n")
    assert len(rows) == 16


def test_run_flag_overrides_beat_the_config(tmp_path):
    write_config(tmp_path / "c.config")
    result = run_cli("run", "--config", "c.config", "--budget", 7,
                     "--out", "other", cwd=tmp_path)
    assert result.returncode == 0
    rows = (tmp_path / "other" / "archive.csv").read_text().strip().split("\n")
    assert len(rows) == 8


def test_run_resolves_inputs_relative_to_the_config(tmp_path):
    shutil.copy(MODEL, tmp_path / "m.riskml")
    shutil.copy(SCENARIO, tmp_path / "corner_cell.scenario")
    nested = tmp_path / "cfg"
    nested.mkdir()
    write_config(nested / "c.config", model="../m.riskml", scenario=None,
                 budget=5)
    result = run_cli("run", "--config", nested / "c.config", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "camp" / "archive.csv").exists()


def test_run_zero_budget_means_no_evaluations(tmp_path):
    write_config(tmp_path / "c.config", budget=0)
    result = run_cli("run", "--config", "c.config", cwd=tmp_path)
    assert result.returncode == 3
    assert "no evaluations" in result.stderr


def test_run_unknown_config_key(tmp_path):
    write_config(tmp_path / "c.config", warp=9)
    result = run_cli("run", "--config", "c.config", cwd=tmp_path)
    assert result.returncode == 2
    assert "warp" in result.stderr


def test_run_unknown_situation(tmp_path):
    write_config(tmp_path / "c.config", situation="elsewhere")
    result = run_cli("run", "--config", "c.config", cwd=tmp_path)
    assert result.returncode == 1
    assert "elsewhere" in result.stderr


def test_run_missing_config_file(tmp_path):
    result = run_cli("run", "--config", "missing.config", cwd=tmp_path)
    assert result.returncode == 2


_ANNEALING = {"algorithm": "simulated_annealing", "budget": 20}


@pytest.mark.parametrize("settings,flags,message", [
    ({}, ["--seed", "-1"], "seed outside [0, inf)"),
    ({"threshold": "nan"}, [], "threshold must be finite"),
    ({"threshold": "inf"}, [], "threshold must be finite"),
    ({**_ANNEALING, "sigma": "inf"}, [], "sigma must be finite"),
    ({**_ANNEALING, "sigma": "nan"}, [], "sigma must be finite"),
    ({**_ANNEALING, "t0": "inf"}, [], "t0 must be finite"),
    ({**_ANNEALING, "t0": "nan"}, [], "t0 must be finite"),
    ({"threshold": "1.5"}, [], "threshold outside [0, 1]"),
], ids=["seed-negative", "threshold-nan", "threshold-inf", "sigma-inf",
        "sigma-nan", "t0-inf", "t0-nan", "threshold-above-one"])
def test_run_rejects_a_bad_config_value(tmp_path, settings, flags, message):
    write_config(tmp_path / "c.config", **settings)
    result = run_cli("run", "--config", "c.config", *flags, cwd=tmp_path)
    assert result.returncode == 2
    assert message in result.stderr
    assert not (tmp_path / "camp").exists()


def test_annealing_runs_on_past_a_temperature_of_zero(tmp_path):
    # At alpha 0.01 the temperature underflows to 0.0 within 200
    # evaluations.
    write_config(tmp_path / "c.config", algorithm="simulated_annealing",
                 alpha=0.01, budget=200, seed=7)
    result = run_cli("run", "--config", "c.config", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "camp" / "archive.csv").read_text().count("\n") == 201


# -- run on a process pool ----------------------------------------------------


def test_run_matches_the_single_process_campaign(tmp_path, corner_model,
                                                 corner_scenario):
    # `run` evaluates on one process per usable CPU, itself among them (at
    # most two in these tests, see run_cli);
    # seed 9 first violates at evaluation 67, inside the third batch.
    write_config(tmp_path / "c.config", budget=120, seed=9,
                 stop_on_violation="true")
    result = run_cli("run", "--config", "c.config", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    config = SearchConfig(algorithm="random", budget=120, seed=9,
                          stop_on_violation=True)
    archive = run_campaign(corner_model, corner_scenario, "low_light_rush",
                           "insufficient_distance", config, workers=1)
    space = make_feature_space(corner_model, "low_light_rush")
    expected = archive_to_csv(archive, space)
    assert (tmp_path / "camp" / "archive.csv").read_text() == expected
    assert len(archive.points) == 67


# -- explain ----------------------------------------------------------------------


def test_explain_produces_the_report_bundle(campaign):
    out = campaign / "camp"
    result = run_cli("explain", out / "archive.csv", "--model", MODEL,
                     cwd=campaign)
    assert result.returncode == 0, result.stderr
    for name in ("tree.json", "rules.txt", "rules.json", "augmentation.json",
                 "annotated.riskml", "report.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["evaluations"] == 15
    assert report["threshold"] == 0.5
    assert report["event"] == "insufficient_distance"
    assert report["event_likelihood"]["samples"] == 15
    # The annotated model must still parse and carry the estimate.
    check = run_cli("validate", "--model", out / "annotated.riskml")
    assert check.returncode == 0
    assert "likelihood" in (out / "annotated.riskml").read_text()


def test_explain_zero_violation_archive(tmp_path):
    # This seeded 15-point campaign finds nothing, so the rule list is
    # empty and the annotation records a zero fraction.
    write_config(tmp_path / "c.config", seed=0)
    assert run_cli("run", "--config", "c.config", cwd=tmp_path).returncode == 0
    out = tmp_path / "camp"
    assert "violations 0" in (out / "summary.txt").read_text()
    result = run_cli("explain", out / "archive.csv", "--model", MODEL,
                     cwd=tmp_path)
    assert result.returncode == 0
    assert "no rules met" in (out / "rules.txt").read_text()
    assert "likelihood 0.0 of 15" in (out / "annotated.riskml").read_text()


def test_explain_threshold_flag_beats_the_header(campaign):
    out = campaign / "camp"
    result = run_cli("explain", out / "archive.csv", "--model", MODEL,
                     "--threshold", "0.05", cwd=campaign)
    assert result.returncode == 0
    report = json.loads((out / "report.json").read_text())
    assert report["threshold"] == 0.05


def test_explain_detects_model_drift(campaign, tmp_path):
    out = campaign / "camp"
    drifted = tmp_path / "drifted.riskml"
    drifted.write_text(read_text(str(MODEL)) + "\n# tuned later\n")
    result = run_cli("explain", out / "archive.csv", "--model", drifted,
                     cwd=campaign)
    assert result.returncode == 1
    assert "model digest mismatch" in result.stderr


def test_explain_needs_the_campaign_header(campaign, tmp_path):
    orphan = tmp_path / "archive.csv"
    shutil.copy(campaign / "camp" / "archive.csv", orphan)
    result = run_cli("explain", orphan, "--model", MODEL, cwd=tmp_path)
    assert result.returncode == 2


@pytest.mark.parametrize("edit", [
    lambda header: header.pop("config"),
    lambda header: header.update(config=[7]),
    lambda header: header["config"].pop("seed"),
    lambda header: header["config"].update(seed="7"),
    lambda header: header["config"].update(seed=7.5),
    lambda header: header["config"].update(seed=-1),
    lambda header: header["config"].update(algorithm=None),
    lambda header: header.update(threshold="high"),
    lambda header: header.update(threshold=float("nan")),
    lambda header: header.update(threshold=10 ** 400),
    lambda header: header["config"].update(sigma=float("nan")),
    lambda header: header["config"].update(warp=9),
    lambda header: header["config"].pop("sigma"),
    lambda header: header.pop("situation"),
    lambda header: header.update(situation=7),
    lambda header: header.pop("event"),
    lambda header: header.update(event=["x"]),
    lambda header: header.pop("evaluations"),
    lambda header: header.update(evaluations="15"),
    lambda header: header.update(evaluations=16),
], ids=["no-config", "config-list", "no-seed", "seed-string", "seed-float",
        "seed-negative", "algorithm-null", "threshold-string",
        "threshold-nan", "threshold-huge", "sigma-nan", "unknown-key",
        "no-sigma", "no-situation", "situation-number", "no-event",
        "event-list", "no-evaluations", "evaluations-string",
        "evaluations-mismatch"])
def test_explain_rejects_a_bad_campaign_header(campaign, edit):
    out = campaign / "camp"
    header = json.loads((out / "campaign.json").read_text())
    edit(header)
    (out / "campaign.json").write_text(json.dumps(header))
    result = run_cli("explain", out / "archive.csv", "--model", MODEL,
                     cwd=campaign)
    assert result.returncode == 2
    assert "campaign.json" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (out / "tree.json").exists()


@pytest.mark.parametrize("key", ["model_digest", "scenario_digest"])
def test_explain_rejects_a_digest_that_is_not_a_string(campaign, key):
    # report.json copies both digests from the header.
    out = campaign / "camp"
    header = json.loads((out / "campaign.json").read_text())
    header[key] = {"not": ["a", "digest"]}
    (out / "campaign.json").write_text(json.dumps(header))
    result = run_cli("explain", out / "archive.csv", "--model", MODEL,
                     cwd=campaign)
    assert result.returncode == 2
    assert f"{out / 'campaign.json'}: {key}: expected a string" \
        in result.stderr
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("edit", [
    lambda header: header.update(situation="ghost"),
    lambda header: header.update(event="ghost"),
], ids=["unknown-situation", "unexposed-event"])
def test_explain_rejects_a_header_name_the_model_lacks(campaign, edit):
    out = campaign / "camp"
    header = json.loads((out / "campaign.json").read_text())
    edit(header)
    (out / "campaign.json").write_text(json.dumps(header))
    result = run_cli("explain", out / "archive.csv", "--model", MODEL,
                     cwd=campaign)
    assert result.returncode == 1
    assert "'ghost'" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (out / "tree.json").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_explain_rejects_a_non_finite_threshold_flag(campaign, threshold):
    out = campaign / "camp"
    result = run_cli("explain", out / "archive.csv", "--model", MODEL,
                     "--threshold", threshold, cwd=campaign)
    assert result.returncode == 2
    assert "--threshold must be finite" in result.stderr
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("threshold", ["1.5", "-0.5"])
def test_explain_rejects_a_threshold_flag_outside_the_unit_interval(
        campaign, tmp_path, threshold):
    # Checked before the archive is read: a missing one is never reached.
    result = run_cli("explain", tmp_path / "absent.csv", "--model", MODEL,
                     "--threshold", threshold, cwd=campaign)
    assert result.returncode == 2
    assert f"--threshold outside [0, 1]: {threshold}" in result.stderr


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_explain_reports_no_best_robustness_when_none_is_finite(campaign):
    out = campaign / "camp"
    lines = (out / "archive.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        # An infinite robustness triggers nothing, so the row is compliant.
        for column, cell in (("robustness", "inf"), ("label", "compliance"),
                             ("triggered", "")):
            cells[header.index(column)] = cell
        lines[i] = ",".join(cells)
    (out / "archive.csv").write_text("\n".join(lines) + "\n")
    result = run_cli("explain", out / "archive.csv", "--model", MODEL,
                     cwd=campaign)
    assert result.returncode == 0, result.stderr
    report = _strict_json((out / "report.json").read_text())
    assert report["best_robustness"] is None


# The corner model plus a categorical feature, so the archive guard can be
# shown an undeclared category.
MODE_MODEL = read_text(str(MODEL)).replace(
    "binds operator.hand_speed\n",
    "binds operator.hand_speed\n"
    "feature mode categorical {ssm, monitored_stop} binds controller.mode\n",
).replace("features illuminance, belt_speed, operator_speed",
          "features illuminance, belt_speed, operator_speed, mode")


@pytest.fixture(scope="module")
def mode_campaign(tmp_path_factory):
    """One finished campaign over MODE_MODEL, shared by the guard tests."""
    root = tmp_path_factory.mktemp("mode")
    (root / "mode.riskml").write_text(MODE_MODEL)
    write_config(root / "c.config", model=root / "mode.riskml")
    result = run_cli("run", "--config", "c.config", cwd=root)
    assert result.returncode == 0, result.stderr
    return root


def _explain_with_cells(mode_campaign, tmp_path, edits):
    """Copy the campaign, set cells of line 4 of its archive (a compliant
    row: the campaign finds no violation), explain."""
    out = tmp_path / "camp"
    shutil.copytree(mode_campaign / "camp", out)
    lines = (out / "archive.csv").read_text().split("\n")
    cells = lines[3].split(",")
    for column, cell in edits.items():
        cells[lines[0].split(",").index(column)] = cell
    lines[3] = ",".join(cells)
    (out / "archive.csv").write_text("\n".join(lines))
    result = run_cli("explain", out / "archive.csv",
                     "--model", mode_campaign / "mode.riskml", cwd=tmp_path)
    return out, result


@pytest.mark.parametrize("column, cell", [
    ("illuminance", "nan"),
    ("illuminance", "1e999"),
    ("belt_speed", "0.9"),
    ("mode", "turbo"),
    ("robustness", "nan"),
    ("label", "non-compliance"),
    ("index", "x"),
    ("index", "7"),
])
def test_explain_rejects_a_bad_archive_cell(mode_campaign, tmp_path,
                                            column, cell):
    out, result = _explain_with_cells(mode_campaign, tmp_path, {column: cell})
    assert result.returncode == 2
    assert "line 4" in result.stderr
    assert not (out / "tree.json").exists()


def test_explain_rejects_an_archive_missing_its_last_row(mode_campaign,
                                                        tmp_path):
    out = tmp_path / "camp"
    shutil.copytree(mode_campaign / "camp", out)
    lines = (out / "archive.csv").read_text().splitlines(keepends=True)
    (out / "archive.csv").write_text("".join(lines[:-1]))
    result = run_cli("explain", out / "archive.csv",
                     "--model", mode_campaign / "mode.riskml", cwd=tmp_path)
    assert result.returncode == 2
    assert "campaign.json" in result.stderr
    assert "records 15 evaluations, the archive holds 14" in result.stderr
    assert not (out / "tree.json").exists()


def test_explain_accepts_an_infinite_robustness(mode_campaign, tmp_path):
    out, result = _explain_with_cells(mode_campaign, tmp_path,
                                      {"robustness": "inf"})
    assert result.returncode == 0, result.stderr
    assert (out / "tree.json").exists()


_VIOLATION = {"robustness": "-0.5", "label": "non_compliance",
              "triggered": "insufficient_distance"}


@pytest.mark.parametrize("edits, problem", [
    ({"triggered": "bogus_event"},
     "triggered event 'bogus_event' is not exposed"),
    ({**_VIOLATION,
      "triggered": "insufficient_distance;insufficient_distance"},
     "names an event twice"),
    ({**_VIOLATION, "robustness": "0.5"},
     "robustness 0.5 of 'insufficient_distance' contradicts"),
    ({"robustness": "-0.5"},
     "robustness -0.5 of 'insufficient_distance' contradicts"),
    ({**_VIOLATION, "label": "compliance"},
     "label 'compliance' contradicts"),
    ({"label": "non_compliance"}, "label 'non_compliance' contradicts"),
], ids=["unexposed-event", "event-twice", "triggered-at-positive-robustness",
        "untriggered-at-negative-robustness", "compliant-violation",
        "non-compliant-without-violation"])
def test_explain_rejects_an_archive_row_that_contradicts_itself(
        mode_campaign, tmp_path, edits, problem):
    # `run` writes every row from one verdict rule: an exposed event
    # triggers exactly when its robustness is negative, and the row is
    # non-compliant exactly when a negative event triggered.
    out, result = _explain_with_cells(mode_campaign, tmp_path, edits)
    assert result.returncode == 2
    assert "contradictory archive row at line 4" in result.stderr
    assert problem in result.stderr
    assert not (out / "tree.json").exists()


# -- replay -----------------------------------------------------------------------


def test_replay_reproduces_an_archive_row(campaign):
    out = campaign / "camp"
    header, first = (out / "archive.csv").read_text().strip().split("\n")[:2]
    columns = header.split(",")
    cells = first.split(",")
    row = dict(zip(columns, cells))
    assignment = {"illuminance": float(row["illuminance"]),
                  "belt_speed": float(row["belt_speed"]),
                  "operator_speed": float(row["operator_speed"])}
    (campaign / "point.json").write_text(json.dumps(assignment))
    result = run_cli("replay", "point.json", "--model", MODEL,
                     "--scenario", SCENARIO, "--out", "replayed",
                     cwd=campaign)
    assert result.returncode == 0, result.stderr
    verdict = json.loads((campaign / "replayed" / "verdict.json").read_text())
    situation = verdict["situations"]["low_light_rush"]
    assert situation["label"] == row["label"]
    event = situation["events"]["insufficient_distance"]
    assert repr(event["robustness"]) == row["robustness"]
    assert (campaign / "replayed" / "trace.csv").exists()
    assert f"low_light_rush: {row['label']}" in result.stdout


def test_replay_rejects_out_of_domain_points(campaign):
    # The second point's value is an integer too large for a float.
    for text in (json.dumps({"illuminance": 1e6}),
                 '{"illuminance": 1' + "0" * 400 + "}"):
        (campaign / "far.json").write_text(text)
        result = run_cli("replay", "far.json", "--model", MODEL,
                         "--scenario", SCENARIO, cwd=campaign)
        assert result.returncode == 1
        assert "outside" in result.stderr
        assert "Traceback" not in result.stderr


def test_replay_requires_a_json_object(campaign):
    (campaign / "list.json").write_text("[1, 2]")
    result = run_cli("replay", "list.json", "--model", MODEL,
                     "--scenario", SCENARIO, cwd=campaign)
    assert result.returncode == 2
    assert "JSON object" in result.stderr


_POINT = {"illuminance": 400.0, "belt_speed": 0.3, "operator_speed": 1.0}


@pytest.mark.parametrize("line", [
    "controller.reaction_time = nan",
    "arm.base = nan, 0",
    "arm.link1 = inf",
    "environment.illuminance = nan",
    "camera.yaw = nan",
    "duration = inf",
    "environment.contrast = 1.0000000000000002",
    "duration = 1e7",
    "arm.link1 = 1e308",
    "belt.object_count = 1000000000000",
    # An integer too large for a float.
    pytest.param("belt.object_count = 1" + "0" * 400,
                 id="belt.object_count = 1e400 as an integer"),
])
def test_replay_rejects_a_scenario_it_cannot_simulate(tmp_path, line):
    (tmp_path / "bad.scenario").write_text(line + "\n")
    (tmp_path / "point.json").write_text(json.dumps(_POINT))
    result = run_cli("replay", "point.json", "--model", MODEL,
                     "--scenario", "bad.scenario", "--out", "out",
                     cwd=tmp_path)
    assert result.returncode == 2
    assert line.split(" ")[0] in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out" / "verdict.json").exists()


def test_replay_of_an_infinite_feature_value_judges_nothing(tmp_path):
    (tmp_path / "open.riskml").write_text(
        _corner_with("[50, 1000] lux", "[50, 1e999] lux"))
    (tmp_path / "point.json").write_text(
        json.dumps({**_POINT, "illuminance": float("inf")}))
    result = run_cli("replay", "point.json", "--model", "open.riskml",
                     "--scenario", SCENARIO, "--out", "out", cwd=tmp_path)
    assert result.returncode == 1
    assert "non-finite" in result.stderr
    assert not (tmp_path / "out" / "verdict.json").exists()


# -- exit codes ---------------------------------------------------------------


def _an_error(cls):
    if cls is RiskmlSyntaxError:
        return cls("boom", 1, 2)
    if cls is ModelInvalidError:
        return cls(["boom"])
    return cls("boom")


@pytest.mark.parametrize("error", [
    _an_error(cls) for cls in (RiskbenchError, *RiskbenchError.__subclasses__())
], ids=lambda error: type(error).__name__)
@pytest.mark.parametrize("command, target", [
    ("run", "run_campaign"), ("explain", "induce_tree"),
    ("replay", "simulate")])
def test_an_error_that_escapes_a_command_exits_with_its_code(
        mode_campaign, tmp_path, monkeypatch, command, target, error):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(f"riskbench.cli.{target}", fail)
    (tmp_path / "point.json").write_text(json.dumps(_POINT))
    args = {
        "run": ["--config", mode_campaign / "c.config"],
        "explain": [mode_campaign / "camp" / "archive.csv",
                    "--model", mode_campaign / "mode.riskml"],
        "replay": [tmp_path / "point.json", "--model", MODEL,
                   "--scenario", SCENARIO],
    }[command]
    code, _, err = run_main(command, *args, "--out", tmp_path / "out")
    assert code == (2 if isinstance(error, ConfigError) else 1)
    assert err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, names", [
    ("validate", {"--model"}),
    ("cases", {"--model", "--out"}),
    ("run", {"--config", "--out", "--seed", "--budget"}),
    ("explain", {"ARCHIVE_PATH", "--model", "--threshold", "--out"}),
    ("replay", {"ASSIGNMENT_PATH", "--model", "--scenario", "--seed",
                "--out"}),
])
def test_each_command_lists_its_options(command, names):
    code, out, err = run_main(command, "--help")
    assert (code, err) == (0, "")
    # Every option, and each positional argument: a name in capitals that
    # follows no option.
    listed = {*re.findall(r"--[a-z]+", out),
              *re.findall(r"(?<![a-z] )\b[A-Z]+_PATH\b", out)}
    assert listed == {*names, "--help"}
    assert not re.search(r"(?<![\w-])-h\b", out)


@pytest.mark.parametrize("args", [
    ("validate", "--mod", MODEL),
    ("cases", "--model", MODEL, "--ou", "cases.json"),
    ("run", "--conf", "c.config"),
    ("replay", "point.json", "--model", MODEL, "--scen", SCENARIO),
], ids=lambda args: args[0])
def test_an_abbreviated_option_is_a_usage_error(tmp_path, args):
    result = run_cli(*args, cwd=tmp_path)
    assert result.returncode == 2
    assert "error" in result.stderr.lower()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    (), ("validate",), ("cases", "--model"), ("bogus",),
    ("validate", "--model", MODEL, "--nope"),
    ("run", "--config", "c.config", "--seed", "x"),
    ("explain", "--model", MODEL),
], ids=["no-command", "missing-option", "missing-value", "unknown-command",
        "unknown-option", "ill-typed-value", "missing-argument"])
def test_a_usage_error_exits_2(tmp_path, args):
    result = run_cli(*args, cwd=tmp_path)
    assert result.returncode == 2
    assert "error" in result.stderr.lower()
    assert result.stdout == ""


# -- start-up -----------------------------------------------------------------


def test_importing_the_cli_leaves_numpy_unloaded():
    env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT}
    probe = "import sys, riskbench.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_importing_the_cli_leaves_the_pool_modules_unloaded():
    # Only `run` starts a pool, and it imports what the pool needs then.
    env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT}
    probe = ("import sys, riskbench.cli; print(any(name in sys.modules "
             "for name in ('multiprocessing', 'signal')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def _fresh_cli(*args, cwd, before="", report="' '.join(sys.modules)"):
    """Run one command in a fresh interpreter, after the statements
    `before`; returns what `report` evaluates to when the process exits."""
    env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT}
    probe = (f"import atexit, sys\n{before}\n"
             f"atexit.register(lambda: print({report}))\n"
             "from riskbench.cli import main\nmain()")
    result = subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                            cwd=cwd, env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def _loaded(modules: str, *names):
    """The modules among `names`, or inside one of them, that are loaded."""
    return sorted(module for module in modules.split()
                  if module in names or module.startswith(
                      tuple(name + "." for name in names)))


@pytest.mark.parametrize("command", ["validate", "cases"])
def test_validate_and_cases_load_no_simulator_search_or_numpy(
        tmp_path, command):
    modules = _fresh_cli(command, "--model", MODEL, cwd=tmp_path)
    assert "riskbench.riskml.parser" in modules.split()
    assert _loaded(modules, "riskbench.search", "riskbench.explain",
                   "riskbench.sim.engine", "numpy", "multiprocessing",
                   "riskbench.evaluation") == []


def test_replay_loads_no_search_explanation_or_numpy(tmp_path):
    (tmp_path / "point.json").write_text(json.dumps(_POINT))
    modules = _fresh_cli("replay", "point.json", "--model", MODEL,
                         "--scenario", SCENARIO, "--out", "out", cwd=tmp_path)
    assert "riskbench.sim.engine" in modules.split()
    assert _loaded(modules, "riskbench.search", "riskbench.explain",
                   "numpy", "multiprocessing", "riskbench.evaluation") == []


def test_run_loads_no_numpy(tmp_path):
    write_config(tmp_path / "hc.config", algorithm="hill_climb", out="hc")
    modules = _fresh_cli("run", "--config", "hc.config", cwd=tmp_path)
    assert "riskbench.rng" in modules.split()
    assert _loaded(modules, "numpy") == []


# Wraps os.fork to record the threads of the process at each fork, and
# gives `run` two usable CPUs, so two evaluators, on any host.
_FORKS = """import os, threading
os.sched_getaffinity = lambda pid: {0, 1}
threads_at_fork = []
def fork(fork=os.fork):
    threads_at_fork.append(threading.active_count())
    return fork()
os.fork = fork
"""


def test_run_forks_a_process_of_one_thread(tmp_path):
    # A fork copies only the thread that calls it; had another thread held
    # a lock then, the worker would wait on it for ever.
    write_config(tmp_path / "hc.config", algorithm="hill_climb", out="hc")
    assert _fresh_cli("run", "--config", "hc.config", cwd=tmp_path,
                      before=_FORKS, report="threads_at_fork") == "[1]"


def test_explain_loads_no_campaign_simulator_or_pool(campaign):
    # The fixture's archive has both labels and a rule that draws
    # counterexamples; this seeded 15-point campaign finds no violation,
    # so its tree is one leaf and no rule draws any.
    write_config(campaign / "one.config", seed=0, out="one")
    assert run_cli("run", "--config", "one.config",
                   cwd=campaign).returncode == 0
    for out in ("camp", "one"):
        modules = _fresh_cli("explain", f"{out}/archive.csv", "--model",
                             MODEL, cwd=campaign)
        assert "riskbench.explain.tree" in modules.split()
        assert _loaded(modules, "riskbench.search.campaign",
                       "riskbench.sim.engine", "riskbench.sim.perception",
                       "riskbench.sim.geometry", "multiprocessing",
                       "numpy", "riskbench.evaluation") == []
    assert "rule #1" in (campaign / "camp" / "rules.txt").read_text()
    assert "no rules met" in (campaign / "one" / "rules.txt").read_text()


_COMMANDS = pytest.mark.parametrize("command", [
    ("validate", "--model", MODEL),
    ("cases", "--model", MODEL, "--out", "cases.json"),
    ("run", "--config", "c.config", "--out", "again"),
    ("explain", "camp/archive.csv", "--model", MODEL, "--out", "explained"),
    ("replay", "point.json", "--model", MODEL, "--scenario", SCENARIO,
     "--out", "replayed"),
], ids=lambda command: command[0])


@_COMMANDS
def test_every_command_freezes_its_import_heap(campaign, command):
    (campaign / "point.json").write_text(json.dumps(_POINT))
    frozen = _fresh_cli(*command, cwd=campaign, before="import gc",
                        report="gc.get_freeze_count()")
    # Importing argparse and the modules that `validate` loads makes over
    # ten thousand objects that the collector tracks.
    assert int(frozen) > 10_000


@_COMMANDS
def test_every_command_writes_the_same_bytes_without_click(
        campaign, tmp_path_factory, command):
    (campaign / "point.json").write_text(json.dumps(_POINT))
    env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT}
    runs = []
    for block in ("", "sys.modules['click'] = None"):
        cwd = tmp_path_factory.mktemp("copy")
        shutil.copytree(campaign, cwd, dirs_exist_ok=True)
        before = {path for path in cwd.rglob("*") if path.is_file()}
        probe = f"import sys\n{block}\nfrom riskbench.cli import main\nmain()"
        result = subprocess.run([sys.executable, "-c", probe,
                                 *map(str, command)], cwd=cwd, env=env,
                                capture_output=True, timeout=300)
        assert result.returncode == 0, result.stderr
        written = {str(path.relative_to(cwd)): path.read_bytes()
                   for path in cwd.rglob("*")
                   if path.is_file() and path not in before}
        runs.append((result.stdout, result.stderr, written))
    assert runs[0][2] or command[0] == "validate"
    assert runs[1] == runs[0]


# The functions that riskbench's modules and classes hold and that were
# compiled from source text at run time, as `dataclass()` and
# `namedtuple()` compile the methods they write.
_GENERATED = """import sys
def generated():
    found = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "riskbench":
            continue
        for value in vars(module).values():
            owned = (isinstance(value, type)
                     and value.__module__.split(".")[0] == "riskbench")
            for fn in vars(value).values() if owned else (value,):
                fn = getattr(fn, "__func__", fn)
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    found.add(f"{value.__module__}.{fn.__qualname__}")
    return sorted(found)
"""


@_COMMANDS
def test_no_command_compiles_methods_at_start_up(campaign, command):
    # Records take their methods from one base class (`riskbench.record`);
    # a frozen dataclass compiles six per class, about a millisecond.
    (campaign / "point.json").write_text(json.dumps(_POINT))
    assert _fresh_cli(*command, cwd=campaign, before=_GENERATED,
                      report="generated()") == "[]"


def test_a_second_command_in_one_process_freezes_nothing_more(tmp_path):
    # Objects made between the commands stay unfrozen: a second freeze
    # would add all ten thousand of them.
    probe = ("import gc\n"
             "from riskbench.cli import main\n"
             "def validate():\n"
             "    try:\n"
             f"        main(['validate', '--model', {str(MODEL)!r}])\n"
             "    except SystemExit:\n"
             "        pass\n"
             "validate()\n"
             "first = gc.get_freeze_count()\n"
             "kept = [[] for _ in range(10_000)]\n"
             "validate()\n"
             "print(first, gc.get_freeze_count())\n")
    env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT}
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    first, second = map(int, result.stdout.split()[-2:])
    assert first > 10_000
    assert second <= first


_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.skipif(not _TRACING.is_file(), reason="no benchmark tracer")
def test_every_traced_cli_attribute_resolves_before_any_command():
    # The layer tracer looks each name up on riskbench.cli before the
    # first command; each must be the object its home module defines.
    probe = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(_TRACING.parent)!r})\n"
        "from tracing import LAYER_PATCHES\n"
        "import riskbench.cli as cli\n"
        "for module, attr, _ in LAYER_PATCHES:\n"
        "    if module == 'riskbench.cli':\n"
        "        value = getattr(cli, attr, None)\n"
        "        home = getattr(value, '__module__', '') or ''\n"
        "        ok = home.startswith('riskbench.') and getattr(\n"
        "            importlib.import_module(home), attr, None) is value\n"
        "        print(attr, ok)\n")
    env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) >= 12
    assert [line for line in lines if not line.endswith(" True")] == []


def test_replay_calls_the_simulate_bound_on_the_cli_module(tmp_path):
    # Set before any command has run, so the command finds the name bound.
    (tmp_path / "point.json").write_text(json.dumps(_POINT))
    before = ("import riskbench.cli as cli\n"
              "from riskbench.sim import simulate\n"
              "calls = []\n"
              "cli.simulate = lambda *a: calls.append(a) or simulate(*a)")
    calls = _fresh_cli("replay", "point.json", "--model", MODEL,
                       "--scenario", SCENARIO, "--out", "out", cwd=tmp_path,
                       before=before, report="len(calls)")
    assert calls == "1"
    assert (tmp_path / "out" / "verdict.json").exists()


def test_every_command_works_without_numpy(tmp_path):
    # This seeded campaign over MODE_MODEL finds a violation, so its
    # archive has both labels and its rule draws continuous and
    # categorical counterexamples. The guided searches draw normals,
    # integers and generator states as well.
    (tmp_path / "mode.riskml").write_text(MODE_MODEL)
    # A numpy that cannot be imported: any command that imports it fails,
    # and run_cli reports the ImportError.
    stub = tmp_path / "stub" / "numpy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(
        'raise ImportError("numpy is not available")\n')
    for algorithm in ("random", "simulated_annealing", "genetic"):
        write_config(tmp_path / f"{algorithm}.config",
                     model=tmp_path / "mode.riskml", seed=8,
                     algorithm=algorithm, out=algorithm)
        assert run_cli("run", "--config", f"{algorithm}.config",
                       cwd=tmp_path).returncode == 0
        result = run_cli("run", "--config", f"{algorithm}.config",
                         "--out", f"{algorithm}-stubbed", cwd=tmp_path,
                         pythonpath=[stub.parent])
        assert result.returncode == 0, result.stderr
        for name in ("archive.csv", "campaign.json"):
            assert (tmp_path / f"{algorithm}-stubbed" / name).read_bytes() \
                == (tmp_path / algorithm / name).read_bytes()
    (tmp_path / "point.json").write_text(json.dumps(_POINT))
    for args in [("validate", "--model", MODEL),
                 ("cases", "--model", MODEL),
                 ("replay", "point.json", "--model", MODEL,
                  "--scenario", SCENARIO, "--out", "out"),
                 ("explain", "random/archive.csv", "--model", "mode.riskml",
                  "--out", "explained")]:
        result = run_cli(*args, cwd=tmp_path, pythonpath=[stub.parent])
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "verdict.json").exists()
    per_rule = json.loads((tmp_path / "explained" / "augmentation.json")
                          .read_text())["per_rule"]
    drawn = [a for rule in per_rule for a in rule["assignments"]]
    assert drawn and all(a["mode"] in ("ssm", "monitored_stop")
                         for a in drawn)


# -- artifacts ------------------------------------------------------------------


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_take_the_mode_the_umask_allows(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "out" / "a.json"), "{}\n")
    finally:
        os.umask(previous)
    assert (tmp_path / "out" / "a.json").stat().st_mode & 0o777 == mode
