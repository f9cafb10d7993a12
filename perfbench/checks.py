"""Correctness checks on the files the CLI writes.

These do not trust the program's own digests or parsers: the archive is
read with the csv module, a few rows are re-simulated through the public
library API, and counterexamples are tested against their rules and the
feature bounds directly. Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from riskbench.sim import bind_assignment, evaluate_events, simulate


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cell_value(feature, cell: str):
    if feature.kind == "categorical":
        return cell
    if feature.kind == "integer":
        return int(cell)
    return float(cell)


def _in_domain(feature, value) -> bool:
    if feature.kind == "categorical":
        return value in feature.values
    if feature.kind == "integer" and (isinstance(value, bool)
                                      or not isinstance(value, int)):
        return False
    return feature.lo <= value <= feature.hi


def read_archive(path: Path, model, situation) -> list:
    """(index, assignment, robustness, label) per row, header checked."""
    # The archive orders feature columns as the model declares them.
    features = [f for f in model.features if f.name in situation.features]
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    expected = ["index", *(f.name for f in features), "robustness", "label",
                "triggered"]
    if not rows or rows[0] != expected:
        raise ValueError(f"archive header {rows[:1]!r} != {expected!r}")
    out = []
    for cells in rows[1:]:
        if len(cells) != len(expected):
            raise ValueError(f"malformed archive row {cells!r}")
        assignment = {f.name: _cell_value(f, c)
                      for f, c in zip(features, cells[1:])}
        out.append((int(cells[0]), assignment,
                    float(cells[1 + len(features)]), cells[2 + len(features)]))
    return out


def check_archive(path: Path, budget: int, model, scenario, situation,
                  event: str, sim_seed: int) -> list:
    """Row count, index order, and exact re-simulation of three rows."""
    try:
        rows = read_archive(path, model, situation)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    problems = []
    if len(rows) != budget:
        problems.append(f"{path.name}: {len(rows)} rows, budget {budget}")
    if [r[0] for r in rows] != list(range(len(rows))):
        problems.append(f"{path.name}: index column is not 0..n-1")
    for i in sorted({0, len(rows) // 2, len(rows) - 1} if rows else ()):
        _, assignment, robustness, label = rows[i]
        try:
            verdict = evaluate_events(
                simulate(bind_assignment(scenario, model, assignment),
                         sim_seed), model, situation)
        except Exception as exc:  # any library error fails this row
            problems.append(f"{path.name} row {i}: re-simulation raised "
                            f"{type(exc).__name__}: {exc}")
            continue
        again = verdict.per_event[event].robustness
        if again != robustness or verdict.label != label:
            problems.append(f"{path.name} row {i}: stored ({robustness!r}, "
                            f"{label}) != re-simulated ({again!r}, "
                            f"{verdict.label})")
    return problems


def _satisfies(constraint: dict, value) -> bool:
    if constraint["kind"] == "categorical":
        return value in constraint["values"]
    above = value > constraint["lo"] if constraint["lo_strict"] \
        else value >= constraint["lo"]
    return above and value <= constraint["hi"]


def check_augmentation(directory: Path, model, situation) -> list:
    """Every counterexample lies in its rule's region and the bounds."""
    try:
        rules = {r["id"]: r for r in json.loads(
            (directory / "rules.json").read_text(encoding="utf-8"))["rules"]}
        per_rule = json.loads((directory / "augmentation.json").read_text(
            encoding="utf-8"))["per_rule"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"rules/augmentation unreadable: {exc}"]
    if [entry["rule_id"] for entry in per_rule] != list(rules):
        return ["augmentation.json does not cover rules.json in order"]
    features = {name: model.feature(name) for name in situation.features}
    for entry in per_rule:
        rule = rules[entry["rule_id"]]
        for assignment in entry["assignments"]:
            if set(assignment) != set(features):
                return [f"rule {rule['id']}: assignment keys "
                        f"{sorted(assignment)} != {sorted(features)}"]
            for name, value in assignment.items():
                if not _in_domain(features[name], value):
                    return [f"rule {rule['id']}: {name}={value!r} is outside "
                            "the feature bounds"]
            for constraint in rule["constraints"]:
                if not _satisfies(constraint,
                                  assignment[constraint["feature"]]):
                    return [f"rule {rule['id']}: {assignment!r} violates "
                            f"{constraint!r}"]
    return []


def check_replay(directory: Path, assignment: dict, model, scenario,
                 sim_seed: int) -> list:
    """verdict.json agrees with an in-process simulation of the probe."""
    try:
        doc = json.loads((directory / "verdict.json").read_text(
            encoding="utf-8"))
        trace_rows = (directory / "trace.csv").read_text(
            encoding="utf-8").count("\n") - 1
    except (OSError, ValueError) as exc:
        return [f"replay outputs unreadable: {exc}"]
    trace = simulate(bind_assignment(scenario, model, assignment), sim_seed)
    problems = []
    if trace_rows != len(trace.steps):
        problems.append(f"trace.csv has {trace_rows} rows, the episode "
                        f"{len(trace.steps)} steps")
    for situation in model.situations:
        verdict = evaluate_events(trace, model, situation)
        stored = doc.get("situations", {}).get(situation.name, {})
        expected = {"label": verdict.label, "events": {
            name: {"triggered": o.triggered, "robustness": o.robustness}
            for name, o in verdict.per_event.items()}}
        if stored != expected:
            problems.append(f"verdict.json {situation.name}: {stored!r} != "
                            f"re-simulated {expected!r}")
    return problems
