"""Command-line workbench wiring the assurance stages into file workflows.

Subcommands: validate, cases, run, explain, replay. Campaign configs use
the same key-value format as scenario files; input paths inside a config
resolve relative to the config file, output paths relative to the working
directory. Every artifact write is atomic and every JSON output has stable
key order, so identical inputs give byte-identical outputs.

Exit codes follow one rule, which the command group applies to any error
a command lets escape: a ConfigError (an unusable input or config value)
exits 2, any other RiskbenchError exits 1. A campaign that performed no
evaluations exits 3, and success exits 0 (found violations are results,
not failures). A command converts an error itself only where the code
depends on context or the message gets a prefix.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import click

from .errors import (ConfigError, DomainError, RiskbenchError,
                     RiskmlSyntaxError, UnknownNameError)
from .explain import (dataset_from_rows, estimate_event_likelihood,
                      extract_rules, generate_counterexamples, induce_tree,
                      rules_report, rules_to_json, tree_to_json)
from .fileio import atomic_write_text, read_text, sha256_text, stable_json
from .kvdoc import Field, read_kv
from .riskml import (annotate_likelihoods, cases_to_json,
                     derive_assurance_cases, parse_risk_model,
                     serialize_model, validate)
from .search import (ARCHIVE_FORMAT, SEARCH_FIELDS, SearchConfig,
                     archive_header, archive_to_csv, make_feature_space,
                     parse_archive_csv, run_campaign)
from .sim import (LABEL_NON_COMPLIANCE, bind_assignment, check_bindings,
                  evaluate_events, load_scenario, simulate, trace_to_csv)

EXIT_INVALID = 1
EXIT_CONFIG = 2
EXIT_EMPTY = 3

DEFAULT_THRESHOLD = 0.2
DEFAULT_SIM_SEED = 11
AUGMENTATION_PER_RULE = 20


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_model_file(path: str):
    """Read, parse, and validate a model file; exits on any problem."""
    text = read_text(path)
    try:
        model = parse_risk_model(text)
    except RiskmlSyntaxError as exc:
        _fail(EXIT_INVALID, f"{path}: {exc}")
    # Bindings are checked against the scenario only in a sound model.
    problems = validate(model) or check_bindings(model)
    if problems:
        for problem in problems:
            click.echo(f"{path}: {problem}", err=True)
        sys.exit(EXIT_INVALID)
    return model, text


def _load_scenario_file(path: str):
    text = read_text(path)
    try:
        return load_scenario(text, source=path), text
    except (ConfigError, DomainError) as exc:
        _fail(EXIT_CONFIG, f"{path}: {exc}")


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(str(path), text)
    except OSError as exc:
        _fail(EXIT_CONFIG, f"cannot write {path}: {exc}")


def _read_json(path):
    try:
        return json.loads(read_text(str(path)))
    except ValueError as exc:
        _fail(EXIT_CONFIG, f"{path}: not valid JSON: {exc}")


class _Commands(click.Group):
    """The exit-code rule for every command: an error that escapes one
    exits 2 if it is a ConfigError and 1 otherwise."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            _fail(EXIT_CONFIG, str(exc))
        except RiskbenchError as exc:
            _fail(EXIT_INVALID, str(exc))


@click.group(cls=_Commands)
def main():
    """Risk-driven assurance workbench for a collaborative robot cell."""


@main.command("validate")
@click.option("--model", "model_path", required=True,
              type=click.Path(), help="Risk model file (.riskml).")
def cmd_validate(model_path):
    """Parse MODEL and check every model invariant."""
    _load_model_file(model_path)
    click.echo(f"{model_path}: ok")


@main.command("cases")
@click.option("--model", "model_path", required=True,
              type=click.Path(), help="Risk model file (.riskml).")
@click.option("--out", "out_path", default="cases.json", show_default=True,
              type=click.Path(), help="Output JSON file.")
def cmd_cases(model_path, out_path):
    """Derive assurance-case skeletons from MODEL."""
    model, _ = _load_model_file(model_path)
    cases = derive_assurance_cases(model)
    if not cases:
        click.echo("warning: no situation exposes a negative event; "
                   "case list is empty", err=True)
    _write(Path(out_path), stable_json(cases_to_json(cases)))
    click.echo(f"{len(cases)} assurance case(s) -> {out_path}")


# The config's typed keys, and its paths and names. The search config's
# own keys are checked when the search starts, after `run` has turned a
# budget below 1 into exit 3.
_THRESHOLD = Field("threshold", float, lo=0.0, hi=1.0)
_CONFIG_FIELDS = {**SEARCH_FIELDS, "threshold": _THRESHOLD,
                  "sim_seed": Field("sim_seed", int)}
_CONFIG_KEYS = set(_CONFIG_FIELDS) | {"model", "scenario", "situation",
                                      "event", "out"}
# The names a campaign.json header carries besides its config, and its
# row count.
_HEADER_NAMES = (Field("situation", str), Field("event", str))
_EVALUATIONS = Field("evaluations", int, lo=1)


def _usable_cpus() -> int:
    """CPUs this process may run on: the campaign's evaluators, this
    process among them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@main.command("run")
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="Campaign config file.")
@click.option("--out", "out_dir", default=None,
              type=click.Path(), help="Output directory (overrides config).")
@click.option("--seed", default=None, type=int,
              help="Search seed (overrides config).")
@click.option("--budget", default=None, type=int,
              help="Evaluation budget (overrides config).")
def cmd_run(config_path, out_dir, seed, budget):
    """Run a falsification campaign and persist its archive."""
    raw = read_kv(read_text(config_path), source=config_path)
    config_dir = Path(config_path).resolve().parent
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        _fail(EXIT_CONFIG,
              f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "model" not in raw:
        _fail(EXIT_CONFIG, "config is missing the 'model' key")

    model_path = config_dir / raw["model"]
    model, model_text = _load_model_file(str(model_path))

    situation_name = raw.get("situation")
    if situation_name is None:
        if len(model.situations) != 1:
            _fail(EXIT_CONFIG, "config must name a situation; the model "
                               f"declares {len(model.situations)}")
        situation_name = model.situations[0].name
    situation = model.situation(situation_name)

    if "scenario" in raw:
        scenario_path = config_dir / raw["scenario"]
    else:
        # The situation's reference resolves like an include: next to the
        # file that made it.
        scenario_path = model_path.parent / situation.scenario_ref
    scenario, scenario_text = _load_scenario_file(str(scenario_path))

    event_name = raw.get("event")
    if event_name is None:
        if len(situation.exposes) != 1:
            _fail(EXIT_CONFIG, "config must name an event; the situation "
                               f"exposes {len(situation.exposes)}")
        event_name = situation.exposes[0]

    try:
        values = {key: f.parse(raw[key])
                  for key, f in _CONFIG_FIELDS.items() if key in raw}
        threshold = values.pop("threshold", DEFAULT_THRESHOLD)
        sim_seed = values.pop("sim_seed", DEFAULT_SIM_SEED)
        _THRESHOLD.check(threshold)
    except (ConfigError, DomainError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    for key, flag in (("budget", budget), ("seed", seed)):
        if flag is not None:
            values[key] = flag
    config = SearchConfig(**values)
    if config.budget < 1:
        _fail(EXIT_EMPTY, "campaign performed no evaluations (budget "
                          f"{config.budget})")

    archive = run_campaign(model, scenario, situation_name, event_name,
                           config, sim_seeds=(sim_seed,),
                           workers=_usable_cpus())
    if not archive.points:
        _fail(EXIT_EMPTY, "campaign performed no evaluations")

    space = make_feature_space(model, situation_name)
    header = archive_header(
        space, config, (sim_seed,), situation_name, event_name,
        sha256_text(model_text), sha256_text(scenario_text),
        len(archive.points))
    header["threshold"] = threshold

    n = len(archive.points)
    n_viol = len(archive.violations)
    best = archive.points[archive.best]
    first = archive.violations[0] + 1 if archive.violations else None
    summary_lines = [
        f"situation {situation_name}, event {event_name}, "
        f"algorithm {config.algorithm}",
        f"evaluations {n}, violations {n_viol}"
        + (f", first at evaluation {first}" if first else ""),
        f"best robustness {best.robustness!r} at index {best.index}",
    ]

    out = Path(out_dir or raw.get("out") or "campaign_out")
    _write(out / "archive.csv", archive_to_csv(archive, space))
    _write(out / "campaign.json", stable_json(header))
    _write(out / "summary.txt", "\n".join(summary_lines) + "\n")
    for line in summary_lines:
        click.echo(line)
    click.echo(f"archive -> {out / 'archive.csv'}")


def _check_header(header, header_file: Path):
    """The campaign's search config, threshold, situation, event and
    evaluation count, each checked as `run` checks it; exit 2 unless the
    header holds what explain reads."""
    def bad(problem):
        _fail(EXIT_CONFIG, f"{header_file}: {problem}")

    if not isinstance(header, dict):
        bad("expected a JSON object")
    if header.get("format") != ARCHIVE_FORMAT:
        bad(f"unrecognized archive format {header.get('format')!r}")
    doc = header.get("config")
    if not isinstance(doc, dict):
        bad("missing the 'config' object")
    odd = sorted(doc.keys() ^ SEARCH_FIELDS.keys())
    if odd:
        bad(f"config keys missing or unknown: {', '.join(odd)}")
    try:
        config = SearchConfig(**{key: f.coerce(doc[key])
                                 for key, f in SEARCH_FIELDS.items()})
        threshold = _THRESHOLD.coerce(
            header.get("threshold", DEFAULT_THRESHOLD))
        situation, event = (f.coerce(header.get(f.path)) for f in _HEADER_NAMES)
        evaluations = _EVALUATIONS.coerce(header.get("evaluations"))
    except DomainError as exc:
        bad(str(exc))
    return config, threshold, situation, event, evaluations


@main.command("explain")
@click.argument("archive_path", type=click.Path())
@click.option("--model", "model_path", required=True,
              type=click.Path(), help="Risk model the archive came from.")
@click.option("--threshold", default=None, type=float,
              help="Rule likelihood threshold (overrides campaign config).")
@click.option("--out", "out_dir", default=None, type=click.Path(),
              help="Output directory (default: the archive's directory).")
def cmd_explain(archive_path, model_path, threshold, out_dir):
    """Explain ARCHIVE_PATH: tree, rules, counterexamples, likelihoods."""
    if threshold is not None:
        try:
            _THRESHOLD.check(threshold)
        except DomainError as exc:
            _fail(EXIT_CONFIG, f"--{exc}")
    archive_file = Path(archive_path)
    header_file = archive_file.parent / "campaign.json"
    archive_text = read_text(str(archive_file))
    header = _read_json(header_file)
    config, header_threshold, situation_name, event_name, evaluations = \
        _check_header(header, header_file)

    model, model_text = _load_model_file(model_path)
    if sha256_text(model_text) != header.get("model_digest"):
        _fail(EXIT_INVALID,
              "model digest mismatch: the archive was produced from a "
              "different model than " + str(model_path))

    if threshold is None:
        threshold = header_threshold

    situation = model.situation(situation_name)
    if event_name not in situation.exposes:
        raise UnknownNameError(f"event {event_name!r} is not exposed by "
                               f"situation {situation_name!r}")
    space = make_feature_space(model, situation_name)
    rows = parse_archive_csv(archive_text, space)
    if len(rows) != evaluations:
        _fail(EXIT_CONFIG, f"{header_file}: records {evaluations} "
                           f"evaluations, the archive holds {len(rows)}")
    dataset = dataset_from_rows(space, rows)
    tree = induce_tree(dataset)
    rules = extract_rules(tree, threshold)
    augmentation = [
        generate_counterexamples(rule, space, AUGMENTATION_PER_RULE,
                                 seed=config.seed)
        for rule in rules
    ]

    fraction, samples = estimate_event_likelihood(dataset)
    annotated = annotate_likelihoods(model, {event_name: (fraction, samples)})

    trigger_counts = {name: 0 for name in situation.exposes}
    for _, _, _, _, triggered in rows:
        for name in triggered:
            if name in trigger_counts:
                trigger_counts[name] += 1

    out = Path(out_dir) if out_dir else archive_file.parent
    best = min(r[2] for r in rows)
    report = {
        "archive": archive_file.name,
        "archive_digest": sha256_text(archive_text),
        "model_digest": header.get("model_digest"),
        "scenario_digest": header.get("scenario_digest"),
        "situation": situation_name,
        "event": event_name,
        "algorithm": config.algorithm,
        "threshold": threshold,
        "evaluations": len(rows),
        "violations": sum(1 for r in rows if r[3] == LABEL_NON_COMPLIANCE),
        "best_robustness": best if math.isfinite(best) else None,
        "event_likelihood": {"fraction": fraction, "samples": samples},
        "event_trigger_counts": trigger_counts,
        "rules": rules_to_json(rules)["rules"],
        "artifacts": ["tree.json", "rules.txt", "rules.json",
                      "augmentation.json", "annotated.riskml"],
    }

    _write(out / "tree.json", stable_json(tree_to_json(tree)))
    _write(out / "rules.txt",
           rules_report(rules, algorithm=config.algorithm))
    _write(out / "rules.json", stable_json(rules_to_json(rules)))
    _write(out / "augmentation.json", stable_json({
        "per_rule": [
            {"rule_id": aug.rule_id, "assignments": list(aug.assignments)}
            for aug in augmentation
        ]
    }))
    _write(out / "annotated.riskml", serialize_model(annotated))
    _write(out / "report.json", stable_json(report))

    click.echo(f"{len(rules)} rule(s) at threshold {threshold}; "
               f"event {event_name} likelihood {fraction:.3f} "
               f"({samples} samples)")
    click.echo(f"report -> {out / 'report.json'}")


@main.command("replay")
@click.argument("assignment_path", type=click.Path())
@click.option("--model", "model_path", required=True,
              type=click.Path(), help="Risk model file (.riskml).")
@click.option("--scenario", "scenario_path", required=True,
              type=click.Path(), help="Scenario file to bind against.")
@click.option("--seed", default=DEFAULT_SIM_SEED, show_default=True,
              type=int, help="Simulator seed.")
@click.option("--out", "out_dir", default=".", type=click.Path(),
              help="Output directory.")
def cmd_replay(assignment_path, model_path, scenario_path, seed, out_dir):
    """Simulate one feature assignment (JSON object) and judge it."""
    model, _ = _load_model_file(model_path)
    scenario, _ = _load_scenario_file(scenario_path)
    assignment = _read_json(assignment_path)
    if not isinstance(assignment, dict):
        _fail(EXIT_CONFIG, f"{assignment_path}: expected a JSON object of "
                           "feature values")

    bound = bind_assignment(scenario, model, assignment)
    trace = simulate(bound, seed)
    verdicts = {
        situation.name: evaluate_events(trace, model, situation)
        for situation in model.situations
    }

    out = Path(out_dir)
    verdict_doc = {
        "assignment": assignment,
        "seed": seed,
        "metrics": trace.metrics.as_dict(),
        "situations": {
            name: {
                "label": verdict.label,
                "events": {
                    ev: {"triggered": outcome.triggered,
                         "robustness": outcome.robustness}
                    for ev, outcome in verdict.per_event.items()
                },
            }
            for name, verdict in verdicts.items()
        },
    }
    _write(out / "trace.csv", trace_to_csv(trace))
    _write(out / "verdict.json", stable_json(verdict_doc))

    for name, verdict in verdicts.items():
        click.echo(f"{name}: {verdict.label}")
    click.echo(f"trace -> {out / 'trace.csv'}")


if __name__ == "__main__":
    main()
