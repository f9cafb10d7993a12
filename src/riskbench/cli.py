"""Command-line workbench wiring the assurance stages into file workflows.

Subcommands: validate, cases, run, explain, replay. Campaign configs use
the same key-value format as scenario files; input paths inside a config
resolve relative to the config file, output paths relative to the working
directory. Every artifact write is atomic and every JSON output has stable
key order, so identical inputs give byte-identical outputs.

Each command first imports what it runs (`_load`), and the first command
in a process then calls `gc.freeze()`. That moves every object alive at
that point, the imported modules above all, out of the collector's
reach: they live as long as the process, so no later collection, the one
at exit included, traverses them again, and the evaluator that `run`
forks afterwards does not copy their pages by collecting them. A later
command in the same process, as in a test session or an in-process
benchmark, does not freeze again, so its own garbage stays collectable.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

from .errors import (ConfigError, DomainError, RiskbenchError,
                     RiskmlSyntaxError, UnknownNameError)
from .fileio import atomic_write_text, read_text, sha256_text, stable_json
from .kvdoc import Field, read_kv
from .lazy import lazy_exports
from .riskml.model import annotate_likelihoods, validate
from .riskml.parser import parse_risk_model
from .sim.scenario import DEFAULT_SIM_SEED, check_bindings, load_scenario

# What only some commands use. A command binds the names it calls here
# (`_load`) before it runs, so `validate` never loads the simulator or the
# search. Patches on this module, by tests or a tracer, replace what the
# commands call.
__getattr__, __dir__, _ = lazy_exports(globals(), {
    ".explain": ("dataset_from_rows", "estimate_event_likelihood",
                 "extract_rules", "generate_counterexamples", "induce_tree",
                 "rules_report", "rules_to_json", "tree_to_json"),
    ".riskml": ("cases_to_json", "derive_assurance_cases",
                "serialize_model"),
    ".search": ("DEFAULT_THRESHOLD", "SEARCH_FIELDS", "SearchConfig",
                "THRESHOLD_FIELD", "archive_header", "archive_to_csv",
                "make_feature_space", "parse_archive_csv",
                "read_archive_header", "run_campaign"),
    ".sim": ("LABEL_NON_COMPLIANCE", "bind_assignment", "evaluate_events",
             "simulate", "trace_to_csv"),
})


def _load(*names) -> None:
    """Bind each lazy name in this module's namespace; one already bound,
    by an earlier command or a patch, stays as it is. Every command calls
    this first, and the first call in a process then freezes the heap."""
    module = sys.modules[__name__]
    for name in names:
        getattr(module, name)
    if not gc.get_freeze_count():
        gc.freeze()


EXIT_INVALID = 1
EXIT_CONFIG = 2
EXIT_EMPTY = 3

AUGMENTATION_PER_RULE = 20


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
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
            print(f"{path}: {problem}", file=sys.stderr)
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


# Each subcommand, in the order `--help` lists them: its function and its
# arguments, each a flag or positional name, help and `add_argument` keywords.
_COMMANDS = {}
_HELP = ("--help", "Show this message and exit.", {"action": "help"})
_MODEL = ("--model", "Risk model file (.riskml).",
          {"dest": "model_path", "required": True})


def _command(name, *arguments):
    def register(run):
        _COMMANDS[name] = run, arguments
        return run
    return register


@_command("validate", _MODEL)
def cmd_validate(model_path):
    """Parse MODEL and check every model invariant."""
    _load()
    _load_model_file(model_path)
    print(f"{model_path}: ok")


@_command("cases", _MODEL,
          ("--out", "Output JSON file.  [default: %(default)s]",
           {"dest": "out_path", "default": "cases.json"}))
def cmd_cases(model_path, out_path):
    """Derive assurance-case skeletons from MODEL."""
    _load("derive_assurance_cases", "cases_to_json")
    model, _ = _load_model_file(model_path)
    cases = derive_assurance_cases(model)
    if not cases:
        print("warning: no situation exposes a negative event; "
              "case list is empty", file=sys.stderr)
    _write(Path(out_path), stable_json(cases_to_json(cases)))
    print(f"{len(cases)} assurance case(s) -> {out_path}")


# The keys of a campaign config besides its typed ones.
_CONFIG_NAMES = {"model", "scenario", "situation", "event", "out"}


def _usable_cpus() -> int:
    """CPUs this process may run on: the campaign's evaluators, this
    process among them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@_command("run", ("--config", "Campaign config file.",
                  {"dest": "config_path", "required": True}),
          ("--out", "Output directory (overrides config).",
           {"dest": "out_dir"}),
          ("--seed", "Search seed (overrides config).", {"type": int}),
          ("--budget", "Evaluation budget (overrides config).", {"type": int}))
def cmd_run(config_path, out_dir, seed, budget):
    """Run a falsification campaign and persist its archive."""
    _load("SEARCH_FIELDS", "SearchConfig", "THRESHOLD_FIELD",
          "DEFAULT_THRESHOLD", "run_campaign", "make_feature_space",
          "archive_header", "archive_to_csv")
    # The config's typed keys. The search config's own keys are checked
    # when the search starts, after `run` has turned a budget below 1 into
    # exit 3.
    config_fields = {**SEARCH_FIELDS, "threshold": THRESHOLD_FIELD,
                     "sim_seed": Field("sim_seed", int)}
    raw = read_kv(read_text(config_path), source=config_path)
    config_dir = Path(config_path).resolve().parent
    unknown = set(raw) - set(config_fields) - _CONFIG_NAMES
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
                  for key, f in config_fields.items() if key in raw}
        threshold = values.pop("threshold", DEFAULT_THRESHOLD)
        sim_seed = values.pop("sim_seed", DEFAULT_SIM_SEED)
        THRESHOLD_FIELD.check(threshold)
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
        len(archive.points), threshold)

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
        print(line)
    print(f"archive -> {out / 'archive.csv'}")


@_command("explain", ("archive_path", None, {"metavar": "ARCHIVE_PATH"}),
          ("--model", "Risk model the archive came from.",
           {"dest": "model_path", "required": True}),
          ("--threshold", "Rule likelihood threshold (overrides campaign "
           "config).", {"type": float}),
          ("--out", "Output directory (default: the archive's directory).",
           {"dest": "out_dir"}))
def cmd_explain(archive_path, model_path, threshold, out_dir):
    """Explain ARCHIVE_PATH: tree, rules, counterexamples, likelihoods."""
    _load("THRESHOLD_FIELD", "read_archive_header", "make_feature_space",
          "parse_archive_csv", "dataset_from_rows",
          "induce_tree", "extract_rules", "generate_counterexamples",
          "estimate_event_likelihood", "LABEL_NON_COMPLIANCE",
          "tree_to_json", "rules_report", "rules_to_json", "serialize_model")
    if threshold is not None:
        try:
            THRESHOLD_FIELD.check(threshold)
        except DomainError as exc:
            _fail(EXIT_CONFIG, f"--{exc}")
    archive_file = Path(archive_path)
    header_file = archive_file.parent / "campaign.json"
    archive_text = read_text(str(archive_file))
    header = read_archive_header(_read_json(header_file), header_file)
    config = header["config"]
    situation_name, event_name = header["situation"], header["event"]

    model, model_text = _load_model_file(model_path)
    if sha256_text(model_text) != header["model_digest"]:
        _fail(EXIT_INVALID,
              "model digest mismatch: the archive was produced from a "
              "different model than " + str(model_path))

    if threshold is None:
        threshold = header["threshold"]

    situation = model.situation(situation_name)
    if event_name not in situation.exposes:
        raise UnknownNameError(f"event {event_name!r} is not exposed by "
                               f"situation {situation_name!r}")
    space = make_feature_space(model, situation_name)
    archive = parse_archive_csv(archive_text, space, model, situation,
                                event_name)
    points = archive.points
    if len(points) != header["evaluations"]:
        _fail(EXIT_CONFIG, f"{header_file}: records {header['evaluations']} "
                           f"evaluations, the archive holds {len(points)}")
    dataset = dataset_from_rows(space, points)
    tree = induce_tree(dataset)
    rules = extract_rules(tree, threshold)
    augmentation = [
        generate_counterexamples(rule, space, AUGMENTATION_PER_RULE,
                                 seed=config.seed)
        for rule in rules
    ]

    fraction, samples = estimate_event_likelihood(dataset)
    annotated = annotate_likelihoods(model, {event_name: (fraction, samples)})

    trigger_counts = {name: sum(name in p.triggered for p in points)
                      for name in situation.exposes}

    out = Path(out_dir) if out_dir else archive_file.parent
    best = points[archive.best].robustness
    report = {
        "archive": archive_file.name,
        "archive_digest": sha256_text(archive_text),
        "model_digest": header["model_digest"],
        "scenario_digest": header["scenario_digest"],
        "situation": situation_name,
        "event": event_name,
        "algorithm": config.algorithm,
        "threshold": threshold,
        "evaluations": len(points),
        "violations": sum(p.label == LABEL_NON_COMPLIANCE for p in points),
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

    print(f"{len(rules)} rule(s) at threshold {threshold}; "
          f"event {event_name} likelihood {fraction:.3f} "
          f"({samples} samples)")
    print(f"report -> {out / 'report.json'}")


@_command("replay", ("assignment_path", None, {"metavar": "ASSIGNMENT_PATH"}),
          _MODEL, ("--scenario", "Scenario file to bind against.",
                   {"dest": "scenario_path", "required": True}),
          ("--seed", "Simulator seed.  [default: %(default)s]",
           {"type": int, "default": DEFAULT_SIM_SEED}),
          ("--out", "Output directory.", {"dest": "out_dir", "default": "."}))
def cmd_replay(assignment_path, model_path, scenario_path, seed, out_dir):
    """Simulate one feature assignment (JSON object) and judge it."""
    _load("bind_assignment", "simulate", "evaluate_events", "trace_to_csv")
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
        print(f"{name}: {verdict.label}")
    print(f"trace -> {out / 'trace.csv'}")


def main(argv=None, prog_name=None, standalone_mode=True):
    """Run the command that `argv` (by default the process's arguments)
    names. A usage error or an escaping ConfigError exits 2, any other
    RiskbenchError 1; a command exits itself where the code depends on
    context (an empty campaign's 3) or the message gets a prefix."""
    # `standalone_mode` changes nothing: perfbench/run.py passes it, as
    # click's `main` took it, until ROADMAP prerequisite P.
    def parser(make, *arguments, **keywords):
        made = make(add_help=False, allow_abbrev=False, **keywords)
        for flag, text, options in (_HELP, *arguments):
            made.add_argument(flag, help=text, **options)
        return made

    top = parser(argparse.ArgumentParser, prog=prog_name, description=(
        "Risk-driven assurance workbench for a collaborative robot cell."))
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    for name, (run, arguments) in _COMMANDS.items():
        parser(commands.add_parser, *arguments, name=name, help=run.__doc__,
               description=run.__doc__).set_defaults(run=run)
    args = vars(top.parse_args(argv))
    try:
        args.pop("run")(**args)
    except RiskbenchError as exc:
        _fail(EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_INVALID,
              str(exc))


if __name__ == "__main__":
    main()
