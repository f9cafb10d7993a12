"""Walk the whole workbench loop once on the shipped pick-cell model.

Identify: load the risk model, validate it, and derive the assurance case
skeleton. Evaluate: run a guided falsification campaign against the
insufficient_distance event. Reduce: fit a decision tree to the archive,
extract high-likelihood rules, sample counterexamples inside the worst
rule, and write the measured likelihood back into the model text.

Run from the repository root:

    python3 demos/full_loop.py
"""

from riskbench.datafiles import data_text
from riskbench.explain import (constraint_text, dataset_from_rows,
                               estimate_event_likelihood, extract_rules,
                               generate_counterexamples, induce_tree)
from riskbench.riskml import (annotate_likelihoods, derive_assurance_cases,
                              load_model, serialize_model, validate)
from riskbench.search import (SearchConfig, make_feature_space, run_campaign)
from riskbench.sim import load_scenario

SITUATION = "close_collaboration"
EVENT = "insufficient_distance"


def main():
    model = load_model(data_text("default.riskml"))
    scenario = load_scenario(data_text("default_cell.scenario"))

    print("== identify ==")
    diagnostics = validate(model)
    print(f"model valid, {len(diagnostics)} diagnostics")
    for case in derive_assurance_cases(model):
        print(f"case: {case.top_claim}")
        for slot in case.evidence:
            print(f"  evidence slot for {slot.event}: {slot.status}")

    print()
    print("== evaluate ==")
    config = SearchConfig(algorithm="hill_climb", budget=300, seed=7)
    archive = run_campaign(model, scenario, SITUATION, EVENT, config)
    n_violations = len(archive.violations)
    print(f"{len(archive.points)} evaluations, {n_violations} violations")
    best = archive.points[archive.best]
    print(f"worst margin {best.robustness:.4f} at evaluation {archive.best}")

    print()
    print("== reduce ==")
    space = make_feature_space(model, SITUATION)
    dataset = dataset_from_rows(space, archive.points)
    tree = induce_tree(dataset)
    rules = extract_rules(tree, threshold=0.5)
    if not rules:
        print("no rules met the threshold")
        return
    for rule in rules:
        parts = ", ".join(constraint_text(c) for c in rule.constraints)
        print(f"rule #{rule.id}: {parts}")
        print(f"  likelihood {rule.likelihood:.3f}, support {rule.support}")

    # Fresh test inputs inside the most dangerous region.
    probes = generate_counterexamples(rules[0], space, n=3, seed=1)
    print("counterexamples inside rule #1:")
    for assignment in probes:
        print(f"  {assignment}")

    annotated = annotate_likelihoods(
        model, {EVENT: estimate_event_likelihood(dataset)})
    text = serialize_model(annotated)
    line = next(l for l in text.splitlines() if EVENT in l and "likelihood" in l)
    print("annotated event line:")
    print(f"  {line.strip()}")


if __name__ == "__main__":
    main()
