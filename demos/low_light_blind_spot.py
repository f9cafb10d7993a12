"""Recover the low-light blind spot as a crisp rule from random probing.

Most dropped parts in the pick cell trace back to a fast belt and a deep
hand intrusion: the governed arm loses stern chases while it is being
careful around the operator. But a few hundred random episodes also
contain a quieter failure cluster, and the decision tree isolates it:
below roughly 100 lux the camera resolves nothing at any contrast, the
arm never acquires a target, and parts ride off the end of a moving belt
with no operator anywhere near the cell. This script runs the random
campaign, prints every recovered rule, and highlights the blind-spot one.

Run from the repository root:

    python3 demos/low_light_blind_spot.py
"""

from riskbench.datafiles import data_text
from riskbench.explain import (constraint_text, dataset_from_rows,
                               extract_rules, generate_counterexamples,
                               induce_tree)
from riskbench.riskml import load_model
from riskbench.search import SearchConfig, make_feature_space, run_campaign
from riskbench.sim import load_scenario

SITUATION = "close_collaboration"
EVENT = "object_drop"


def main():
    model = load_model(data_text("default.riskml"))
    scenario = load_scenario(data_text("default_cell.scenario"))

    config = SearchConfig(algorithm="random", budget=400, seed=3)
    archive = run_campaign(model, scenario, SITUATION, EVENT, config)
    print(f"{len(archive.points)} random episodes, "
          f"{len(archive.violations)} dropped at least one part")

    space = make_feature_space(model, SITUATION)
    dataset = dataset_from_rows(space, archive.points)
    tree = induce_tree(dataset)
    rules = extract_rules(tree, threshold=0.5)
    print()
    for rule in rules:
        parts = ", ".join(constraint_text(c) for c in rule.constraints)
        print(f"rule #{rule.id}: {parts}")
        print(f"  likelihood {rule.likelihood:.3f}, support {rule.support}")

    # The interesting cluster is the one with a ceiling on illuminance:
    # failures that need darkness, not a nearby hand.
    dim = [r for r in rules
           if (c := r.constraint_for("illuminance")) and c.hi <= 200.0]
    if not dim:
        print("no blind-spot rule recovered this run")
        return
    ceilings = ", ".join(
        f"#{r.id} below {r.constraint_for('illuminance').hi:.1f} lux"
        for r in dim)
    print()
    print(f"blind-spot rules: {ceilings}")
    print("fresh probes inside the first one, for the regression suite:")
    for assignment in generate_counterexamples(dim[0], space, n=3, seed=9):
        lux = assignment["illuminance"]
        belt = assignment["belt_speed"]
        intrusion = assignment["hand_intrusion"]
        print(f"  illuminance {lux:6.2f} lux, belt {belt:.3f} m/s, "
              f"intrusion {intrusion:.3f} m")


if __name__ == "__main__":
    main()
