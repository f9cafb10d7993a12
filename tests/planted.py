"""Planted hazards: score the search-and-explain loop against a known truth.

Each hazard is a set in the unit cube [0, 1]^4, and its evaluator judges
an assignment by the signed distance to that set (negative inside). The
loop searches that evaluator, induces a tree over the archive, and reads
rules off it as `riskbench explain` does. `score` then compares the union
of the rules with the set over a fixed uniform sample: recall is the share
of the set that the rules cover, precision the share of the rules' region
that lies in the set.

    PYTHONPATH=src python3 tests/planted.py

prints recall and precision per hazard and search algorithm, as medians
over seeds 0-9 with the range across seeds.
"""

from __future__ import annotations

import functools
import math
import random
import statistics
import sys
import time

from riskbench.explain import dataset_from_rows, extract_rules, induce_tree
from riskbench.riskml import DomainFeature
from riskbench.search import SearchConfig, run_search
from riskbench.sim import LABEL_COMPLIANCE, LABEL_NON_COMPLIANCE

# A feature space is a tuple of features.
SPACE = tuple(DomainFeature(name=f"x{i}", kind="continuous", lo=0.0, hi=1.0)
              for i in range(4))

BUDGET = 400
SEEDS = range(10)
THRESHOLD = 0.5
ALGORITHMS = ("random", "hill_climb", "genetic")
# The event that a hazard's evaluator reports when it is inside the set.
EVENT = "planted"


def _box_distance(point, box) -> float:
    """Signed Euclidean distance from `point` to an axis-aligned box given
    as {feature name: (lo, hi)}, negative inside."""
    gaps = [max(lo - point[name], point[name] - hi)
            for name, (lo, hi) in box.items()]
    outside = math.sqrt(sum(g * g for g in gaps if g > 0.0))
    return outside if outside > 0.0 else max(gaps)


def _boxes(*boxes):
    """A union of boxes: its signed distance is the least of theirs
    (exact outside every box, and inside the disjoint boxes used here)."""
    return lambda point: min(_box_distance(point, box) for box in boxes)


def _slab(point) -> float:
    """x0 + x1 > 1.5: the signed distance to the plane x0 + x1 = 1.5."""
    return (1.5 - point["x0"] - point["x1"]) / math.sqrt(2.0)


# name -> signed distance; the true rate is each set's volume.
HAZARDS = {
    "box": _boxes({"x0": (0.55, 0.95), "x1": (0.55, 0.75)}),
    "slab": _slab,
    "two_boxes": _boxes({"x0": (0.1, 0.3), "x1": (0.1, 0.3)},
                        {"x0": (0.65, 0.85), "x1": (0.65, 0.85)}),
    "rare_box": _boxes({"x0": (0.8, 0.9), "x1": (0.1, 0.2),
                        "x2": (0.3, 0.43)}),
}
TRUE_RATES = {"box": 0.08, "slab": 0.125, "two_boxes": 0.08,
              "rare_box": 0.0013}

# The fixed sample that recall and precision are measured on.
_SAMPLE_RNG = random.Random(20000)
SAMPLE = tuple({dim.name: _SAMPLE_RNG.random() for dim in SPACE}
               for _ in range(20000))


def row_cells(hazard: str, assignment) -> tuple:
    """The stub evaluator: the archive-row cells (robustness, label,
    triggered) of `assignment` against `hazard`."""
    robustness = HAZARDS[hazard](assignment)
    if robustness < 0.0:
        return robustness, LABEL_NON_COMPLIANCE, (EVENT,)
    return robustness, LABEL_COMPLIANCE, ()


def explain_loop(hazard: str, algorithm: str, seed: int) -> list:
    """The rules that the loop reads off one campaign on `hazard`."""
    config = SearchConfig(algorithm=algorithm, budget=BUDGET, seed=seed)
    archive = run_search(SPACE, functools.partial(row_cells, hazard), config)
    tree = induce_tree(dataset_from_rows(SPACE, archive.points))
    return extract_rules(tree, THRESHOLD)


@functools.cache
def _inside(hazard: str) -> tuple:
    """Per SAMPLE point, whether it lies in `hazard`."""
    return tuple(HAZARDS[hazard](point) < 0.0 for point in SAMPLE)


def score(hazard: str, rules) -> tuple:
    """(recall, precision) of the union of `rules` against `hazard` over
    SAMPLE; precision is None when the rules cover no sample point."""
    inside = _inside(hazard)
    covered = [any(rule.satisfied_by(point) for rule in rules)
               for point in SAMPLE]
    both = sum(hit and flagged for hit, flagged in zip(inside, covered))
    return (both / sum(inside),
            both / sum(covered) if any(covered) else None)


def scores(hazard: str, algorithm: str) -> list:
    """(recall, precision) per seed of SEEDS."""
    return [score(hazard, explain_loop(hazard, algorithm, seed))
            for seed in SEEDS]


def _summary(values) -> str:
    values = [v for v in values if v is not None]
    if not values:
        return "-"
    return (f"{statistics.median(values):.2f} "
            f"[{min(values):.2f}-{max(values):.2f}]")


def main() -> int:
    start = time.perf_counter()
    print(f"planted hazards in [0, 1]^4: budget {BUDGET}, seeds "
          f"{SEEDS.start}-{SEEDS.stop - 1}, rules at likelihood >= "
          f"{THRESHOLD}; recall / precision, median [min-max] over seeds")
    print()
    print("| hazard (true rate) | " + " | ".join(ALGORITHMS) + " |")
    print("|---" * (len(ALGORITHMS) + 1) + "|")
    for hazard in HAZARDS:
        cells = []
        for algorithm in ALGORITHMS:
            found = scores(hazard, algorithm)
            cells.append(_summary([r for r, _ in found]) + " / "
                         + _summary([p for _, p in found]))
        print(f"| {hazard} ({TRUE_RATES[hazard]}) | " + " | ".join(cells)
              + " |")
    print()
    print(f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
