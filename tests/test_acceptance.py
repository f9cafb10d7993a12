"""End-to-end guarantees of the shipped workbench.

One test per guarantee, so `pytest -v` prints one pass/fail line for each:
the two calibrated hazard reproductions, guided search effectiveness, the
exact-optimality of the tree inducer, controller soundness under perfect
perception, the protective-distance arithmetic, run/replay determinism,
format round-trips, and the assurance-case counting law.
"""

import json
import statistics

import numpy as np
import pytest

from riskbench.datafiles import data_path, data_text
from riskbench.explain import (LabeledDataset, best_split, dataset_from_rows,
                               extract_rules, induce_tree)
from riskbench.riskml import (DomainFeature, derive_assurance_cases,
                              load_model, parse_risk_model, serialize_model)
from riskbench.search import (SearchConfig, archive_to_csv,
                              make_feature_space, parse_archive_csv,
                              run_campaign)
from riskbench.sim import (LABEL_COMPLIANCE, LABEL_NON_COMPLIANCE,
                           bind_assignment, evaluate_events,
                           protective_distance, scenario_with, simulate)

# The workbench-wide default simulator seed (the CLI uses the same one).
SIM_SEED = 11

C, NC = LABEL_COMPLIANCE, LABEL_NON_COMPLIANCE


# 1. In the shipped cell at nominal light with a deep reach, a slow belt
#    is compliant and a fast belt both breaches the separation margin and
#    loses product: the governor that protects the operator can no longer
#    keep up with the line.
def test_01_belt_speed_endpoints(default_model, default_scenario):
    situation = default_model.situation("close_collaboration")

    def judge(belt_speed):
        bound = bind_assignment(default_scenario, default_model,
                                {"belt_speed": belt_speed,
                                 "hand_intrusion": 0.4})
        trace = simulate(bound, SIM_SEED)
        return evaluate_events(trace, default_model, situation), trace

    assert default_scenario.environment.illuminance == 5000.0
    verdict, _ = judge(0.1)
    assert verdict.label == C

    verdict, trace = judge(0.5)
    assert verdict.label == NC
    assert verdict.outcome("insufficient_distance").triggered
    assert trace.metrics.objects_fallen >= 1


# 2. Random campaigns rediscover the lighting floor: explaining each
#    400-evaluation archive yields a confident rule whose illuminance
#    upper bound sits near the detection floor, in at least 9 of 10 seeds.
def test_02_low_light_rule_recovery(default_model, default_scenario):
    space = make_feature_space(default_model, "close_collaboration")
    hits = 0
    for seed in range(10):
        config = SearchConfig(algorithm="random", budget=400, seed=seed)
        archive = run_campaign(default_model, default_scenario,
                               "close_collaboration", "insufficient_distance",
                               config, sim_seeds=(SIM_SEED,))
        tree = induce_tree(dataset_from_rows(space, archive.points))
        for rule in extract_rules(tree, 0.5):
            bound = rule.constraint_for("illuminance")
            if bound is not None and 90.0 <= bound.hi <= 200.0 \
                    and rule.likelihood >= 0.8:
                hits += 1
                break
    assert hits >= 9, f"only {hits}/10 campaigns recovered the rule"


# 3. On a task whose only violation region is the joint low-light/fast-belt
#    corner, both guided searches find a violation within 200 evaluations
#    in at least 18 of 20 seeds, never slower than random in the median.
def test_03_guided_search_beats_random(corner_model, corner_scenario):
    budget = 200

    def first_violation(algorithm, seed):
        config = SearchConfig(algorithm=algorithm, budget=budget, seed=seed,
                              stop_on_violation=True)
        archive = run_campaign(corner_model, corner_scenario,
                               "low_light_rush", "insufficient_distance",
                               config, sim_seeds=(SIM_SEED,))
        if archive.violations:
            return archive.violations[0] + 1
        return budget + 1

    firsts = {algorithm: [first_violation(algorithm, seed)
                          for seed in range(20)]
              for algorithm in ("random", "hill_climb",
                                "simulated_annealing")}
    random_median = statistics.median(firsts["random"])
    for algorithm in ("hill_climb", "simulated_annealing"):
        found = sum(1 for f in firsts[algorithm] if f <= budget)
        assert found >= 18, f"{algorithm} found violations in {found}/20 seeds"
        med = statistics.median(firsts[algorithm])
        assert med <= random_median, \
            f"{algorithm} median {med} > random {random_median}"


# 4. The root split of the induced tree equals an independent exhaustive
#    enumeration of every (feature, candidate) Gini gain on 100 random
#    mixed-kind datasets.
def test_04_tree_root_is_exhaustively_optimal():
    rng = np.random.default_rng(12345)
    categories = ("a", "b", "c")

    def gini(n_c, n_nc):
        total = n_c + n_nc
        if total == 0:
            return 0.0
        return 1.0 - (n_c / total) * (n_c / total) \
            - (n_nc / total) * (n_nc / total)

    def exhaustive(rows, columns):
        n = len(rows)
        labels = [label for _, label in rows]
        parent_c = labels.count(C)
        parent_nc = n - parent_c
        if n < 2 or parent_c == 0 or parent_nc == 0:
            return None
        parent = gini(parent_c, parent_nc)
        best = None
        for idx, column in enumerate(columns):
            if column.kind == "categorical":
                candidates = list(column.values)
            else:
                distinct = sorted({values[idx] for values, _ in rows})
                candidates = [(a + b) / 2.0
                              for a, b in zip(distinct, distinct[1:])]
            for candidate in candidates:
                left = [label for values, label in rows
                        if (values[idx] == candidate
                            if column.kind == "categorical"
                            else values[idx] <= candidate)]
                right_n = n - len(left)
                if not left or not right_n:
                    continue
                l_c = left.count(C)
                r_c = parent_c - l_c
                gain = parent \
                    - (len(left) / n) * gini(l_c, len(left) - l_c) \
                    - (right_n / n) * gini(r_c, right_n - r_c)
                if best is None or gain > best[0]:
                    best = (gain, idx, candidate)
        return best

    matches = 0
    for _ in range(100):
        width = int(rng.integers(1, 4))
        n_rows = int(rng.integers(2, 51))
        columns = []
        for j in range(width):
            kind = ("continuous", "integer",
                    "categorical")[int(rng.integers(0, 3))]
            if kind == "categorical":
                columns.append(DomainFeature(name=f"f{j}", kind=kind,
                                             values=categories))
            elif kind == "integer":
                columns.append(DomainFeature(name=f"f{j}", kind=kind,
                                             lo=0, hi=4))
            else:
                columns.append(DomainFeature(name=f"f{j}", kind=kind,
                                             lo=0.0, hi=1.0))
        rows = []
        for _ in range(n_rows):
            values = []
            for column in columns:
                if column.kind == "categorical":
                    values.append(categories[int(rng.integers(0, 3))])
                elif column.kind == "integer":
                    values.append(int(rng.integers(0, 5)))
                else:
                    values.append(round(float(rng.random()), 2))
            rows.append((tuple(values), NC if rng.random() < 0.5 else C))

        dataset = LabeledDataset(columns=tuple(columns), rows=tuple(rows))
        # min_leaf/min_gain relaxed so the interestingness gates cannot
        # mask the choice itself.
        root = induce_tree(dataset, min_leaf=2, min_gain=0.0).root.split
        expect = exhaustive(rows, columns)
        if expect is None:
            matches += root is None
            continue
        gain, idx, candidate = expect
        if root is not None and root.feature_index == idx \
                and root.threshold == candidate \
                and abs(root.gain - gain) <= 1e-12:
            matches += 1
    assert matches == 100, f"root split optimal on {matches}/100 datasets"


# 5. With a perfect sensor (certain detection, saturated light, full
#    contrast, occlusion disabled) the governor never lets the arm inside
#    the protective distance, over 500 random feature assignments.
def test_05_margin_soundness_under_perfect_perception(default_model,
                                                      default_scenario):
    space = make_feature_space(default_model, "close_collaboration")
    perfect = default_scenario
    perfect = scenario_with(perfect, "perception.p_base", 1.0)
    perfect = scenario_with(perfect, "environment.illuminance", 1000.0)
    perfect = scenario_with(perfect, "environment.contrast", 1.0)
    perfect = scenario_with(perfect, "perception.ignore_occlusion", True)

    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(500):
        assignment = {}
        for dim in space:
            assignment[dim.name] = float(rng.uniform(dim.lo, dim.hi))
        bound = bind_assignment(perfect, default_model, assignment)
        # The perception overrides win over the sampled lighting features.
        bound = scenario_with(bound, "environment.illuminance", 1000.0)
        bound = scenario_with(bound, "environment.contrast", 1.0)
        margin = simulate(bound, SIM_SEED).metrics.min_margin
        worst = min(worst, margin)
        assert margin >= 0.0, f"margin {margin} below zero at {assignment}"
    assert worst >= 0.0


# 6. Protective-distance arithmetic: exact standstill value, strict
#    monotonicity in speed, and a hand-checked point.
def test_06_protective_distance_checks():
    assert protective_distance(0.0, 0.1, 1.6, 2.0, 0.1) == 1.6 * 0.1 + 0.1

    grid = [2.0 * i / 99 for i in range(100)]
    values = [protective_distance(v, 0.1, 1.6, 2.0, 0.1) for v in grid]
    assert all(b > a for a, b in zip(values, values[1:]))

    # 1.6*0.1 + 1.0*0.1 + 1.0/(2*2.0) + 0.1 = 0.61 by hand.
    assert abs(protective_distance(1.0, 0.1, 1.6, 2.0, 0.1) - 0.61) <= 1e-12


# 7. The shipped quickstart campaign is bit-reproducible, and replaying
#    any archive row reproduces its verdict exactly.
def test_07_run_and_replay_determinism(tmp_path, corner_model,
                                       corner_scenario):
    from conftest import run_cli

    config = data_path("quickstart.config")
    archives = []
    for name in ("one", "two"):
        result = run_cli("run", "--config", config, "--out", name,
                         cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        archives.append((tmp_path / name / "archive.csv").read_bytes())
    assert archives[0] == archives[1]

    header = json.loads((tmp_path / "one" / "campaign.json").read_text())
    assert header["evaluations"] == 200
    sim_seed = header["sim_seeds"][0]

    space = make_feature_space(corner_model, "low_light_rush")
    situation = corner_model.situation("low_light_rush")
    rows = parse_archive_csv(archives[0].decode(), space, corner_model,
                             situation, "insufficient_distance").points
    assert len(rows) == 200
    for row in rows:
        bound = bind_assignment(corner_scenario, corner_model, row.assignment)
        verdict = evaluate_events(simulate(bound, sim_seed), corner_model,
                                  situation)
        outcome = verdict.outcome("insufficient_distance")
        assert outcome.robustness == row.robustness, \
            f"row {row.index} drifted"
        assert verdict.label == row.label
        assert (("insufficient_distance",) if outcome.triggered
                else ()) == row.triggered

    # The replay command agrees with the archive byte-for-byte on the
    # robustness it reprints.
    lines = archives[0].decode().strip().split("\n")
    columns = lines[0].split(",")
    for row_number in (1, 50, 200):
        cells = dict(zip(columns, lines[row_number].split(",")))
        point = tmp_path / f"row{row_number}.json"
        point.write_text(json.dumps({
            "illuminance": float(cells["illuminance"]),
            "belt_speed": float(cells["belt_speed"]),
            "operator_speed": float(cells["operator_speed"])}))
        result = run_cli("replay", point, "--model",
                         data_path("corner.riskml"), "--scenario",
                         data_path("corner_cell.scenario"), "--seed",
                         sim_seed, "--out", f"re{row_number}", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        verdict_doc = json.loads(
            (tmp_path / f"re{row_number}" / "verdict.json").read_text())
        event = verdict_doc["situations"]["low_light_rush"]["events"][
            "insufficient_distance"]
        assert repr(event["robustness"]) == cells["robustness"]
        assert verdict_doc["situations"]["low_light_rush"]["label"] == \
            cells["label"]


# 8. Risk models survive parse -> serialize -> parse unchanged on a corpus
#    covering the whole grammar, and an archive read back from CSV carries
#    exactly the campaign's row and label counts.
ROUND_TRIP_CORPUS = [
    """
    actor a
    goal g owner a "only goal"
    feature f continuous [0, 1] ratio binds environment.contrast
    event e negative when min_margin < 0 impacts -g
    situation s "plain" scenario "cell.scenario" exposes e features f
    """,
    """
    actor a
    goal g owner a "categorical feature"
    feature surface categorical {matte, gloss} binds environment.contrast
    event e negative when min_margin < 0.05 impacts -g
    situation s "cats" scenario "cell.scenario" exposes e features surface
    """,
    """
    actor a
    goal g owner a "integer feature"
    feature load integer [1, 9] count binds belt.object_count
    event e negative when objects_fallen > 2 impacts -g
    situation s "ints" scenario "cell.scenario" exposes e features load
    """,
    """
    actor a
    actor b
    goal g1 owner a "two goals"
    goal g2 owner b "second"
    feature f continuous [0, 1] ratio binds environment.contrast
    event e negative when collision > 0 impacts -g1, -g2
    situation s "multi impact" scenario "cell.scenario" exposes e features f
    """,
    """
    actor a
    goal g owner a "positive polarity"
    feature f continuous [0, 1] ratio binds environment.contrast
    event fine positive when min_margin > 0.3 impacts +g
    event bad negative when min_margin < 0 impacts -g
    situation s "mixed" scenario "cell.scenario" exposes fine, bad features f
    """,
    """
    actor a
    goal g owner a "prior likelihood"
    feature f continuous [0, 1] ratio binds environment.contrast
    event e negative when min_margin < 0 impacts -g likelihood 0.125 of 64
    situation s "annotated" scenario "cell.scenario" exposes e features f
    """,
    """
    actor a
    goal g owner a "two situations share a feature"
    feature f continuous [0, 1] ratio binds environment.contrast
    feature h continuous [0.05, 0.4] m binds operator.hand_intrusion
    event e negative when min_margin < 0 impacts -g
    situation day "lit" scenario "day.scenario" exposes e features f, h
    situation night "dark" scenario "night.scenario" exposes e features f
    """,
    """
    actor a
    goal g owner a "indicators"
    feature f continuous [0, 1] ratio binds environment.contrast
    event e negative when min_margin < 0 impacts -g
    situation s "watched" scenario "cell.scenario" exposes e features f
        indicators worst:min_margin, lost:objects_fallen, blind:detection_miss_ratio
    """,
    """
    actor operator_on_shift_2
    goal keep_line_up owner operator_on_shift_2 "long names with_underscores"
    feature cycle_time_s continuous [0.5, 12.5] s binds belt.spawn_interval
    event line_down negative when detection_miss_ratio > 0.75 impacts -keep_line_up
    situation crunch "end of quarter" scenario "crunch.scenario"
        exposes line_down features cycle_time_s
    """,
]


def test_08_round_trips(corner_model, corner_scenario):
    corpus = [*ROUND_TRIP_CORPUS, data_text("default.riskml")]
    assert len(corpus) == 10
    for text in corpus:
        model = parse_risk_model(text)
        assert parse_risk_model(serialize_model(model)) == model

    config = SearchConfig(algorithm="random", budget=60, seed=3)
    archive = run_campaign(corner_model, corner_scenario, "low_light_rush",
                           "insufficient_distance", config,
                           sim_seeds=(SIM_SEED,))
    space = make_feature_space(corner_model, "low_light_rush")
    back = parse_archive_csv(archive_to_csv(archive, space), space,
                             corner_model,
                             corner_model.situation("low_light_rush"),
                             "insufficient_distance")
    dataset = dataset_from_rows(space, back.points)
    assert len(dataset) == len(archive.points) == 60
    labeled_bad = sum(1 for _, label in dataset.rows if label == NC)
    assert labeled_bad == len(archive.violations)
    # Reading the archive through CSV or in memory gives the same points.
    assert back.points == archive.points


# 9. One assurance case per (situation, goal) pair connected by at least
#    one adversely-impacting negative event; expectations counted by hand.
CASE_LAW_CORPUS = [
    # One situation, one negative event, one goal: 1 case.
    ("""
    actor a
    goal g owner a "g"
    feature f continuous [0, 1] ratio binds environment.contrast
    event e negative when min_margin < 0 impacts -g
    situation s "x" scenario "c.scenario" exposes e features f
    """, {("s", "g")}),
    # The event harms two goals: 2 cases from one situation.
    ("""
    actor a
    goal g1 owner a "g1"
    goal g2 owner a "g2"
    feature f continuous [0, 1] ratio binds environment.contrast
    event e negative when min_margin < 0 impacts -g1, -g2
    situation s "x" scenario "c.scenario" exposes e features f
    """, {("s", "g1"), ("s", "g2")}),
    # Two situations expose events harming the same goal: 2 cases.
    ("""
    actor a
    goal g owner a "g"
    feature f continuous [0, 1] ratio binds environment.contrast
    event e1 negative when min_margin < 0 impacts -g
    event e2 negative when objects_fallen > 0 impacts -g
    situation s1 "x" scenario "c.scenario" exposes e1 features f
    situation s2 "y" scenario "c.scenario" exposes e2 features f
    """, {("s1", "g"), ("s2", "g")}),
    # Only positive events: nothing to argue.
    ("""
    actor a
    goal g owner a "g"
    feature f continuous [0, 1] ratio binds environment.contrast
    event fine positive when min_margin > 0.2 impacts +g
    situation s "x" scenario "c.scenario" exposes fine features f
    """, set()),
    # Mixed: s1 harms g1 only (its positive event does not count); s2
    # harms both goals: 3 cases.
    ("""
    actor a
    goal g1 owner a "g1"
    goal g2 owner a "g2"
    feature f continuous [0, 1] ratio binds environment.contrast
    event fine positive when min_margin > 0.2 impacts +g2
    event bad1 negative when min_margin < 0 impacts -g1
    event bad2 negative when objects_fallen > 0 impacts -g1, -g2
    situation s1 "x" scenario "c.scenario" exposes fine, bad1 features f
    situation s2 "y" scenario "c.scenario" exposes bad2 features f
    """, {("s1", "g1"), ("s2", "g1"), ("s2", "g2")}),
]


def test_09_assurance_case_count_law():
    for text, expected_pairs in CASE_LAW_CORPUS:
        cases = derive_assurance_cases(load_model(text))
        assert {(case.situation, case.goal) for case in cases} == \
            expected_pairs
        assert len(cases) == len(expected_pairs)
