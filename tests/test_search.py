"""Search algorithms, unit-cube decoding, archives, and campaigns."""

import functools
import hashlib
import math
import multiprocessing
import os
import pickle
import sys
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from riskbench import evaluation
from riskbench.datafiles import data_text
from riskbench.errors import (ConfigError, DomainError, RiskbenchError,
                              UnknownNameError)
from riskbench.riskml import DomainFeature, load_model
from riskbench.search import (ALGORITHMS, ARCHIVE_FORMAT, SEARCH_FIELDS,
                              Archive, EvaluatedPoint, SearchConfig,
                              archive_header, archive_to_csv,
                              campaign_evaluator, decode, make_feature_space,
                              parse_archive_csv, run_campaign, run_search,
                              validate_search_config)
from riskbench.search import algorithms
from riskbench.sim import (LABEL_COMPLIANCE, LABEL_NON_COMPLIANCE,
                           bind_assignment, evaluate_events, load_scenario,
                           simulate)

from conftest import just_outside, no_longer_than
from sequential_local_search import run_sequential

SPACE = (
    DomainFeature(name="x", kind="continuous", lo=0.0, hi=10.0),
    DomainFeature(name="n", kind="integer", lo=1, hi=7),
    DomainFeature(name="c", kind="categorical", values=("a", "b", "c")),
)

UNIT = (
    DomainFeature(name="u", kind="continuous", lo=0.0, hi=1.0),
    DomainFeature(name="v", kind="continuous", lo=0.0, hi=1.0),
)


def row_cells(robustness):
    """An evaluator's result: the robustness of one event "e", and the
    label and triggered events the verdict rule gives it."""
    if robustness < 0.0:
        return robustness, LABEL_NON_COMPLIANCE, ("e",)
    return robustness, LABEL_COMPLIANCE, ()


def sphere(assignment):
    # Smooth basin with its floor below zero near (0.3, 0.7).
    r = (assignment["u"] - 0.3) ** 2 + (assignment["v"] - 0.7) ** 2
    return row_cells(r - 0.01)


def fragile_sphere(assignment):
    # The sphere, but failing on the right edge with the failing value in
    # the message, so an error report shows which proposal it came from.
    if assignment["u"] > 0.9:
        raise DomainError(f"u too large: {assignment['u']!r}")
    return sphere(assignment)


# -- decoding --------------------------------------------------------------


# SPACE, an integer feature as wide as the floats hold exactly, and a
# feature of one point.
DECODE_SPACE = (
    *SPACE,
    DomainFeature(name="w", kind="integer", lo=-2 ** 53, hi=2 ** 53),
    DomainFeature(name="p", kind="continuous", lo=2.5, hi=2.5),
)
_KIND_TYPES = {"continuous": float, "integer": int, "categorical": str}


@given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                min_size=len(DECODE_SPACE), max_size=len(DECODE_SPACE)))
def test_every_unit_vector_decodes_into_the_domain(vector):
    assignment = decode(DECODE_SPACE, vector)
    assert tuple(assignment) == tuple(dim.name for dim in DECODE_SPACE)
    for dim in DECODE_SPACE:
        value = assignment[dim.name]
        assert type(value) is _KIND_TYPES[dim.kind]
        assert dim.contains(value)


def test_decode_types():
    out = decode(SPACE, [0.5, 0.5, 0.99])
    assert isinstance(out["x"], float)
    assert isinstance(out["n"], int)
    assert out["c"] == "c"


def test_decode_rejects_bad_vectors():
    with pytest.raises(DomainError):
        decode(SPACE, [0.5, 0.5])
    with pytest.raises(DomainError):
        decode(SPACE, [0.5, 0.5, 1.5])


def test_make_feature_space_follows_declaration_order(default_model):
    space = make_feature_space(default_model, "close_collaboration")
    assert tuple(dim.name for dim in space) == (
        "illuminance", "belt_speed", "hand_intrusion", "operator_speed",
        "contrast", "camera_yaw")


# -- config ----------------------------------------------------------------


_BAD_CONFIG_VALUES = [
    ("algorithm", "gradient", "unknown algorithm"),
    ("budget", 0, "budget"),
    ("seed", -1, "seed"),
    ("sigma", 0.0, "sigma"),
    ("t0", -1.0, "t0"),
    ("alpha", 1.0, "alpha"),
    ("population", 1, "population"),
    ("crossover", 1.5, "crossover"),
    ("tournament", 0, "tournament"),
]
# Every numeric field, non-finite and just outside its domain; a case
# listed above keeps its place and its name.
_BAD_CONFIG_VALUES += [
    (f.path, value, f.path) for f in SEARCH_FIELDS.values()
    if f.type in (int, float)
    for value in [math.nan, math.inf, -math.inf, *just_outside(f)]
    if (f.path, repr(value)) not in {(k, repr(v))
                                     for k, v, _ in _BAD_CONFIG_VALUES}]


def test_the_search_field_table_is_complete():
    # A misspelt domain key would leave its field merely finite.
    assert set(algorithms._DOMAINS) <= set(SEARCH_FIELDS)
    assert all(just_outside(f) for f in SEARCH_FIELDS.values()
               if f.type is not bool)


@pytest.mark.parametrize("field,value,fragment", _BAD_CONFIG_VALUES)
def test_config_validation(field, value, fragment):
    config = SearchConfig(**{field: value})
    with pytest.raises(ConfigError, match=fragment):
        validate_search_config(config)


# -- the four algorithms -----------------------------------------------------


@pytest.mark.parametrize("algorithm", ["random", "hill_climb",
                                       "simulated_annealing", "genetic"])
def test_budget_and_determinism(algorithm):
    config = SearchConfig(algorithm=algorithm, budget=40, seed=3)
    a = run_search(UNIT, sphere, config)
    b = run_search(UNIT, sphere, config)
    assert len(a.points) == 40
    assert [p.index for p in a.points] == list(range(40))
    assert [p.assignment for p in a.points] == [p.assignment for p in b.points]
    assert [p.robustness for p in a.points] == [p.robustness for p in b.points]


def test_random_covers_the_space():
    config = SearchConfig(algorithm="random", budget=300, seed=1)
    archive = run_search(UNIT, sphere, config)
    for name in ("u", "v"):
        values = [p.assignment[name] for p in archive.points]
        assert 0.4 < sum(values) / len(values) < 0.6
        assert min(values) < 0.1 and max(values) > 0.9


def test_best_is_earliest_minimum():
    constant = lambda assignment: row_cells(1.0)
    archive = run_search(UNIT, constant,
                         SearchConfig(algorithm="random", budget=10, seed=0))
    assert archive.best == 0
    assert archive.violations == []


def test_violations_are_negative_indices():
    config = SearchConfig(algorithm="random", budget=60, seed=5)
    archive = run_search(UNIT, sphere, config)
    expect = [p.index for p in archive.points if p.robustness < 0.0]
    assert archive.violations == expect
    best = min(archive.points, key=lambda p: p.robustness)
    assert archive.points[archive.best].robustness == best.robustness


def test_stop_on_violation():
    always_bad = lambda assignment: row_cells(-1.0)
    config = SearchConfig(algorithm="random", budget=50, seed=0,
                          stop_on_violation=True)
    archive = run_search(UNIT, always_bad, config)
    assert len(archive.points) == 1
    assert archive.violations == [0]


@pytest.mark.parametrize("seed", range(5))
def test_hill_climb_at_least_matches_random(seed):
    budget = 80
    hc = run_search(UNIT, sphere, SearchConfig(
        algorithm="hill_climb", budget=budget, seed=seed))
    rnd = run_search(UNIT, sphere, SearchConfig(
        algorithm="random", budget=budget, seed=seed))
    assert hc.points[hc.best].robustness <= rnd.points[rnd.best].robustness


@pytest.mark.parametrize("seed", range(5))
def test_annealing_freezes_into_hill_climbing(seed):
    # With a vanishing start temperature every uphill proposal is rejected,
    # and the shared kernel burns one acceptance draw either way, so the
    # two searches must visit identical points.
    budget = 60
    hc = run_search(UNIT, sphere, SearchConfig(
        algorithm="hill_climb", budget=budget, seed=seed))
    sa = run_search(UNIT, sphere, SearchConfig(
        algorithm="simulated_annealing", budget=budget, seed=seed,
        t0=1e-12, alpha=0.5))
    assert [p.assignment for p in hc.points] == \
        [p.assignment for p in sa.points]


def test_genetic_improves_over_its_first_generation():
    config = SearchConfig(algorithm="genetic", budget=120, seed=2,
                          population=10)
    archive = run_search(UNIT, sphere, config)
    first_gen = min(p.robustness for p in archive.points[:10])
    assert archive.points[archive.best].robustness <= first_gen


MIXED = (*UNIT, *SPACE[1:])


def mixed_bumps(assignment):
    # Ripples over the unit square, offset by the integer and the
    # category, so that every algorithm restarts, accepts worsening moves
    # and meets violations.
    offset = 0.004 * assignment["n"] + {"a": 0.0, "b": 0.01, "c": 0.02}[
        assignment["c"]]
    return row_cells(bumpy_sphere(assignment)[0] + offset - 0.02)


# Frozen from a seeded sweep: every algorithm, six seeds, a small, a
# middling and an oversized mutation scale (sigma 2.0 clips most genes),
# with and without stop_on_violation. No perfbench digest covers genetic
# search or annealing, so a change in any draw, its order or the clipping
# shows here.
_ARCHIVE_SWEEP_SHA256 = \
    "7b6f696f238a440847d365d498e15b34ac95c9f4a9f9f8dcedcf021b9d338c0d"


def test_an_archive_sweep_reproduces_its_digest():
    digest = hashlib.sha256()
    for algorithm in ALGORITHMS:
        for seed in range(6):
            for sigma in (0.05, 0.3, 2.0):
                for stop in (False, True):
                    config = SearchConfig(
                        algorithm=algorithm, budget=150, seed=seed,
                        sigma=sigma, stop_on_violation=stop, population=9)
                    archive = run_search(MIXED, mixed_bumps, config)
                    digest.update(repr(_fingerprint(archive)).encode())
    assert digest.hexdigest() == _ARCHIVE_SWEEP_SHA256


# -- archives over a real campaign -------------------------------------------


@pytest.fixture(scope="module")
def small_campaign(corner_model, corner_scenario):
    config = SearchConfig(algorithm="random", budget=12, seed=4)
    archive = run_campaign(corner_model, corner_scenario, "low_light_rush",
                           "insufficient_distance", config)
    space = make_feature_space(corner_model, "low_light_rush")
    return archive, space, config


# Cells at the edges of what the CSV must carry exactly: any finite
# float, both zeros among them, integers around +-2^53, and a category.
EDGE_SPACE = (
    DomainFeature(name="x", kind="continuous", lo=-sys.float_info.max,
                  hi=sys.float_info.max),
    DomainFeature(name="n", kind="integer", lo=-2 ** 53 - 3, hi=2 ** 53 + 3),
    DomainFeature(name="c", kind="categorical", values=("a", "b", "c")),
)
_EDGE_ROWS = st.lists(st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-2 ** 53 - 3, max_value=2 ** 53 + 3),
    st.sampled_from(["a", "b", "c"]),
    st.floats(allow_nan=False),          # the target event's robustness
    st.booleans()),                      # whether object_drop triggered
    min_size=1, max_size=8)
# Per column, a cell that no row may hold; None puts in a wrong index.
_BAD_CELLS = [("index", None), ("x", "nan"), ("x", "1e999"),
              ("n", str(2 ** 53 + 4)), ("n", "1.5"), ("c", "d"),
              ("robustness", "nan")]


@given(rows=_EDGE_ROWS, bad=st.sampled_from(_BAD_CELLS),
       pick=st.integers(0, 7))
@example(rows=[(-0.0, -2 ** 53 - 3, "a", math.inf, False),
               (0.0, 2 ** 53 + 3, "c", -0.0, True)],
         bad=("robustness", "nan"), pick=1)
def test_the_archive_csv_reads_back_point_for_point(default_model, rows,
                                                    bad, pick):
    situation = default_model.situation("close_collaboration")
    archive = Archive()
    for index, (x, n, c, robustness, dropped) in enumerate(rows):
        # Judged as the verdict rule judges the two negative events.
        triggered = (("insufficient_distance",) * (robustness < 0.0)
                     + ("object_drop",) * dropped)
        archive.record(EvaluatedPoint(
            index, {"x": x, "n": n, "c": c}, robustness,
            LABEL_NON_COMPLIANCE if triggered else LABEL_COMPLIANCE,
            triggered))
    text = archive_to_csv(archive, EDGE_SPACE)
    back = parse_archive_csv(text, EDGE_SPACE, default_model, situation,
                             "insufficient_distance")
    assert back.points == archive.points
    assert (back.best, back.violations) == (archive.best, archive.violations)
    assert archive_to_csv(back, EDGE_SPACE) == text

    # One cell of one row spoiled: the parser names the row's line.
    row = pick % len(rows)
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    column, cell = bad
    position = lines[0].split(",").index(column)
    cells[position] = str(row + 1) if cell is None else cell
    lines[row + 1] = ",".join(cells)
    with pytest.raises(ConfigError, match=f"at line {row + 2}:"):
        parse_archive_csv("\n".join(lines), EDGE_SPACE, default_model,
                          situation, "insufficient_distance")


def test_archive_header_records_the_recipe(small_campaign):
    archive, space, config = small_campaign
    header = archive_header(space, config, (11,), "low_light_rush",
                            "insufficient_distance", "sha-m", "sha-s",
                            len(archive.points), 0.5)
    assert header["format"] == ARCHIVE_FORMAT
    assert header["config"]["algorithm"] == "random"
    assert header["config"]["seed"] == 4
    assert header["sim_seeds"] == [11]
    assert [d["name"] for d in header["space"]] == [d.name for d in space]
    assert header["evaluations"] == 12
    assert header["threshold"] == 0.5


def test_the_header_holds_the_search_config_field_for_field(small_campaign):
    archive, space, config = small_campaign
    header = archive_header(space, config, (11,), "low_light_rush",
                            "insufficient_distance", "sha-m", "sha-s",
                            len(archive.points), 0.5)
    assert list(header["config"]) == list(SEARCH_FIELDS)
    assert SearchConfig(**{key: f.coerce(header["config"][key])
                           for key, f in SEARCH_FIELDS.items()}) == config


def test_parse_archive_rejects_foreign_columns(small_campaign,
                                               corner_model):
    archive, space, _ = small_campaign
    text = archive_to_csv(archive, space)
    other = (
        DomainFeature(name="different", kind="continuous", lo=0.0, hi=1.0),)
    with pytest.raises(Exception):
        parse_archive_csv(text, other, corner_model,
                          corner_model.situation("low_light_rush"),
                          "insufficient_distance")


# -- batches and worker processes ---------------------------------------------


def _fingerprint(archive):
    return [(p.index, p.assignment, p.robustness) for p in archive.points], \
        archive.best, archive.violations


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("budget", [1, 33, 70])
def test_worker_counts_give_the_same_archive(algorithm, budget):
    config = SearchConfig(algorithm=algorithm, budget=budget, seed=2)
    one, two, three = (run_search(UNIT, sphere, config, workers=workers)
                       for workers in (1, 2, 3))
    assert len(one.points) == budget
    assert _fingerprint(one) == _fingerprint(two) == _fingerprint(three)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("algorithm", ["random", "genetic"])
def test_batches_stop_at_the_first_violation(algorithm):
    config = SearchConfig(algorithm=algorithm, budget=500, seed=5,
                          stop_on_violation=True)
    one = run_search(UNIT, sphere, config, workers=1)
    two = run_search(UNIT, sphere, config, workers=2)
    assert one.violations == [len(one.points) - 1]
    assert _fingerprint(one) == _fingerprint(two)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_first_failing_proposal_raises(workers):
    config = SearchConfig(algorithm="random", budget=200, seed=0)
    first = next(p.assignment["u"] for p in
                 run_search(UNIT, sphere, config).points
                 if p.assignment["u"] > 0.9)
    with pytest.raises(DomainError) as caught:
        run_search(UNIT, fragile_sphere, config, workers=workers)
    assert str(caught.value) == f"u too large: {first!r}"


def test_an_error_past_the_first_violation_is_never_seen():
    # Seed 83 first violates at proposal 14; proposal 30 of the same batch
    # fails.
    config = SearchConfig(algorithm="random", budget=200, seed=83,
                          stop_on_violation=True)
    expected = _fingerprint(run_search(UNIT, sphere, config))
    assert len(expected[0]) == 14
    with pytest.raises(DomainError):
        run_search(UNIT, fragile_sphere,
                   replace(config, stop_on_violation=False))
    for workers in (1, 2):
        archive = run_search(UNIT, fragile_sphere, config, workers=workers)
        assert _fingerprint(archive) == expected


@pytest.fixture()
def requested_pools(monkeypatch):
    """The evaluator counts run_search asks evaluation_map for. A stand-in
    for the map records each and evaluates in-process, so no worker is
    started whatever count is requested."""
    requested = []

    @contextmanager
    def recording_map(evaluator, workers):
        requested.append(workers)
        yield functools.partial(map, evaluator)
    monkeypatch.setattr(evaluation, "evaluation_map", recording_map)
    return requested


@pytest.mark.parametrize("algorithm,workers,budget,pool_size", [
    ("random", 1, 30, 1),
    ("genetic", 1, 30, 1),
    ("hill_climb", 1, 30, 1),
    ("simulated_annealing", 1, 30, 1),
    ("hill_climb", 2, 30, 2),
    ("simulated_annealing", 3, 30, 3),
    ("hill_climb", 3, 2, 2),
], ids=["random-1", "genetic-1", "hill_climb-1", "simulated_annealing-1",
        "hill_climb-2", "simulated_annealing-3", "hill_climb-3-budget-2"])
def test_the_pool_size_asked_for(requested_pools, algorithm, workers, budget,
                                 pool_size):
    # Every algorithm asks for the evaluators it was given (one of them
    # starts no process); hill climbing and annealing draft one proposal
    # per evaluator, up to the budget.
    config = SearchConfig(algorithm=algorithm, budget=budget, seed=1)
    archive = run_search(UNIT, sphere, config, workers=workers)
    assert len(archive.points) == budget
    assert requested_pools == [pool_size]


@pytest.mark.parametrize("config,pool_size", [
    (SearchConfig(algorithm="random", budget=100), algorithms.BATCH_SIZE),
    (SearchConfig(algorithm="random", budget=5), 5),
    (SearchConfig(algorithm="genetic", budget=100, population=6), 6),
    (SearchConfig(algorithm="random", budget=1), 1),
    (SearchConfig(algorithm="hill_climb", budget=100), 100),
    (SearchConfig(algorithm="simulated_annealing", budget=5), 5),
], ids=["random-batch", "random-budget", "genetic-population", "one-eval",
        "hill-climb-budget", "annealing-budget"])
def test_the_pool_is_no_larger_than_a_batch(requested_pools, config,
                                            pool_size):
    archive = run_search(UNIT, sphere, config, workers=1000)
    assert len(archive.points) == config.budget
    assert requested_pools == [pool_size]


# -- speculative drafts ---------------------------------------------------------


def bumpy_sphere(assignment):
    # The sphere with ripples, so that hill climbing stalls and restarts
    # and annealing accepts worsening moves.
    u, v = assignment["u"], assignment["v"]
    return row_cells(sphere(assignment)[0]
                     + 0.02 * math.sin(23 * u) * math.cos(17 * v))


def _outcome(run):
    try:
        return _fingerprint(run())
    except Exception as exc:
        return type(exc), str(exc)


@given(algorithm=st.sampled_from(["hill_climb", "simulated_annealing"]),
       sigma=st.floats(1e-3, 1.0), t0=st.floats(1e-4, 1.0),
       alpha=st.floats(0.01, 0.999), stop_on_violation=st.booleans(),
       budget=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1),
       workers=st.sampled_from([1, 2, 3]))
@example(algorithm="simulated_annealing", sigma=1.0, t0=0.05, alpha=0.01,
         stop_on_violation=False, budget=200, seed=7, workers=2)
def test_drafts_give_the_sequential_archive(algorithm, sigma, t0, alpha,
                                            stop_on_violation, budget, seed,
                                            workers):
    # At a small alpha the temperature reaches zero within the budget
    # (alpha 0.01 underflows it after about 160 evaluations), and both
    # take the zero-temperature limit of the acceptance rule from there.
    config = SearchConfig(algorithm=algorithm, sigma=sigma, t0=t0,
                          alpha=alpha, stop_on_violation=stop_on_violation,
                          budget=budget, seed=seed)
    expected = _outcome(lambda: run_sequential(UNIT, bumpy_sphere, config))
    assert _outcome(lambda: run_search(UNIT, bumpy_sphere, config,
                                       workers=workers)) == expected


class StrictEvaluator:
    """The sphere, failing on any assignment outside an allowed set."""

    def __init__(self, allowed):
        self.allowed = allowed

    def __call__(self, assignment):
        if tuple(assignment.values()) not in self.allowed:
            raise DomainError(f"not in the sequential run: {assignment}")
        return sphere(assignment)


@pytest.mark.parametrize("algorithm", ["hill_climb", "simulated_annealing"])
def test_an_error_on_a_dropped_proposal_is_never_seen(monkeypatch,
                                                      algorithm):
    config = SearchConfig(algorithm=algorithm, budget=80, seed=4)
    expected = run_sequential(UNIT, sphere, config)
    recorded = {tuple(p.assignment.values()) for p in expected.points}
    # In-process, with a draft of two: some proposals are drafted past an
    # accepted move and dropped, so the pool evaluates them too.
    handed = []

    @contextmanager
    def in_process_map(evaluator, workers):
        def evaluate_many(assignments):
            handed.extend(tuple(a.values()) for a in assignments)
            return map(evaluator, assignments)
        yield evaluate_many
    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "evaluation_map", in_process_map)
        drafted = run_search(UNIT, sphere, config, workers=2)
    assert _fingerprint(drafted) == _fingerprint(expected)
    assert set(handed) - recorded
    strict = StrictEvaluator(recorded)
    for workers in (2, 3):
        archive = run_search(UNIT, strict, config, workers=workers)
        assert _fingerprint(archive) == _fingerprint(expected)


class PidError(DomainError):
    """An error that remembers the process that raised it."""

    def __init__(self, message, pid=None):
        super().__init__(message)
        self.pid = os.getpid() if pid is None else pid

    def __reduce__(self):
        return type(self), (str(self), self.pid)


def fragile_in_place(assignment):
    # fragile_sphere, raising an error that says where it was raised.
    if assignment["u"] > 0.9:
        raise PidError(f"u too large: {assignment['u']!r}")
    return sphere(assignment)


@pytest.mark.parametrize("algorithm,seed,workers", [
    ("hill_climb", 11, 2), ("hill_climb", 0, 3),
    ("simulated_annealing", 5, 2), ("simulated_annealing", 1, 3)])
def test_a_worker_error_matches_the_in_process_error(algorithm, seed,
                                                     workers):
    # At these seeds the first recorded proposal that fails lands on a
    # worker process.
    config = SearchConfig(algorithm=algorithm, budget=200, seed=seed)
    errors = []
    for count in (1, workers):
        with pytest.raises(PidError) as caught:
            run_search(UNIT, fragile_in_place, config, workers=count)
        errors.append(caught.value)
    in_process, pooled = errors
    assert in_process.pid == os.getpid() != pooled.pid
    assert str(pooled) == str(in_process)
    assert multiprocessing.active_children() == []


class ExitInWorker:
    """The sphere in the parent process; a worker process exits at once."""

    def __init__(self):
        self.parent = os.getpid()

    def __call__(self, assignment):
        if os.getpid() != self.parent:
            os._exit(3)
        return sphere(assignment)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_worker_that_dies_raises_instead_of_hanging(algorithm):
    config = SearchConfig(algorithm=algorithm, budget=60, seed=1)
    with no_longer_than(60), pytest.raises(RiskbenchError,
                                           match="exit code 3"):
        run_search(UNIT, ExitInWorker(), config, workers=2)
    assert multiprocessing.active_children() == []


# -- campaign plumbing --------------------------------------------------------


def test_campaign_evaluator_rejects_unexposed_event(default_model,
                                                    default_scenario):
    with pytest.raises(UnknownNameError):
        campaign_evaluator(default_model, default_scenario,
                           "close_collaboration", "ghost")


def test_multi_seed_robustness_is_the_mean(corner_model, corner_scenario):
    assignment = {"illuminance": 400.0, "belt_speed": 0.3,
                  "operator_speed": 0.9}
    singles = []
    for seed in (3, 9):
        one = campaign_evaluator(corner_model, corner_scenario,
                                 "low_light_rush", "insufficient_distance",
                                 sim_seeds=(seed,))
        singles.append(one(assignment)[0])
    both = campaign_evaluator(corner_model, corner_scenario,
                              "low_light_rush", "insufficient_distance",
                              sim_seeds=(3, 9))
    rob, label, triggered = both(assignment)
    assert rob == pytest.approx(sum(singles) / 2)
    # The row is judged from the means.
    assert triggered == (("insufficient_distance",) if rob < 0.0 else ())
    assert (label == "non_compliance") == (rob < 0.0)


def test_campaign_evaluator_needs_a_seed(corner_model, corner_scenario):
    with pytest.raises(DomainError):
        campaign_evaluator(corner_model, corner_scenario, "low_light_rush",
                           "insufficient_distance", sim_seeds=())


def test_campaign_evaluator_refuses_a_negative_seed(corner_model,
                                                    corner_scenario):
    # random.Random(-11) seeds exactly as random.Random(11) does.
    with pytest.raises(DomainError, match=r"sim_seed outside \[0, inf\)"):
        campaign_evaluator(corner_model, corner_scenario, "low_light_rush",
                           "insufficient_distance", sim_seeds=(3, -11))


_CELLS = {"default": ("default.riskml", "default_cell.scenario",
                      "close_collaboration", "insufficient_distance"),
          "corner": ("corner.riskml", "corner_cell.scenario",
                     "low_light_rush", "insufficient_distance")}


@pytest.mark.parametrize("cell", sorted(_CELLS))
@given(data=st.data())
def test_a_one_seed_evaluator_judges_the_replicate_itself(cell, data):
    model_file, scenario_file, situation_name, event = _CELLS[cell]
    model = load_model(data_text(model_file))
    scenario = load_scenario(data_text(scenario_file))
    space = make_feature_space(model, situation_name)
    assignment = decode(space, data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=len(space), max_size=len(space))))
    seed = data.draw(st.integers(0, 2 ** 32))
    robustness, label, triggered = campaign_evaluator(
        model, scenario, situation_name, event, sim_seeds=(seed,))(assignment)
    verdict = evaluate_events(
        simulate(bind_assignment(scenario, model, assignment), seed), model,
        model.situation(situation_name))
    # The same float, bit for bit: the sign of a zero included.
    assert robustness.hex() == verdict.per_event[event].robustness.hex()
    assert label == verdict.label
    assert triggered == tuple(name for name, outcome
                              in verdict.per_event.items()
                              if outcome.triggered)


def _corner_campaign_csv(model, scenario, config, workers):
    archive = run_campaign(model, scenario, "low_light_rush",
                           "insufficient_distance", config, workers=workers)
    space = make_feature_space(model, "low_light_rush")
    return archive_to_csv(archive, space)


@pytest.mark.parametrize("config,rows", [
    (SearchConfig(algorithm="random", budget=45, seed=4), 45),
    (SearchConfig(algorithm="genetic", budget=40, seed=4), 40),
    (SearchConfig(algorithm="random", budget=120, seed=9,
                  stop_on_violation=True), 67),
    (SearchConfig(algorithm="hill_climb", budget=60, seed=7), 60),
    (SearchConfig(algorithm="simulated_annealing", budget=60, seed=8,
                  t0=0.5), 60),
], ids=["random", "genetic", "random-stop-on-violation", "hill-climb",
        "annealing"])
def test_campaign_archive_is_identical_across_worker_counts(
        corner_model, corner_scenario, config, rows):
    # 45 and 40 are no multiple of the random batch or the generation, and
    # seed 9 first violates at evaluation 67, inside the third batch.
    texts = [_corner_campaign_csv(corner_model, corner_scenario, config,
                                  workers) for workers in (1, 2, 3)]
    assert texts[0] == texts[1] == texts[2]
    assert len(texts[0].strip().split("\n")) == rows + 1


def test_campaign_worker_error_matches_the_in_process_error(
        corner_model, corner_scenario):
    # Contrast above 1 is outside the scenario's domain, so proposals 7, 9
    # and 12 of the first batch fail inside the evaluator. The error names
    # the value, so it shows which failing proposal was reported.
    model = load_model(data_text("corner.riskml").replace(
        "binds operator.hand_speed\n",
        "binds operator.hand_speed\n"
        "feature contrast continuous [0.3, 1.2] ratio "
        "binds environment.contrast\n",
    ).replace("features illuminance, belt_speed, operator_speed",
              "features illuminance, belt_speed, operator_speed, contrast"))
    config = SearchConfig(algorithm="random", budget=40, seed=4)
    errors = []
    for workers in (1, 2):
        with pytest.raises(DomainError) as caught:
            _corner_campaign_csv(model, corner_scenario, config, workers)
        errors.append((type(caught.value), str(caught.value)))
    assert "contrast outside [0, 1]" in errors[0][1]
    assert errors[1] == errors[0]


def test_campaign_evaluator_survives_a_pickle_round_trip(corner_model,
                                                        corner_scenario):
    for seeds in ((11,), (3, 9)):
        evaluator = campaign_evaluator(corner_model, corner_scenario,
                                       "low_light_rush",
                                       "insufficient_distance",
                                       sim_seeds=seeds)
        copy = pickle.loads(pickle.dumps(evaluator))
        for illuminance in (60.0, 400.0, 950.0):
            assignment = {"illuminance": illuminance, "belt_speed": 0.45,
                          "operator_speed": 1.4}
            assert copy(assignment) == evaluator(assignment)
