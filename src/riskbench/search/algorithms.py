"""Metaheuristic search loop over the unit hypercube.

All algorithms minimize a scalar robustness through one shared driver so
that archives, budgets, and reproducibility behave identically. Hill
climbing and simulated annealing share one proposal kernel; annealing with
a vanishing start temperature makes exactly the same acceptance decisions
as hill climbing on the same seed.

Proposals are evaluated in ordered batches on the evaluators of
`riskbench.evaluation.evaluation_map`. Random search and each genetic
generation draw a batch before any of it is evaluated. Hill climbing and
annealing draw speculative drafts: one proposal per evaluator, each
drawn as if every earlier one in the draft were rejected (Witte,
Chamberlain and Franklin, "Parallel Simulated Annealing Using
Speculative Computation", IEEE TPDS 1991). Results are recorded in
proposal order, and a draft only up to its first accepted move, which
keeps the archive identical for every worker count.
"""

from __future__ import annotations

import math

from ..errors import ConfigError, DomainError
from ..kvdoc import field_table
from ..record import Record
from ..rng import Generator
from .space import FeatureSpace, decode

ALGORITHMS = ("random", "hill_climb", "simulated_annealing", "genetic")

# Hill-climb restarts: abandon the incumbent after this many consecutive
# rejected proposals and re-seed from a fresh uniform point.
STALL_LIMIT = 20

# Random-search proposals drawn and handed to the evaluator at once. A
# larger batch waits less on its slowest evaluation; a smaller one wastes
# less work past the first violation under stop_on_violation.
BATCH_SIZE = 32


class SearchConfig(Record):
    algorithm: str = "random"
    budget: int = 200
    seed: int = 0
    sigma: float = 0.1        # Gaussian mutation scale in unit space
    t0: float = 0.05          # annealing start temperature
    alpha: float = 0.95       # annealing cooling factor per evaluation
    population: int = 12      # genetic population size
    crossover: float = 0.9    # genetic crossover rate
    tournament: int = 3       # genetic tournament size
    stop_on_violation: bool = False


# Every number must be finite; these are the further bounds.
_DOMAINS = {
    "algorithm": {"choices": ALGORITHMS},
    "budget": {"lo": 1},
    "seed": {"lo": 0},
    **dict.fromkeys(("sigma", "t0"), {"lo": 0.0, "lo_open": True}),
    "alpha": {"lo": 0.0, "hi": 1.0, "lo_open": True, "hi_open": True},
    "population": {"lo": 2},
    "crossover": {"lo": 0.0, "hi": 1.0},
    "tournament": {"lo": 1},
}

SEARCH_FIELDS = field_table(SearchConfig(), _DOMAINS)


def validate_search_config(config: SearchConfig) -> None:
    """Raise ConfigError on the first field outside its domain."""
    try:
        for f in SEARCH_FIELDS.values():
            f.check(f.get(config))
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


class EvaluatedPoint(Record):
    """One evaluation, one archive CSV row (see search/archive_io.py)."""

    index: int
    assignment: dict
    robustness: float
    label: str
    triggered: tuple


class Archive:
    """The evaluated points in proposal order, the index of the least
    robust one (-1 while there is none) and the indices of violations."""

    def __init__(self):
        self.points = []
        self.best = -1
        self.violations = []

    def record(self, point: EvaluatedPoint) -> None:
        self.points.append(point)
        if self.best < 0 or point.robustness < self.points[self.best].robustness:
            self.best = point.index
        if point.robustness < 0.0:
            self.violations.append(point.index)


class _Driver:
    """Feeds proposals to the evaluators and stops exactly at the budget.

    `evaluate_many` maps the evaluator over a list of assignments and
    yields the results in order, as the map of `evaluation_map` does.
    `width` is the number of evaluators behind it.
    """

    def __init__(self, space: FeatureSpace, config: SearchConfig,
                 evaluate_many, width: int = 1):
        self.space = space
        self.config = config
        self.evaluate_many = evaluate_many
        self.width = width
        self.archive = Archive()
        self.spent = 0

    def exhausted(self) -> bool:
        if self.spent >= self.config.budget:
            return True
        if self.config.stop_on_violation and self.archive.violations:
            return True
        return False

    def room(self, wanted: int) -> int:
        """How many of `wanted` proposals still fit in the budget."""
        return min(wanted, self.config.budget - self.spent)

    def evaluate_batch(self, vectors):
        """Evaluate proposals as one ordered batch; yield the robustness of
        each as it is recorded.

        Recording stops where the one-at-a-time loop would stop: at the
        budget, or after the first violation under stop_on_violation. The
        caller may also stop taking results. A proposal past either point
        is never recorded, and an error it raised is never seen.
        """
        assignments = [decode(self.space, v) for v in vectors]
        for assignment, (robustness, label, triggered) in zip(
                assignments, self.evaluate_many(assignments)):
            point = EvaluatedPoint(self.spent, assignment, float(robustness),
                                   label, triggered)
            self.archive.record(point)
            self.spent += 1
            yield point.robustness
            if self.exhausted():
                return


def run_search(space: FeatureSpace, evaluator, config: SearchConfig,
               workers: int = 1) -> Archive:
    """Minimize robustness over the space within config.budget evaluations.

    The evaluator maps an assignment to the judged cells of its archive
    row: (robustness, label, triggered events). Returns the archive of
    every evaluation in order. `workers` counts the evaluators,
    this process among them; with more than one, the others are worker
    processes. Random and genetic search use no more of them than the
    largest batch or the budget, and hill climbing and annealing draft as
    many proposals at a time, up to the budget. The archive is the same
    for every worker count.
    """
    # Imported here: explaining an archive reads SearchConfig, not the pool.
    from ..evaluation import evaluation_map
    validate_search_config(config)
    # A hill-climbing or annealing draft holds one proposal per evaluator.
    largest_batch = {"random": BATCH_SIZE,
                     "genetic": config.population}.get(config.algorithm,
                                                       config.budget)
    workers = max(1, min(workers, largest_batch, config.budget))
    rng = Generator(config.seed)
    with evaluation_map(evaluator, workers) as evaluate_many:
        driver = _Driver(space, config, evaluate_many, workers)
        if config.algorithm == "random":
            _random_walk(driver, rng)
        elif config.algorithm in ("hill_climb", "simulated_annealing"):
            _local_search(driver, rng,
                          annealing=config.algorithm == "simulated_annealing")
        else:
            _genetic(driver, rng)
    return driver.archive


def _uniform_point(rng: Generator, d: int) -> list:
    return [rng.random() for _ in range(d)]


def _random_walk(driver: _Driver, rng: Generator) -> None:
    d = len(driver.space)
    while not driver.exhausted():
        list(driver.evaluate_batch([_uniform_point(rng, d) for _ in
                                    range(driver.room(BATCH_SIZE))]))


def _local_search(driver: _Driver, rng: Generator, annealing: bool) -> None:
    """(1+1) kernel shared by hill_climb and simulated_annealing.

    A uniform acceptance draw is consumed on every worsening proposal in
    both modes, so the two algorithms see identical random streams and
    annealing degenerates to hill climbing as t0 -> 0.

    Each round drafts one proposal per evaluator as if every worsening
    proposal before it were rejected: a proposal draws normal(d) and then
    its acceptance draw, and after STALL_LIMIT rejections a restart draws
    random(d). A restart (the first point is one) does not end a draft,
    because the next proposal does not depend on its result. The draft
    is walked in order, up to and including its first accepted move;
    the rest is dropped unrecorded, and the generator is set to its state
    after the last recorded proposal's draws. So every draft width makes
    the decisions of a draft of one, the one-at-a-time kernel.
    """
    cfg = driver.config
    d = len(driver.space)
    temperature = cfg.t0
    x = fx = None
    rejections = STALL_LIMIT

    while not driver.exhausted():
        # Per proposal: its vector, the generator state after its move
        # (None for a restart), its acceptance draw, and the state after
        # all its draws.
        draft = []
        base, stalled = x, rejections
        for _ in range(driver.room(driver.width)):
            if stalled >= STALL_LIMIT:
                base, stalled = _uniform_point(rng, d), 0
                draft.append((base, None, None, rng.state))
            else:
                y = [min(max(b + rng.normal(0.0, cfg.sigma), 0.0), 1.0)
                     for b in base]
                moved = rng.state
                draw = rng.random()
                draft.append((y, moved, draw, rng.state))
                stalled += 1

        results = driver.evaluate_batch([proposal[0] for proposal in draft])
        for fy, (y, moved, draw, state) in zip(results, draft):
            restart = moved is None
            accepted = not restart and fy < fx
            if accepted:
                # An improvement does not consume its acceptance draw.
                state = moved
            elif not restart:
                delta = fy - fx
                if temperature > 0.0:
                    arg = -delta / temperature
                    accept_p = math.exp(arg) if (annealing and arg > -700.0) else 0.0
                else:
                    # The temperature underflowed to 0.0: the T -> 0+ limit of
                    # exp(-delta / T) accepts an equal robustness only.
                    accept_p = 1.0 if delta == 0.0 else 0.0
                accepted = annealing and draw < accept_p
            if restart or accepted:
                x, fx, rejections = y, fy, 0
            else:
                rejections += 1
            if annealing:
                temperature *= cfg.alpha
            if accepted:
                break
        rng.state = state


def _genetic(driver: _Driver, rng: Generator) -> None:
    """Generational GA: tournament parents, uniform crossover, per-gene
    Gaussian mutation at rate 1/d, elitism of one.

    A child draws its whole crossover mask and all its mutation flags,
    and a normal for every gene only when some gene mutates.
    """
    cfg = driver.config
    d = len(driver.space)
    pop_size = cfg.population
    mutation_rate = 1.0 / d

    xs = [_uniform_point(rng, d) for _ in range(driver.room(pop_size))]
    population = list(zip(driver.evaluate_batch(xs), xs))

    while not driver.exhausted():
        population.sort(key=lambda pair: pair[0])
        children = []
        for _ in range(driver.room(pop_size - 1)):
            mother = _tournament(population, cfg.tournament, rng)
            father = _tournament(population, cfg.tournament, rng)
            if rng.random() < cfg.crossover:
                mask = [rng.random() < 0.5 for _ in range(d)]
                child = [m if pick else f
                         for pick, m, f in zip(mask, mother, father)]
            else:
                child = list(mother)
            mutate = [rng.random() < mutation_rate for _ in range(d)]
            if any(mutate):
                # Every gene draws its normal; one not flagged adds a zero.
                child = [c + flag * rng.normal(0.0, cfg.sigma)
                         for c, flag in zip(child, mutate)]
            children.append([min(max(c, 0.0), 1.0) for c in child])
        population = [population[0],
                      *zip(driver.evaluate_batch(children), children)]


def _tournament(population, size, rng: Generator):
    picks = [rng.integers(0, len(population)) for _ in range(size)]
    best = min(picks, key=lambda i: population[i][0])
    return population[best][1]
