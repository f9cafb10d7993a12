"""Metaheuristic search loop over the unit hypercube.

All algorithms minimize a scalar robustness through one shared driver so
that archives, budgets, and reproducibility behave identically. Hill
climbing and simulated annealing share one proposal kernel; annealing with
a vanishing start temperature makes exactly the same acceptance decisions
as hill climbing on the same seed.

Random search and each genetic generation draw their proposals before any
of them is evaluated, so the driver can evaluate such a batch on a
process pool. Results are recorded in proposal order, which keeps the
archive identical for every worker count.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import ConfigError, DomainError
from ..kvdoc import field_table
from .space import FeatureSpace, decode

ALGORITHMS = ("random", "hill_climb", "simulated_annealing", "genetic")

# Hill-climb restarts: abandon the incumbent after this many consecutive
# rejected proposals and re-seed from a fresh uniform point.
STALL_LIMIT = 20

# Random-search proposals drawn and handed to the evaluator at once. A
# larger batch waits less on its slowest evaluation; a smaller one wastes
# less work past the first violation under stop_on_violation.
BATCH_SIZE = 32

# Only these algorithms draw proposals independently of earlier results.
_BATCHED = ("random", "genetic")


@dataclass(frozen=True)
class SearchConfig:
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


@dataclass(frozen=True)
class EvaluatedPoint:
    assignment: dict
    robustness: float
    verdict: object
    index: int


@dataclass
class Archive:
    points: list = field(default_factory=list)
    best: int = -1
    violations: list = field(default_factory=list)

    def record(self, point: EvaluatedPoint) -> None:
        self.points.append(point)
        if self.best < 0 or point.robustness < self.points[self.best].robustness:
            self.best = point.index
        if point.robustness < 0.0:
            self.violations.append(point.index)


class _Driver:
    """Feeds proposals to the evaluator and stops exactly at the budget.

    `evaluate_many` maps the evaluator over a list of assignments and
    yields the results in order: the builtin `map` in-process, or an
    ordered process-pool map.
    """

    def __init__(self, space: FeatureSpace, config: SearchConfig,
                 evaluate_many):
        self.space = space
        self.config = config
        self.evaluate_many = evaluate_many
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

    def evaluate(self, unit_vector) -> float:
        return self.evaluate_batch([unit_vector])[0]

    def evaluate_batch(self, vectors) -> list:
        """Evaluate independent proposals and record them in proposal order.

        Recording stops where the one-at-a-time loop would stop: at the
        budget, or after the first violation under stop_on_violation. A
        proposal past that point is never recorded, and an error it raised
        is never seen. Returns the robustness of each recorded proposal.
        """
        assignments = [decode(self.space, v) for v in vectors]
        recorded = []
        for assignment, (robustness, verdict) in zip(
                assignments, self.evaluate_many(assignments)):
            point = EvaluatedPoint(assignment=assignment,
                                   robustness=float(robustness),
                                   verdict=verdict, index=self.spent)
            self.archive.record(point)
            self.spent += 1
            recorded.append(point.robustness)
            if self.exhausted():
                break
        return recorded


def run_search(space: FeatureSpace, evaluator, config: SearchConfig,
               workers: int = 1) -> Archive:
    """Minimize robustness over the space within config.budget evaluations.

    The evaluator maps an assignment to (robustness, verdict). Returns the
    archive of every evaluation in order. With workers > 1, random and
    genetic search evaluate their batches on up to that many processes,
    never more than the largest batch or the budget; the archive is the
    same for every worker count.
    """
    validate_search_config(config)
    if config.algorithm in _BATCHED:
        largest_batch = (BATCH_SIZE if config.algorithm == "random"
                         else config.population)
        workers = min(workers, largest_batch, config.budget)
        if workers > 1:
            with _pool_map(evaluator, workers) as evaluate_many:
                return _search(space, config, evaluate_many)
    return _search(space, config, functools.partial(map, evaluator))


def _search(space: FeatureSpace, config: SearchConfig,
            evaluate_many) -> Archive:
    # numpy is imported where random numbers are drawn, so that commands
    # which never search do not pay for it at start-up.
    import numpy as np
    rng = np.random.default_rng(config.seed)
    driver = _Driver(space, config, evaluate_many)
    if config.algorithm == "random":
        _random_walk(driver, rng)
    elif config.algorithm in ("hill_climb", "simulated_annealing"):
        _local_search(driver, rng,
                      annealing=config.algorithm == "simulated_annealing")
    else:
        _genetic(driver, rng)
    return driver.archive


@contextmanager
def _pool_map(evaluator, workers: int):
    """Ordered process-pool map over assignments, one evaluator per worker.

    The evaluator reaches each worker once, through the pool initializer;
    only assignments and results cross the process boundary afterwards.
    An error raised in a worker is re-raised here, with its type and
    message, when its proposal's turn comes.
    """
    # Imported here so that start-up does not pay for it.
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers,
                               initializer=_install_evaluator,
                               initargs=(evaluator,))
    try:
        yield functools.partial(pool.map, _evaluate_installed)
    finally:
        pool.shutdown(cancel_futures=True)


# Set once in each pool worker, by the pool's initializer.
_installed_evaluator = None


def _install_evaluator(evaluator) -> None:
    global _installed_evaluator
    _installed_evaluator = evaluator


def _evaluate_installed(assignment):
    return _installed_evaluator(assignment)


def _random_walk(driver: _Driver, rng) -> None:
    d = len(driver.space)
    while not driver.exhausted():
        driver.evaluate_batch([rng.random(d)
                               for _ in range(driver.room(BATCH_SIZE))])


def _local_search(driver: _Driver, rng, annealing: bool) -> None:
    """(1+1) kernel shared by hill_climb and simulated_annealing.

    A uniform acceptance draw is consumed on every worsening proposal in
    both modes, so the two algorithms see identical random streams and
    annealing degenerates to hill climbing as t0 -> 0.
    """
    import numpy as np
    cfg = driver.config
    d = len(driver.space)
    temperature = cfg.t0

    x = rng.random(d)
    fx = driver.evaluate(x)
    if annealing:
        temperature *= cfg.alpha
    rejections = 0

    while not driver.exhausted():
        if rejections >= STALL_LIMIT:
            x = rng.random(d)
            fx = driver.evaluate(x)
            rejections = 0
        else:
            y = np.clip(x + rng.normal(0.0, cfg.sigma, d), 0.0, 1.0)
            fy = driver.evaluate(y)
            if fy < fx:
                x, fx = y, fy
                rejections = 0
            else:
                draw = rng.random()
                delta = fy - fx
                arg = -delta / temperature
                accept_p = math.exp(arg) if (annealing and arg > -700.0) else 0.0
                if annealing and draw < accept_p:
                    x, fx = y, fy
                    rejections = 0
                else:
                    rejections += 1
        if annealing:
            temperature *= cfg.alpha


def _genetic(driver: _Driver, rng) -> None:
    """Generational GA: tournament parents, uniform crossover, per-gene
    Gaussian mutation at rate 1/d, elitism of one."""
    import numpy as np
    cfg = driver.config
    d = len(driver.space)
    pop_size = cfg.population
    mutation_rate = 1.0 / d

    xs = [rng.random(d) for _ in range(driver.room(pop_size))]
    population = list(zip(driver.evaluate_batch(xs), xs))

    while not driver.exhausted():
        population.sort(key=lambda pair: pair[0])
        children = []
        for _ in range(driver.room(pop_size - 1)):
            mother = _tournament(population, cfg.tournament, rng)
            father = _tournament(population, cfg.tournament, rng)
            if rng.random() < cfg.crossover:
                mask = rng.random(d) < 0.5
                child = np.where(mask, mother, father)
            else:
                child = mother.copy()
            mutate = rng.random(d) < mutation_rate
            if mutate.any():
                child = child + mutate * rng.normal(0.0, cfg.sigma, d)
            children.append(np.clip(child, 0.0, 1.0))
        population = [population[0],
                      *zip(driver.evaluate_batch(children), children)]


def _tournament(population, size, rng):
    picks = rng.integers(0, len(population), size)
    best = min(picks, key=lambda i: population[i][0])
    return population[best][1]
