"""Metaheuristic search loop over the unit hypercube.

All algorithms minimize a scalar robustness through one shared driver so
that archives, budgets, and reproducibility behave identically. Hill
climbing and simulated annealing share one proposal kernel; annealing with
a vanishing start temperature makes exactly the same acceptance decisions
as hill climbing on the same seed.

Proposals are evaluated in ordered batches, on a small process pool in
which the parent process is one of the evaluators. Random search and
each genetic generation draw a batch before any of it is evaluated.
Hill climbing and annealing draw speculative drafts: one proposal per
evaluator, each drawn as if every earlier one in the draft were rejected
(Witte, Chamberlain and Franklin, "Parallel Simulated Annealing Using
Speculative Computation", IEEE TPDS 1991). Results are recorded in
proposal order, and a draft only up to its first accepted move, which
keeps the archive identical for every worker count.
"""

from __future__ import annotations

import collections
import functools
import math
from contextlib import contextmanager

from ..errors import ConfigError, DomainError, RiskbenchError
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

# Assignments a pool worker holds at most: one to evaluate and one
# queued, so that it need not wait on the parent between the two, while
# neither a large batch nor the results can fill a pipe.
_AHEAD = 2


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
    assignment: dict
    robustness: float
    verdict: object
    index: int


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
    yields the results in order: the builtin `map` in-process, or the
    ordered pool's map. `width` is the number of evaluators behind it.
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
        for assignment, (robustness, verdict) in zip(
                assignments, self.evaluate_many(assignments)):
            point = EvaluatedPoint(assignment=assignment,
                                   robustness=float(robustness),
                                   verdict=verdict, index=self.spent)
            self.archive.record(point)
            self.spent += 1
            yield point.robustness
            if self.exhausted():
                return


def run_search(space: FeatureSpace, evaluator, config: SearchConfig,
               workers: int = 1) -> Archive:
    """Minimize robustness over the space within config.budget evaluations.

    The evaluator maps an assignment to (robustness, verdict). Returns the
    archive of every evaluation in order. `workers` counts the evaluators,
    this process among them; with more than one, the others are worker
    processes. Random and genetic search use no more of them than the
    largest batch or the budget, and hill climbing and annealing draft as
    many proposals at a time, up to the budget. The archive is the same
    for every worker count.
    """
    validate_search_config(config)
    # A hill-climbing or annealing draft holds one proposal per evaluator.
    largest_batch = {"random": BATCH_SIZE,
                     "genetic": config.population}.get(config.algorithm,
                                                       config.budget)
    workers = min(workers, largest_batch, config.budget)
    if workers > 1:
        with _pool_map(evaluator, workers) as evaluate_many:
            return _search(space, config, evaluate_many, workers)
    return _search(space, config, functools.partial(map, evaluator))


def _search(space: FeatureSpace, config: SearchConfig, evaluate_many,
            width: int = 1) -> Archive:
    rng = Generator(config.seed)
    driver = _Driver(space, config, evaluate_many, width)
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
    """Ordered map over assignments on `workers` evaluators: this process
    and `workers - 1` worker processes.

    Each worker is forked where the platform can fork. A spawned worker
    re-imports the package first, about 0.2 s on a 2-CPU host, which is
    most of what a 200-evaluation hill climb gains from a second
    evaluator. The fork copies a process of one thread: nothing that
    `riskbench run` imports starts a thread.
    """
    # Imported here so that start-up does not pay for it.
    import multiprocessing
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    pool = _OrderedPool(evaluator)
    try:
        for _ in range(workers - 1):
            pool.start_worker(context)
        yield pool.map
    finally:
        pool.close()


class _OrderedPool:
    """This process and its worker processes, each worker over its own
    pipe. The evaluator reaches a worker once, as its process argument;
    only assignments and results cross the pipes afterwards.

    Each worker is kept _AHEAD assignments deep. The parent evaluates the
    first assignment of a batch, and then, whenever the result whose turn
    it is has not arrived, the next assignment that no worker holds. So a
    batch of one per evaluator puts its first assignment in the parent and
    one in each worker, and no evaluator waits on another while a larger
    batch has work left. (A fixed split, positions 0, W, 2W, ... to the
    parent, left one side idle whenever the evaluations of a random batch
    took uneven times.)

    Results come back strictly in proposal order. An error, in a worker or
    here, is raised with its type and message when its proposal's turn
    comes, and a worker that dies raises a RiskbenchError instead of a
    hang. Results still owed by a batch whose caller stopped early are
    drained, unseen, before the next batch goes out.
    """

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.workers = []                  # (pipe, process) per worker
        self.owed = collections.deque()    # the same, per result to come

    def start_worker(self, context) -> None:
        ours, theirs = context.Pipe()
        inherited = [pipe for pipe, _ in self.workers] + [ours]
        process = context.Process(target=_serve, daemon=True,
                                  args=(self.evaluator, theirs, inherited))
        process.start()
        theirs.close()
        self.workers.append((ours, process))

    def map(self, assignments: list):
        """Yield the evaluator's result for each assignment, in order."""
        self._drain()
        count = len(assignments)
        handed = 0          # assignments handed to an evaluator, in order
        early = {}          # position -> outcome of the parent's evaluation

        def evaluate_next():
            nonlocal handed
            position = handed
            handed += 1
            while handed < count:
                worker = min(self.workers, key=self.owed.count)
                if self.owed.count(worker) >= _AHEAD:
                    break
                self._send(worker, assignments[handed])
                handed += 1
            try:
                early[position] = (True, self.evaluator(assignments[position]))
            except Exception as exc:
                early[position] = (False, exc)

        for i in range(count):
            if i == handed:
                evaluate_next()
            if i in early:
                ok, value = early.pop(i)
            else:
                while handed < count and not self.owed[0][0].poll():
                    evaluate_next()
                ok, value = self._receive()
            if not ok:
                raise value
            yield value

    def close(self) -> None:
        for pipe, _ in self.workers:
            pipe.close()
        for _, process in self.workers:
            process.terminate()
            process.join()

    def _send(self, worker, assignment) -> None:
        try:
            worker[0].send(assignment)
        except OSError:
            self._died(worker[1])
        self.owed.append(worker)

    def _receive(self):
        pipe, process = self.owed.popleft()
        try:
            return pipe.recv()
        except (EOFError, OSError):
            self._died(process)

    def _drain(self) -> None:
        while self.owed:
            self._receive()

    @staticmethod
    def _died(process):
        process.join(timeout=1.0)
        raise RiskbenchError(f"evaluation worker process {process.pid} died "
                             f"(exit code {process.exitcode})")


def _serve(evaluator, pipe, inherited) -> None:
    """A pool worker: evaluate each assignment from the pipe and send back
    (True, result) or (False, the error), until the parent closes it."""
    import signal
    # The parent handles an interrupt, and ends its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A forked worker holds copies of the parent's pipe ends, which would
    # keep its own pipe open after the parent closed or lost it.
    for other in inherited:
        other.close()
    while True:
        try:
            assignment = pipe.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, evaluator(assignment))
        except Exception as exc:
            reply = (False, exc)
        try:
            pipe.send(reply)
        except OSError:
            return


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
