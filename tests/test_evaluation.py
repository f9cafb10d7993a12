"""The ordered evaluation map: in-process and on a pool of processes."""

import multiprocessing
import os
import time

import pytest

from riskbench.errors import DomainError, RiskbenchError
from riskbench.evaluation import _OrderedPool, evaluation_map
from riskbench.search import campaign_evaluator

from conftest import no_longer_than


def uneven_square(x):
    # Evaluations of uneven length, so that results arrive out of order.
    time.sleep(0.002 * (x % 3))
    return x * x


class PidError(DomainError):
    """An error that remembers the process that raised it."""

    def __init__(self, message, pid=None):
        super().__init__(message)
        self.pid = os.getpid() if pid is None else pid

    def __reduce__(self):
        return type(self), (str(self), self.pid)


def fragile_square(x):
    if x % 7 == 5:
        raise PidError(f"no square for {x}")
    return x * x


class ExitInWorker:
    """The square in the parent process; a worker process exits at once."""

    def __init__(self):
        self.parent = os.getpid()

    def __call__(self, x):
        if os.getpid() != self.parent:
            os._exit(3)
        return x * x


def _outcome(results):
    try:
        return list(results)
    except Exception as exc:
        return type(exc), str(exc)


def test_one_evaluator_is_the_builtin_map():
    for workers in (1, 0):
        with evaluation_map(uneven_square, workers) as evaluate_many:
            results = evaluate_many([3, 1, 2])
            assert isinstance(results, map)
            assert list(results) == [9, 1, 4]
            assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_every_evaluator_count_gives_the_in_process_results(workers):
    # Batches of one, fewer than the evaluators, as many, and many more.
    batches = [[4], [1, 2], list(range(workers)), list(range(40)), []]
    with evaluation_map(uneven_square, workers) as evaluate_many:
        assert len(multiprocessing.active_children()) == workers - 1
        for batch in batches:
            assert list(evaluate_many(batch)) == [x * x for x in batch]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_a_batch_stopped_early_is_drained_unseen(workers):
    with evaluation_map(fragile_square, workers) as evaluate_many:
        results = evaluate_many(list(range(20)))
        # Stopped before 5, the first that fails; the rest are owed.
        assert [next(results) for _ in range(4)] == [0, 1, 4, 9]
        assert list(evaluate_many([6, 7, 8])) == [36, 49, 64]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("batch", [[5, 12], [1, 2, 3, 5], [0, 1, 2, 3, 4, 12],
                                   list(range(6, 40))],
                         ids=["parent-first", "fourth", "past-the-workers",
                              "long"])
def test_the_first_failing_assignment_raises_in_its_turn(workers, batch):
    # 5, 12, 19, 26 and 33 fail; the first of them in the batch is
    # reported, with the in-process type and message, wherever it ran.
    with evaluation_map(fragile_square, 1) as evaluate_many:
        expected = _outcome(evaluate_many(batch))
    with evaluation_map(fragile_square, workers) as evaluate_many:
        assert _outcome(evaluate_many(batch)) == expected
        # The map goes on serving after an error.
        assert list(evaluate_many([2, 3])) == [4, 9]
    assert expected[0] is PidError
    assert multiprocessing.active_children() == []


def test_a_worker_error_is_raised_as_its_own():
    # The parent evaluates 0; a worker evaluates 5 and its error crosses
    # the pipe with the worker's process id.
    with evaluation_map(fragile_square, 2) as evaluate_many:
        with pytest.raises(PidError, match="no square for 5") as caught:
            list(evaluate_many([0, 5]))
    assert caught.value.pid != os.getpid()


def test_a_worker_that_dies_raises_instead_of_hanging():
    with no_longer_than(60), pytest.raises(RiskbenchError,
                                           match="exit code 3"):
        with evaluation_map(ExitInWorker(), 2) as evaluate_many:
            list(evaluate_many(list(range(10))))
    assert multiprocessing.active_children() == []


def test_an_error_in_the_block_ends_the_workers():
    with pytest.raises(KeyError):
        with evaluation_map(uneven_square, 3) as evaluate_many:
            next(evaluate_many(list(range(10))))
            raise KeyError("stop")
    assert multiprocessing.active_children() == []


def test_campaign_evaluator_runs_in_a_spawned_worker(corner_model,
                                                     corner_scenario):
    # Where the platform cannot fork, the pool spawns its workers, and the
    # evaluator (its model, scenario and situation records) reaches each
    # one as a pickle, in a process that imported the package afresh.
    evaluator = campaign_evaluator(corner_model, corner_scenario,
                                   "low_light_rush", "insufficient_distance")
    assignments = [{"illuminance": illuminance, "belt_speed": 0.45,
                    "operator_speed": 1.4} for illuminance in (60.0, 400.0,
                                                               950.0)]
    pool = _OrderedPool(evaluator)
    try:
        pool.start_worker(multiprocessing.get_context("spawn"))
        # The parent evaluates the first; the worker holds the other two.
        results = list(pool.map(assignments))
    finally:
        pool.close()
    assert results == [evaluator(assignment) for assignment in assignments]
