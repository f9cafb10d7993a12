"""One ordered map of an evaluator over a list of assignments.

`evaluation_map(evaluator, workers)` yields a function that takes a list
of assignments and yields the evaluator's result for each, in order. On
one evaluator it is the builtin `map`. On more it is a small process
pool in which this process is one of the evaluators, and the results,
the errors and their order are the same as in-process, so whatever is
built from them is identical for every number of evaluators.
"""

import collections
import functools
from contextlib import contextmanager

from .errors import RiskbenchError

# Assignments a pool worker holds at most: one to evaluate and one
# queued, so that it need not wait on the parent between the two, while
# neither a large batch nor the results can fill a pipe.
_AHEAD = 2


@contextmanager
def evaluation_map(evaluator, workers: int):
    """Ordered map over assignments on `workers` evaluators: this process
    and `workers - 1` worker processes. One evaluator starts no process.

    Each worker is forked where the platform can fork. A spawned worker
    re-imports the package first, about 0.2 s on a 2-CPU host, which is
    most of what a 200-evaluation hill climb gains from a second
    evaluator. The fork copies a process of one thread: nothing that
    `riskbench run` imports starts a thread.
    """
    if workers <= 1:
        yield functools.partial(map, evaluator)
        return
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
