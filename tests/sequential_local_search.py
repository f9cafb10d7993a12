"""The one-at-a-time hill-climbing and annealing kernel, as the reference
that speculative drafts must reproduce decision for decision.

`_local_search` is copied verbatim from the kernel that evaluated one
proposal at a time, before drafts; it is kept here, outside the package,
so that a change to the package cannot change the reference with it.
"""

import functools
import math

import numpy as np

from riskbench.search.algorithms import STALL_LIMIT, _Driver


class SequentialDriver(_Driver):
    """`_Driver` with the one-proposal call the kernel makes."""

    def evaluate(self, unit_vector) -> float:
        return next(self.evaluate_batch([unit_vector]))


def run_sequential(space, evaluator, config):
    """The archive of hill climbing or annealing, one proposal at a time."""
    rng = np.random.default_rng(config.seed)
    driver = SequentialDriver(space, config, functools.partial(map, evaluator))
    _local_search(driver, rng,
                  annealing=config.algorithm == "simulated_annealing")
    return driver.archive


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
