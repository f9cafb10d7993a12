"""Closed-loop falsification campaign: bind, simulate, judge, archive."""

from __future__ import annotations

from functools import reduce
from operator import add

from ..errors import DomainError
from ..riskml.model import RiskModel
from ..sim.engine import simulate
from ..sim.events import evaluate_events, verdict_from_robustness
from ..sim.scenario import (DEFAULT_SIM_SEED, SIM_SEED_FIELD, Scenario,
                            bind_assignment)
from .algorithms import Archive, SearchConfig, run_search
from .space import make_feature_space


class CampaignEvaluator:
    """Maps an assignment to the judged cells of its archive row by full
    simulation: the robustness of one event, the verdict's label and the
    events it triggered. Each event's robustness is its mean over the
    replicates of the simulator seeds, and the verdict is derived from the
    means; the mean of one replicate is that replicate, bit for bit. A
    plain object rather than a closure, so that it pickles for worker
    processes.
    """

    def __init__(self, model: RiskModel, scenario: Scenario, situation,
                 event_name: str, sim_seeds: tuple):
        self.model = model
        self.scenario = scenario
        self.situation = situation
        self.event_name = event_name
        self.sim_seeds = sim_seeds

    def __call__(self, assignment: dict):
        model, situation = self.model, self.situation
        bound = bind_assignment(self.scenario, model, assignment)
        replicates = [evaluate_events(simulate(bound, seed), model,
                                      situation).per_event
                      for seed in self.sim_seeds]
        verdict = verdict_from_robustness(model, situation, {
            name: reduce(add, [one[name].robustness for one in replicates])
            / len(replicates) for name in situation.exposes})
        return (verdict.per_event[self.event_name].robustness, verdict.label,
                tuple(name for name, outcome in verdict.per_event.items()
                      if outcome.triggered))


def campaign_evaluator(model: RiskModel, scenario: Scenario,
                       situation_name: str, event_name: str,
                       sim_seeds: tuple = (DEFAULT_SIM_SEED,)
                       ) -> CampaignEvaluator:
    """Evaluator for run_search over full simulations of one situation."""
    situation = model.situation(situation_name)
    situation.check_exposed(event_name)
    if not sim_seeds:
        raise DomainError("at least one simulator seed is required")
    for seed in sim_seeds:
        SIM_SEED_FIELD.check(seed)
    return CampaignEvaluator(model, scenario, situation, event_name,
                             tuple(sim_seeds))


def run_campaign(model: RiskModel, scenario: Scenario, situation_name: str,
                 event_name: str, config: SearchConfig,
                 sim_seeds: tuple = (DEFAULT_SIM_SEED,),
                 workers: int = 1) -> Archive:
    """Search the situation's feature space for violations of one event.

    `workers` processes evaluate the proposals, this one among them (see
    run_search); the archive does not depend on it.
    """
    space = make_feature_space(model, situation_name)
    evaluator = campaign_evaluator(model, scenario, situation_name,
                                   event_name, sim_seeds)
    return run_search(space, evaluator, config, workers)
