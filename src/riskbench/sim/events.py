"""Map trace metrics to event verdicts and signed robustness values.

Robustness is negative exactly when the event condition holds, and its
magnitude says how far the metric sits from the threshold:

    metric < threshold  ->  robustness = metric - threshold
    metric > threshold  ->  robustness = threshold - metric
"""

from __future__ import annotations

import math

from ..errors import DomainError, UnknownNameError
from ..record import Record
from ..riskml.model import NEGATIVE, Condition, RiskModel, Situation

LABEL_COMPLIANCE = "compliance"
LABEL_NON_COMPLIANCE = "non_compliance"


class EventOutcome(Record):
    triggered: bool
    robustness: float


class Verdict(Record):
    per_event: dict
    label: str

    def outcome(self, event_name: str) -> EventOutcome:
        try:
            return self.per_event[event_name]
        except KeyError:
            raise UnknownNameError(
                f"event {event_name!r} was not evaluated") from None


def condition_robustness(condition: Condition, metrics: dict) -> float:
    try:
        value = metrics[condition.metric]
    except KeyError:
        raise UnknownNameError(
            f"unknown trace metric {condition.metric!r}") from None
    if condition.op == "<":
        return value - condition.threshold
    return condition.threshold - value


def verdict_from_robustness(model: RiskModel, situation: Situation,
                            robustness: dict) -> Verdict:
    """The one verdict rule: judge each exposed event by its robustness.

    An event triggers exactly when its robustness is negative, and the
    episode is non-compliant exactly when some exposed negative event
    triggered. A NaN robustness judges nothing and raises DomainError.
    """
    per_event = {}
    any_negative = False
    for name in situation.exposes:
        rob = robustness[name]
        if math.isnan(rob):
            raise DomainError(f"event {name!r} has a NaN robustness")
        triggered = rob < 0.0
        per_event[name] = EventOutcome(triggered=triggered, robustness=rob)
        if triggered and model.event(name).polarity == NEGATIVE:
            any_negative = True
    label = LABEL_NON_COMPLIANCE if any_negative else LABEL_COMPLIANCE
    return Verdict(per_event=per_event, label=label)


def evaluate_events(trace, model: RiskModel, situation: Situation) -> Verdict:
    """Judge every event the situation exposes against one trace.

    Accepts a Trace or bare TraceMetrics; verdict_from_robustness labels
    the episode.
    """
    # Imported here: explaining an archive reads the labels above, not
    # the simulator.
    from .engine import Trace, TraceMetrics
    if isinstance(trace, Trace):
        metrics = trace.metrics.as_dict()
    elif isinstance(trace, TraceMetrics):
        metrics = trace.as_dict()
    else:
        metrics = dict(trace)
    return verdict_from_robustness(model, situation, {
        name: condition_robustness(model.event(name).condition, metrics)
        for name in situation.exposes})
