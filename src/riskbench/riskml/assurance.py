"""Assurance-case templates derived mechanically from a risk model.

One case is produced per (situation, goal) pair where the situation exposes
at least one negative event impacting that goal adversely. The case argues
the goal claim over the situation's negative events; each such event
contributes one sub-claim and one pending evidence slot that a later
falsification campaign can fill.
"""

from __future__ import annotations

from ..record import Record
from .model import NEGATIVE, RiskModel


class EvidenceSlot(Record):
    event: str
    status: str = "pending"
    campaign: str | None = None


class AssuranceCase(Record):
    goal: str
    situation: str
    top_claim: str
    strategy: str
    sub_claims: tuple[str, ...]
    evidence: tuple[EvidenceSlot, ...]

    def __post_init__(self):
        object.__setattr__(self, "sub_claims", tuple(self.sub_claims))
        object.__setattr__(self, "evidence", tuple(self.evidence))


def derive_assurance_cases(model: RiskModel) -> list[AssuranceCase]:
    """Build the case list; deterministic in model declaration order."""
    cases: list[AssuranceCase] = []
    for situation in model.situations:
        negatives = [model.event(name) for name in situation.exposes
                     if model.event(name).polarity == NEGATIVE]
        if not negatives:
            continue
        harmed = {goal for event in negatives
                  for sign, goal in event.impacts if sign == "-"}
        sub_claims = tuple(
            f"Risk of event '{e.name}' is acceptable" for e in negatives)
        evidence = tuple(EvidenceSlot(event=e.name) for e in negatives)
        for goal in model.goals:
            if goal.name not in harmed:
                continue
            cases.append(AssuranceCase(
                goal=goal.name,
                situation=situation.name,
                top_claim=(f"Goal '{goal.name}' holds in situation "
                           f"'{situation.name}'"),
                strategy=("Argue risk acceptability over each negative event "
                          "exposed by the situation"),
                sub_claims=sub_claims,
                evidence=evidence,
            ))
    return cases


def cases_to_json(cases: list[AssuranceCase]) -> dict:
    """JSON-ready structure: claims as a tree, evidence slots as a list."""
    return {
        "cases": [
            {
                "goal": c.goal,
                "situation": c.situation,
                "claim": {
                    "text": c.top_claim,
                    "strategy": c.strategy,
                    "sub_claims": [
                        {"text": text, "evidence_slot": slot.event}
                        for text, slot in zip(c.sub_claims, c.evidence)
                    ],
                },
                "evidence": [
                    {"event": slot.event, "status": slot.status,
                     "campaign": slot.campaign}
                    for slot in c.evidence
                ],
            }
            for c in cases
        ]
    }
