"""Value types for risk models plus validation and annotation.

A model is an immutable snapshot of one modelling session: actors, the goals
they own, measurable domain features, condition-bearing events, and the
situations that tie events and features to a concrete simulation scenario.
All types compare structurally, which is what the parse/serialize round-trip
guarantees are stated against.
"""

from __future__ import annotations

import math
from dataclasses import field, replace

from ..errors import DomainError, UnknownNameError
from ..metrics import TRACE_METRIC_NAMES
from ..record import Record

CONTINUOUS = "continuous"
INTEGER = "integer"
CATEGORICAL = "categorical"

# Every integer of at most this magnitude is exact in a float64.
EXACT_INT = 2 ** 53

POSITIVE = "positive"
NEGATIVE = "negative"


class Actor(Record):
    name: str


class Goal(Record):
    name: str
    owner: str
    description: str


class DomainFeature(Record):
    """A controllable or observable quantity with an explicit domain.

    `binding` is the dotted scenario path the feature drives, e.g.
    ``environment.illuminance``. Interval kinds use `lo`/`hi`; categorical
    features enumerate `values`.
    """

    name: str
    kind: str
    lo: float | int | None = None
    hi: float | int | None = None
    values: tuple[str, ...] = ()
    units: str = ""
    binding: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def contains(self, value) -> bool:
        if self.kind == CATEGORICAL:
            return value in self.values
        if isinstance(value, int):
            # Compared exactly: float() rounds an int past 2^53.
            return self.lo <= value <= self.hi
        try:
            v = float(value)
        except (TypeError, ValueError, OverflowError):
            return False
        if self.kind == INTEGER and not v.is_integer():
            return False
        return self.lo <= v <= self.hi


class Condition(Record):
    """Threshold test over a published trace metric, e.g. min_margin < 0."""

    metric: str
    op: str  # "<" or ">"
    threshold: float


class Likelihood(Record):
    """Estimated occurrence fraction backed by a sample count."""

    fraction: float
    samples: int


class Event(Record):
    name: str
    polarity: str  # POSITIVE or NEGATIVE
    condition: Condition
    impacts: tuple[tuple[str, str], ...] = ()  # (sign, goal name), sign in "+-"
    likelihood: Likelihood | None = None

    def __post_init__(self):
        object.__setattr__(self, "impacts", tuple(tuple(i) for i in self.impacts))


class Indicator(Record):
    name: str
    situation: str
    metric: str


class Situation(Record):
    name: str
    description: str
    scenario_ref: str
    exposes: tuple[str, ...] = ()
    features: tuple[str, ...] = ()
    indicators: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "exposes", tuple(self.exposes))
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "indicators", tuple(self.indicators))

    def check_exposed(self, *events: str) -> None:
        """UnknownNameError unless this situation exposes every event."""
        for name in events:
            if name not in self.exposes:
                raise UnknownNameError(f"event {name!r} is not exposed by "
                                       f"situation {self.name!r}")


class Diagnostic(Record):
    """One violated validation rule, anchored to a named element."""

    kind: str
    element: str
    message: str
    line: int | None = None
    column: int | None = None

    def __str__(self):
        where = f" (line {self.line}, column {self.column})" if self.line else ""
        return f"{self.kind} '{self.element}': {self.message}{where}"


class RiskModel(Record):
    actors: tuple[Actor, ...] = ()
    goals: tuple[Goal, ...] = ()
    features: tuple[DomainFeature, ...] = ()
    events: tuple[Event, ...] = ()
    situations: tuple[Situation, ...] = ()
    indicators: tuple[Indicator, ...] = ()
    # Source positions keyed by (kind, name); informational only, never compared.
    spans: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for name in ("actors", "goals", "features", "events", "situations", "indicators"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def feature(self, name: str) -> DomainFeature:
        return _lookup(self.features, name, "feature")

    def event(self, name: str) -> Event:
        return _lookup(self.events, name, "event")

    def goal(self, name: str) -> Goal:
        return _lookup(self.goals, name, "goal")

    def situation(self, name: str) -> Situation:
        return _lookup(self.situations, name, "situation")


def _lookup(elements, name, kind):
    for el in elements:
        if el.name == name:
            return el
    raise UnknownNameError(f"no {kind} named {name!r}")


def _span(model: RiskModel, kind: str, name: str) -> tuple[int | None, int | None]:
    return model.spans.get((kind, name), (None, None))


def validate(model: RiskModel) -> list[Diagnostic]:
    """Check every model invariant; an empty list means the model is sound.

    Each diagnostic names the offending element and the violated rule, with
    source positions when the model came from a parse.
    """
    out: list[Diagnostic] = []

    def diag(kind, element, message):
        line, col = _span(model, kind, element)
        out.append(Diagnostic(kind, element, message, line, col))

    for kind, elements in (("actor", model.actors), ("goal", model.goals),
                           ("feature", model.features), ("event", model.events),
                           ("situation", model.situations), ("indicator", model.indicators)):
        seen = set()
        for el in elements:
            if el.name in seen:
                diag(kind, el.name, "duplicate name")
            seen.add(el.name)

    actor_names = {a.name for a in model.actors}
    goal_names = {g.name for g in model.goals}
    event_names = {e.name for e in model.events}
    feature_names = {f.name for f in model.features}
    indicator_names = {i.name for i in model.indicators}
    situation_names = {s.name for s in model.situations}

    for g in model.goals:
        if g.owner not in actor_names:
            diag("goal", g.name, f"unresolved owner '{g.owner}'")

    for f in model.features:
        if f.kind not in (CONTINUOUS, INTEGER, CATEGORICAL):
            diag("feature", f.name, f"unknown kind '{f.kind}'")
        elif f.kind == CATEGORICAL:
            if not f.values:
                diag("feature", f.name, "empty domain: no categories")
        else:
            if f.lo is None or f.hi is None:
                diag("feature", f.name, "missing interval bounds")
            elif not (math.isfinite(f.lo) and math.isfinite(f.hi)):
                diag("feature", f.name, f"non-finite bound: [{f.lo}, {f.hi}]")
            elif not (f.lo < f.hi):
                diag("feature", f.name, f"empty domain: [{f.lo}, {f.hi}]")
            elif f.kind == INTEGER and max(-f.lo, f.hi) > EXACT_INT:
                diag("feature", f.name, f"integer bound beyond 2^53 in "
                                        f"magnitude: [{f.lo}, {f.hi}]")
            elif not math.isfinite(f.hi - f.lo):
                # Decoding a unit point computes lo + u * (hi - lo).
                diag("feature", f.name, f"domain wider than a float can "
                                        f"hold: [{f.lo}, {f.hi}]")
        if not f.binding:
            diag("feature", f.name, "missing scenario binding")

    for e in model.events:
        if e.polarity not in (POSITIVE, NEGATIVE):
            diag("event", e.name, f"unknown polarity '{e.polarity}'")
        if not e.impacts:
            diag("event", e.name, "impacts no goal")
        for sign, goal in e.impacts:
            if goal not in goal_names:
                diag("event", e.name, f"unresolved goal '{goal}'")
            if sign not in ("+", "-"):
                diag("event", e.name, f"bad impact sign '{sign}'")
            elif e.polarity == NEGATIVE and sign != "-":
                diag("event", e.name, f"negative event has '+' impact on '{goal}'")
        if e.condition.metric not in TRACE_METRIC_NAMES:
            diag("event", e.name, f"unknown metric '{e.condition.metric}'")
        if e.condition.op not in ("<", ">"):
            diag("event", e.name, f"unknown operator '{e.condition.op}'")
        if not math.isfinite(e.condition.threshold):
            diag("event", e.name,
                 f"non-finite threshold {e.condition.threshold}")
        if e.likelihood is not None:
            if not (0.0 <= e.likelihood.fraction <= 1.0):
                diag("event", e.name, f"likelihood {e.likelihood.fraction} outside [0, 1]")
            if e.likelihood.samples < 0:
                diag("event", e.name, "negative likelihood sample count")

    for s in model.situations:
        if not s.exposes:
            diag("situation", s.name, "exposes no event")
        if not s.features:
            diag("situation", s.name, "references no feature")
        if not s.scenario_ref:
            diag("situation", s.name, "missing scenario reference")
        for name in s.exposes:
            if name not in event_names:
                diag("situation", s.name, f"unresolved event '{name}'")
        for name in s.features:
            if name not in feature_names:
                diag("situation", s.name, f"unresolved feature '{name}'")
        for name in s.indicators:
            if name not in indicator_names:
                diag("situation", s.name, f"unresolved indicator '{name}'")

    for ind in model.indicators:
        if ind.situation not in situation_names:
            diag("indicator", ind.name, f"unresolved situation '{ind.situation}'")
        if ind.metric not in TRACE_METRIC_NAMES:
            diag("indicator", ind.name, f"unknown metric '{ind.metric}'")

    return out


def annotate_likelihoods(model: RiskModel,
                         estimates: dict[str, tuple[float, int]]) -> RiskModel:
    """Return a copy of `model` with likelihood annotations on named events.

    `estimates` maps event name to (fraction, sample count). Unknown events
    raise UnknownNameError; out-of-range fractions raise DomainError.
    """
    for name, (fraction, samples) in estimates.items():
        model.event(name)  # raises UnknownNameError
        if not (0.0 <= fraction <= 1.0):
            raise DomainError(f"likelihood for event {name!r} outside [0, 1]: {fraction}")
        if samples < 0:
            raise DomainError(f"negative sample count for event {name!r}: {samples}")
    events = tuple(
        replace(e, likelihood=Likelihood(float(estimates[e.name][0]), int(estimates[e.name][1])))
        if e.name in estimates else e
        for e in model.events
    )
    return replace(model, events=events)
