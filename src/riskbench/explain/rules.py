"""Rules read off high-likelihood leaves, and counterexamples inside them.

A rule is the conjunction of the tests along one root-to-leaf path,
collapsed to a single interval or category subset per feature and clipped
to the feature domains. Lower bounds coming from a `value <= t` test taken
on the right branch are strict (value > t); that distinction is kept both
for membership checks and for the report text.
"""

from __future__ import annotations

import math

from ..errors import DomainError, EmptyRegionError
from ..record import Record
from ..riskml.model import CATEGORICAL, INTEGER
from ..rng import Generator
from ..search.space import FeatureSpace
from .tree import DecisionTree, TreeNode


class Constraint(Record):
    feature: str
    kind: str
    lo: float = 0.0
    hi: float = 0.0
    lo_strict: bool = False
    values: tuple | None = None     # categorical subset

    def admits(self, value) -> bool:
        if self.kind == CATEGORICAL:
            return value in (self.values or ())
        above = value > self.lo if self.lo_strict else value >= self.lo
        return above and value <= self.hi


class Rule(Record):
    id: int
    constraints: tuple
    likelihood: float
    support: int

    def constraint_for(self, feature: str) -> Constraint | None:
        for constraint in self.constraints:
            if constraint.feature == feature:
                return constraint
        return None

    def satisfied_by(self, assignment: dict) -> bool:
        return all(c.admits(assignment[c.feature]) for c in self.constraints)


class AugmentationSet(Record):
    assignments: tuple
    rule_id: int


def _path_constraints(columns, path) -> tuple:
    """Intersect the tests of one path into per-feature constraints.

    Each feature's tests are grouped into the thresholds of the left and
    of the right branches taken. A category is allowed when it passes every
    test: it equals each left one and none of the right ones. An interval
    runs from the largest right threshold to the smallest left one, clipped
    to the domain, and is open below when there is any right one. This is
    exact because every split threshold is a midpoint of in-domain values,
    so it lies in [lo, hi], and every category tested is a declared one.
    """
    tests: dict = {}
    for node, went_left in path:
        lefts, rights = tests.setdefault(node.split.feature_index, ([], []))
        (lefts if went_left else rights).append(node.split.threshold)
    constraints = []
    for idx, (lefts, rights) in sorted(tests.items()):
        column = columns[idx]
        if column.kind == CATEGORICAL:
            allowed = tuple(v for v in column.values
                            if v not in rights and all(v == t for t in lefts))
            constraints.append(Constraint(column.name, column.kind,
                                          values=allowed))
        else:
            constraints.append(Constraint(
                column.name, column.kind, lo=max([column.lo, *rights]),
                hi=min([column.hi, *lefts]), lo_strict=bool(rights)))
    return tuple(constraints)


def extract_rules(tree: DecisionTree, threshold: float) -> list:
    """One rule per leaf whose non-compliance likelihood clears threshold,
    ordered by descending likelihood, then descending support."""
    if not (0.0 <= threshold <= 1.0):
        raise DomainError(f"rule threshold must be in [0, 1], got {threshold}")

    found = []

    def walk(node: TreeNode, path):
        if node.is_leaf:
            support = node.count_compliance + node.count_non_compliance
            if support and node.likelihood >= threshold:
                found.append((node.likelihood, support,
                              _path_constraints(tree.columns, path)))
            return
        walk(node.left, path + [(node, True)])
        walk(node.right, path + [(node, False)])

    walk(tree.root, [])
    found.sort(key=lambda item: (-item[0], -item[1]))
    return [Rule(id=i + 1, constraints=constraints, likelihood=likelihood,
                 support=support)
            for i, (likelihood, support, constraints) in enumerate(found)]


def generate_counterexamples(rule: Rule, space: FeatureSpace, n: int,
                             seed: int) -> AugmentationSet:
    """n assignments drawn uniformly from rule region ∩ feature domains.

    The draws are those of `numpy.random.default_rng(seed)`, made by the
    package's generator (`riskbench.rng`).
    """
    if n < 0:
        raise DomainError(f"sample count must be non-negative, got {n}")
    rng = Generator(seed)

    samplers = []
    for dim in space.dims:
        constraint = rule.constraint_for(dim.name)
        if dim.kind == CATEGORICAL:
            allowed = dim.values
            if constraint is not None:
                allowed = tuple(v for v in (constraint.values or ())
                                if v in dim.values)
            if not allowed:
                raise EmptyRegionError(
                    f"empty region: no admissible category for {dim.name!r}")
            samplers.append((dim.name, "cat", allowed))
        else:
            lo, hi, strict = dim.lo, dim.hi, False
            if constraint is not None:
                lo = max(lo, constraint.lo)
                hi = min(hi, constraint.hi)
                strict = constraint.lo_strict
            if dim.kind == INTEGER:
                lo_i = math.floor(lo) + 1 if (strict and lo == int(lo)) \
                    else math.ceil(lo)
                hi_i = math.floor(hi)
                if lo_i > hi_i:
                    raise EmptyRegionError(
                        f"empty region: no integer in [{lo}, {hi}] "
                        f"for {dim.name!r}")
                samplers.append((dim.name, "int", (lo_i, hi_i)))
            else:
                if lo > hi or (strict and lo >= hi):
                    raise EmptyRegionError(
                        f"empty region: interval [{lo}, {hi}] for "
                        f"{dim.name!r} has no volume")
                samplers.append((dim.name, "float", (lo, hi)))

    assignments = []
    for _ in range(n):
        a = {}
        for name, kind, spec in samplers:
            if kind == "cat":
                a[name] = spec[rng.integers(0, len(spec))]
            elif kind == "int":
                a[name] = rng.integers(spec[0], spec[1] + 1)
            else:
                a[name] = rng.uniform(spec[0], spec[1])
        assignments.append(a)
    return AugmentationSet(assignments=tuple(assignments), rule_id=rule.id)


def _fmt(x) -> str:
    return format(float(x), ".6g")


def constraint_text(constraint: Constraint) -> str:
    if constraint.kind == CATEGORICAL:
        return (f"{constraint.feature} in "
                f"{{{', '.join(constraint.values or ())}}}")
    left = "(" if constraint.lo_strict else "["
    return (f"{constraint.feature} in {left}{_fmt(constraint.lo)}, "
            f"{_fmt(constraint.hi)}]")


def rules_report(rules, algorithm: str | None = None) -> str:
    """Plain-text listing, one line per rule."""
    lines = []
    if algorithm:
        lines.append(f"# archive produced by {algorithm} search; "
                     "likelihoods are raw leaf fractions")
    if not rules:
        lines.append("no rules met the likelihood threshold")
    for rule in rules:
        conj = " and ".join(constraint_text(c) for c in rule.constraints) \
            or "always"
        lines.append(f"rule #{rule.id}: {conj} -> non-compliance, "
                     f"likelihood {rule.likelihood:.3f}, "
                     f"support {rule.support}")
    return "\n".join(lines) + "\n"


def rules_to_json(rules) -> dict:
    out = []
    for rule in rules:
        constraints = []
        for c in rule.constraints:
            if c.kind == CATEGORICAL:
                constraints.append({"feature": c.feature, "kind": c.kind,
                                    "values": list(c.values or ())})
            else:
                constraints.append({"feature": c.feature, "kind": c.kind,
                                    "lo": c.lo, "hi": c.hi,
                                    "lo_strict": c.lo_strict})
        out.append({"id": rule.id, "constraints": constraints,
                    "likelihood": rule.likelihood, "support": rule.support})
    return {"rules": out}
