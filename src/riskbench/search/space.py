"""A situation's feature space, its tuple of `DomainFeature`s in model
declaration order, and the space's unit-cube decoding.

Every search algorithm works in the normalized hypercube [0,1]^d so one
mutation scale serves continuous, integer, and categorical dimensions
alike. Continuous dims map affinely, integer dims round on decode, and
categorical dims split the unit interval into equal buckets.
"""

from __future__ import annotations

from ..errors import DomainError
from ..riskml.model import CATEGORICAL, INTEGER, DomainFeature, RiskModel


def make_feature_space(model: RiskModel,
                       situation_name: str) -> tuple[DomainFeature, ...]:
    """The situation's features, in model declaration order."""
    situation = model.situation(situation_name)
    wanted = set(situation.features)
    dims = tuple(f for f in model.features if f.name in wanted)
    if not dims:
        raise DomainError(
            f"situation {situation_name!r} references no features")
    return dims


def decode(space: tuple, vector) -> dict:
    """Map a unit vector back to a typed assignment."""
    if len(vector) != len(space):
        raise DomainError(
            f"vector has {len(vector)} components for {len(space)} dims")
    assignment = {}
    for dim, u in zip(space, vector):
        u = float(u)
        if not (0.0 <= u <= 1.0):
            raise DomainError(f"unit component {u!r} outside [0, 1]")
        if dim.kind == CATEGORICAL:
            idx = int(u * len(dim.values))
            if idx >= len(dim.values):
                idx = len(dim.values) - 1
            assignment[dim.name] = dim.values[idx]
        elif dim.kind == INTEGER:
            raw = dim.lo + u * (dim.hi - dim.lo)
            value = int(round(raw))
            if value < dim.lo:
                value = int(dim.lo)
            elif value > dim.hi:
                value = int(dim.hi)
            assignment[dim.name] = value
        else:
            assignment[dim.name] = dim.lo + u * (dim.hi - dim.lo)
    return assignment
