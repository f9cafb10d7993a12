"""Labeled datasets distilled from campaign archives."""

from __future__ import annotations

from ..errors import DomainError
from ..record import Record
from ..sim.events import LABEL_NON_COMPLIANCE


class LabeledDataset(Record):
    columns: tuple            # DomainFeature per column, archive order
    rows: tuple               # (value tuple, label) pairs

    def __len__(self) -> int:
        return len(self.rows)


def dataset_from_rows(space: tuple, rows) -> LabeledDataset:
    """One dataset row per archive row (`EvaluatedPoint`): its feature
    values in the space's order, and its label."""
    if not rows:
        raise DomainError("cannot build a dataset from an empty archive")
    packed = tuple(
        (tuple(row.assignment[dim.name] for dim in space), row.label)
        for row in rows)
    return LabeledDataset(columns=space, rows=packed)


def estimate_event_likelihood(dataset: LabeledDataset) -> tuple:
    """(non-compliant fraction, sample count) for annotating the model."""
    if not dataset.rows:
        raise DomainError("cannot estimate likelihood from an empty dataset")
    bad = sum(1 for _, label in dataset.rows if label == LABEL_NON_COMPLIANCE)
    return bad / len(dataset.rows), len(dataset.rows)
