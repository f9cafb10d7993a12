"""Labeled datasets distilled from campaign archives."""

from __future__ import annotations

from ..errors import DomainError
from ..record import Record
from ..search.algorithms import Archive
from ..search.space import FeatureSpace
from ..sim.events import LABEL_NON_COMPLIANCE


class LabeledDataset(Record):
    columns: tuple            # DomainFeature per column, archive order
    rows: tuple               # (value tuple, label) pairs

    def __len__(self) -> int:
        return len(self.rows)


def build_dataset(archive: Archive, space: FeatureSpace) -> LabeledDataset:
    """One row per evaluated point, labeled by its verdict."""
    # Rows in parse_archive_csv's shape; only assignment and label are read.
    return dataset_from_rows(space, [
        (None, point.assignment, None, point.verdict.label, None)
        for point in archive.points])


def dataset_from_rows(space: FeatureSpace, rows) -> LabeledDataset:
    """Dataset straight from parsed archive CSV rows."""
    if not rows:
        raise DomainError("cannot build a dataset from an empty archive")
    packed = tuple(
        (tuple(assignment[dim.name] for dim in space.dims), label)
        for (_, assignment, _, label, _) in rows)
    return LabeledDataset(columns=space.dims, rows=packed)


def estimate_event_likelihood(dataset: LabeledDataset) -> tuple:
    """(non-compliant fraction, sample count) for annotating the model."""
    if not dataset.rows:
        raise DomainError("cannot estimate likelihood from an empty dataset")
    bad = sum(1 for _, label in dataset.rows if label == LABEL_NON_COMPLIANCE)
    return bad / len(dataset.rows), len(dataset.rows)
