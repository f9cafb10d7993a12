"""Archive persistence: one CSV of evaluations plus one JSON header.

The CSV is the hand-off to the explanation stage; the header records how
it was produced (search config, seeds, input digests) so stale or
mismatched inputs are detectable instead of silently wrong.
"""

from __future__ import annotations

import math
from dataclasses import asdict

from ..errors import ArchiveMismatchError, ConfigError
from ..riskml.model import CATEGORICAL, INTEGER
from ..sim.events import LABEL_COMPLIANCE, LABEL_NON_COMPLIANCE
from .algorithms import Archive, EvaluatedPoint, SearchConfig
from .space import FeatureSpace

ARCHIVE_FORMAT = "riskbench-archive-v1"


def _cell(dim, value) -> str:
    if dim.kind == CATEGORICAL:
        return str(value)
    if dim.kind == INTEGER:
        return str(int(value))
    return repr(float(value))


def archive_to_csv(archive: Archive, space: FeatureSpace) -> str:
    """index, feature columns, robustness, label, triggered events."""
    header = ["index", *space.names(), "robustness", "label", "triggered"]
    lines = [",".join(header)]
    for point in archive.points:
        triggered = ";".join(
            name for name in point.verdict.per_event
            if point.verdict.per_event[name].triggered)
        row = [str(point.index)]
        row.extend(_cell(dim, point.assignment[dim.name])
                   for dim in space.dims)
        row.append(repr(point.robustness))
        row.append(point.verdict.label)
        row.append(triggered)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def archive_header(space: FeatureSpace, config: SearchConfig,
                   sim_seeds: tuple, situation: str, event: str,
                   model_digest: str, scenario_digest: str,
                   evaluations: int) -> dict:
    dims = []
    for dim in space.dims:
        entry = {"name": dim.name, "kind": dim.kind}
        if dim.kind == CATEGORICAL:
            entry["values"] = list(dim.values)
        else:
            entry["lo"] = dim.lo
            entry["hi"] = dim.hi
        dims.append(entry)
    return {
        "format": ARCHIVE_FORMAT,
        "situation": situation,
        "event": event,
        "space": dims,
        "config": asdict(config),
        "sim_seeds": list(sim_seeds),
        "model_digest": model_digest,
        "scenario_digest": scenario_digest,
        "evaluations": evaluations,
    }


def _parse_feature(dim, cell: str):
    """Typed value of one feature cell; ValueError unless it is a finite
    value inside the feature's declared domain."""
    if dim.kind == CATEGORICAL:
        value = cell
    elif dim.kind == INTEGER:
        value = int(cell)
    else:
        value = float(cell)
        if not math.isfinite(value):
            raise ValueError(f"{dim.name} = {cell!r} is not finite")
    if not dim.contains(value):
        raise ValueError(f"{dim.name} = {cell!r} is outside its domain")
    return value


def _parse_row(cells, space: FeatureSpace, position: int):
    n = len(space.dims)
    index = int(cells[0])
    if index != position:
        raise ValueError(f"index {index} is not the row's position {position}")
    assignment = {dim.name: _parse_feature(dim, cell)
                  for dim, cell in zip(space.dims, cells[1:1 + n])}
    # inf is a legal robustness: min_margin starts at math.inf.
    robustness = float(cells[1 + n])
    if math.isnan(robustness):
        raise ValueError("robustness is NaN")
    label = cells[2 + n]
    if label not in (LABEL_COMPLIANCE, LABEL_NON_COMPLIANCE):
        raise ValueError(f"unknown label {label!r}")
    triggered = tuple(t for t in cells[3 + n].split(";") if t)
    return index, assignment, robustness, label, triggered


def parse_archive_csv(text: str, space: FeatureSpace):
    """Rows back out of the CSV as (index, assignment, robustness, label,
    triggered tuple). The feature columns must match the space exactly, and
    every row must hold its position as its index (0 for the first row),
    in-domain feature values, a non-NaN robustness and a known label;
    ConfigError names the first row that does not."""
    lines = [(number, line) for number, line
             in enumerate(text.splitlines(), start=1) if line]
    if not lines:
        raise ConfigError("archive CSV is empty")
    expected = ["index", *space.names(), "robustness", "label", "triggered"]
    header = lines[0][1].split(",")
    if header != expected:
        raise ArchiveMismatchError(
            f"archive columns {header!r} do not match the feature space "
            f"{expected!r}")
    rows = []
    for number, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(expected):
            raise ConfigError(f"malformed archive row at line {number}: "
                              f"{line!r}")
        try:
            rows.append(_parse_row(cells, space, len(rows)))
        except ValueError as exc:
            raise ConfigError(f"malformed archive row at line {number}: "
                              f"{exc}: {line!r}") from None
    return rows
