"""Archive persistence: one CSV of evaluations plus one JSON header.

The CSV is the hand-off to the explanation stage; the header records how
it was produced, so stale or mismatched inputs are detectable instead of
silently wrong. This module alone decides both formats: `archive_header`
and `archive_to_csv` write them, `read_archive_header` and
`parse_archive_csv` read them back.

`campaign.json` keys: `format` ("riskbench-archive-v1"); `situation` and
`event`, the situation searched and its target event; `space`, per
feature column its `name`, `kind`, and `values` or `lo` and `hi`;
`config`, the search config key for key (`SEARCH_FIELDS`); `sim_seeds`;
`model_digest` and `scenario_digest`, the sha256 strings of the input
texts; `evaluations`, the row count, at least 1; and `threshold`, the
rule likelihood threshold in [0, 1] (DEFAULT_THRESHOLD when absent).

`archive.csv` has the columns `index`, the features in the space's
order, `robustness`, `label` and `triggered`, then one `EvaluatedPoint`
per row in proposal order. The row rules: the index is the row's
position (0 first); each feature is a finite value inside its domain;
the robustness of the target event is not NaN (inf is allowed); the
label is `compliance` or `non_compliance`; `triggered` joins with `;`
events the situation exposes, each once. And, as the one verdict rule
(`verdict_from_robustness`) makes every row: the target event triggered
exactly when its robustness is negative, and the label is
`non_compliance` exactly when some negative event triggered.
"""

from __future__ import annotations

import math
from dataclasses import asdict

from ..errors import (ArchiveMismatchError, ConfigError, DomainError,
                      UnknownNameError)
from ..kvdoc import Field
from ..riskml.model import CATEGORICAL, INTEGER, NEGATIVE
from ..sim.events import LABEL_COMPLIANCE, LABEL_NON_COMPLIANCE
from .algorithms import SEARCH_FIELDS, Archive, EvaluatedPoint, SearchConfig
from .space import FeatureSpace

ARCHIVE_FORMAT = "riskbench-archive-v1"

THRESHOLD_FIELD = Field("threshold", float, lo=0.0, hi=1.0)
DEFAULT_THRESHOLD = 0.2

# The header's required keys besides its config, in the order they are
# checked (after the threshold).
_HEADER_FIELDS = (Field("situation", str), Field("event", str),
                  Field("evaluations", int, lo=1),
                  Field("model_digest", str), Field("scenario_digest", str))


def _columns(space: FeatureSpace) -> list:
    return ["index", *space.names(), "robustness", "label", "triggered"]


def _cell(dim, value) -> str:
    if dim.kind == CATEGORICAL:
        return str(value)
    if dim.kind == INTEGER:
        return str(int(value))
    return repr(float(value))


def archive_to_csv(archive: Archive, space: FeatureSpace) -> str:
    """The archive's points as CSV text, one row each."""
    lines = [",".join(_columns(space))]
    for point in archive.points:
        lines.append(",".join([
            str(point.index),
            *(_cell(dim, point.assignment[dim.name]) for dim in space.dims),
            repr(point.robustness), point.label, ";".join(point.triggered)]))
    return "\n".join(lines) + "\n"


def archive_header(space: FeatureSpace, config: SearchConfig,
                   sim_seeds: tuple, situation: str, event: str,
                   model_digest: str, scenario_digest: str,
                   evaluations: int, threshold: float) -> dict:
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
        "threshold": threshold,
    }


def read_archive_header(header, source) -> dict:
    """The search config (under `config`) and the threshold, situation,
    event, evaluation count and digests of a parsed campaign.json, each
    checked as `run` writes it. ConfigError, its message prefixed with
    `source`, unless the header holds them all."""
    def bad(problem):
        raise ConfigError(f"{source}: {problem}")

    if not isinstance(header, dict):
        bad("expected a JSON object")
    if header.get("format") != ARCHIVE_FORMAT:
        bad(f"unrecognized archive format {header.get('format')!r}")
    doc = header.get("config")
    if not isinstance(doc, dict):
        bad("missing the 'config' object")
    odd = sorted(doc.keys() ^ SEARCH_FIELDS.keys())
    if odd:
        bad(f"config keys missing or unknown: {', '.join(odd)}")
    try:
        checked = {"config": SearchConfig(**{
            key: f.coerce(doc[key]) for key, f in SEARCH_FIELDS.items()}),
            "threshold": THRESHOLD_FIELD.coerce(
                header.get("threshold", DEFAULT_THRESHOLD))}
        for f in _HEADER_FIELDS:
            checked[f.path] = f.coerce(header.get(f.path))
    except DomainError as exc:
        bad(str(exc))
    return checked


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


def _parse_row(cells, space: FeatureSpace, position: int) -> EvaluatedPoint:
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
    return EvaluatedPoint(index, assignment, robustness, label, triggered)


def _contradiction(point: EvaluatedPoint, situation, event: str,
                   negative: set):
    """What makes the row contradict itself, or None."""
    triggered = point.triggered
    cell = ";".join(triggered)
    try:
        situation.check_exposed(*triggered)
    except UnknownNameError as exc:
        return f"triggered {exc}"
    if len(set(triggered)) != len(triggered):
        return f"triggered {cell!r} names an event twice"
    if (point.robustness < 0.0) != (event in triggered):
        return (f"robustness {point.robustness!r} of {event!r} "
                f"contradicts triggered {cell!r}")
    if (point.label == LABEL_NON_COMPLIANCE) != bool(negative & {*triggered}):
        return f"label {point.label!r} contradicts triggered {cell!r}"
    return None


def parse_archive_csv(text: str, space: FeatureSpace, model, situation,
                      event: str) -> Archive:
    """The archive that archive_to_csv wrote for `event` of `situation`
    (a Situation of `model`), point for point. ArchiveMismatchError unless
    the columns match the space; ConfigError at the first line that
    breaks a row rule."""
    lines = [(number, line) for number, line
             in enumerate(text.splitlines(), start=1) if line]
    if not lines:
        raise ConfigError("archive CSV is empty")
    expected = _columns(space)
    header = lines[0][1].split(",")
    if header != expected:
        raise ArchiveMismatchError(
            f"archive columns {header!r} do not match the feature space "
            f"{expected!r}")
    negative = {name for name in situation.exposes
                if model.event(name).polarity == NEGATIVE}
    archive = Archive()
    for number, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(expected):
            raise ConfigError(f"malformed archive row at line {number}: "
                              f"{line!r}")
        try:
            point = _parse_row(cells, space, len(archive.points))
        except ValueError as exc:
            raise ConfigError(f"malformed archive row at line {number}: "
                              f"{exc}: {line!r}") from None
        problem = _contradiction(point, situation, event, negative)
        if problem:
            raise ConfigError(
                f"contradictory archive row at line {number}: {problem}")
        archive.record(point)
    return archive
