"""Names of the per-run metrics the simulator publishes.

Event conditions in risk models may only reference these metrics. The
validator checks conditions and indicators against this tuple, and the
simulator's `TraceMetrics.as_dict` publishes exactly these names, so the two
sides cannot drift apart.
"""

from __future__ import annotations

TRACE_METRIC_NAMES: tuple[str, ...] = (
    "min_margin",
    "min_distance",
    "objects_fallen",
    "detection_miss_ratio",
    "collision",
)
