"""Deterministic collaborative-cell simulator and event evaluation."""

from .engine import (CONTACT_EPSILON, TRACE_COLUMNS, Trace, TraceMetrics,
                     protective_distance, simulate, trace_to_csv)
from .events import (LABEL_COMPLIANCE, LABEL_NON_COMPLIANCE, EventOutcome,
                     Verdict, condition_robustness, evaluate_events,
                     verdict_from_robustness)
from .perception import (detection_probability, illuminance_gate,
                         in_field_of_view, occlusion_fraction)
from .scenario import (MODE_MONITORED_STOP, MODE_SSM, Scenario,
                       bind_assignment, check_bindings, dump_scenario,
                       load_scenario, scenario_with, validate_scenario)

__all__ = [
    "CONTACT_EPSILON", "TRACE_COLUMNS", "Trace", "TraceMetrics",
    "protective_distance", "simulate", "trace_to_csv",
    "LABEL_COMPLIANCE", "LABEL_NON_COMPLIANCE", "EventOutcome", "Verdict",
    "condition_robustness", "evaluate_events", "verdict_from_robustness",
    "detection_probability", "illuminance_gate", "in_field_of_view",
    "occlusion_fraction",
    "MODE_MONITORED_STOP", "MODE_SSM", "Scenario", "bind_assignment",
    "check_bindings", "dump_scenario", "load_scenario", "scenario_with",
    "validate_scenario",
]
