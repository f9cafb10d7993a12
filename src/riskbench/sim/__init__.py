"""Deterministic collaborative-cell simulator and event evaluation.

Each public name loads its submodule on first use (see `riskbench.lazy`).
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".engine": ("CONTACT_EPSILON", "TRACE_COLUMNS", "Trace", "TraceMetrics",
                "protective_distance", "simulate", "trace_to_csv"),
    ".events": ("LABEL_COMPLIANCE", "LABEL_NON_COMPLIANCE", "EventOutcome",
                "Verdict", "condition_robustness", "evaluate_events",
                "verdict_from_robustness"),
    ".perception": ("detection_probability", "illuminance_gate",
                    "in_field_of_view", "occlusion_fraction"),
    ".scenario": ("MODE_MONITORED_STOP", "MODE_SSM", "Scenario",
                  "bind_assignment", "check_bindings", "dump_scenario",
                  "load_scenario", "scenario_with", "validate_scenario"),
})
