"""Falsification search over a risk model's feature space.

Each public name loads its submodule on first use (see `riskbench.lazy`).
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".algorithms": ("ALGORITHMS", "SEARCH_FIELDS", "STALL_LIMIT", "Archive",
                    "EvaluatedPoint", "SearchConfig", "run_search",
                    "validate_search_config"),
    ".archive_io": ("ARCHIVE_FORMAT", "DEFAULT_THRESHOLD", "THRESHOLD_FIELD",
                    "archive_header", "archive_to_csv", "parse_archive_csv",
                    "read_archive_header"),
    ".campaign": ("campaign_evaluator", "run_campaign"),
    ".space": ("decode", "make_feature_space"),
})
