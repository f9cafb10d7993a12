"""Falsification search over a risk model's feature space."""

from .algorithms import (ALGORITHMS, SEARCH_FIELDS, STALL_LIMIT, Archive,
                         EvaluatedPoint, SearchConfig, run_search,
                         validate_search_config)
from .archive_io import (ARCHIVE_FORMAT, archive_header, archive_to_csv,
                         parse_archive_csv)
from .campaign import campaign_evaluator, run_campaign
from .space import FeatureSpace, decode, encode, make_feature_space

__all__ = [
    "ALGORITHMS", "SEARCH_FIELDS", "STALL_LIMIT", "Archive", "EvaluatedPoint",
    "SearchConfig", "run_search", "validate_search_config",
    "ARCHIVE_FORMAT", "archive_header", "archive_to_csv", "parse_archive_csv",
    "campaign_evaluator", "run_campaign",
    "FeatureSpace", "decode", "encode", "make_feature_space",
]
