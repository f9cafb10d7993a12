"""Explain campaign archives: trees, rules, counterexamples, likelihoods.

Each public name loads its submodule on first use (see `riskbench.lazy`).
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".dataset": ("LabeledDataset", "build_dataset", "dataset_from_rows",
                 "estimate_event_likelihood"),
    ".rules": ("AugmentationSet", "Constraint", "Rule", "constraint_text",
               "extract_rules", "generate_counterexamples", "rules_report",
               "rules_to_json"),
    ".tree": ("DEFAULT_MAX_DEPTH", "DEFAULT_MIN_GAIN", "DEFAULT_MIN_LEAF",
              "DecisionTree", "Split", "TreeNode", "best_split",
              "induce_tree", "predict", "tree_to_json"),
})
