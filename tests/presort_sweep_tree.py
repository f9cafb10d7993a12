"""A split search over Python row tuples that sorts each node's rows once
per column and sweeps them, as the reference that `induce_tree` must
reproduce tree for tree.

It is kept here, outside the package, so that a change to the package
cannot change the reference with it. It is fast enough for datasets of
thousands of rows, unlike the rescanning oracle in test_explain.py.
"""

from bisect import bisect_right
from itertools import accumulate

from riskbench.explain import Split, TreeNode
from riskbench.riskml.model import CATEGORICAL
from riskbench.sim.events import LABEL_NON_COMPLIANCE


def _gini(n_compliance: int, n_non_compliance: int) -> float:
    total = n_compliance + n_non_compliance
    if total == 0:
        return 0.0
    p_c = n_compliance / total
    p_nc = n_non_compliance / total
    return 1.0 - p_c * p_c - p_nc * p_nc


def _counts(rows) -> tuple:
    nc = sum(1 for _, label in rows if label == LABEL_NON_COMPLIANCE)
    return len(rows) - nc, nc


def _numeric_partitions(rows, idx):
    """(threshold, n_left, nc_left) at each boundary between distinct
    values, thresholds ascending; left is every row with value <= threshold.

    The threshold is the midpoint of the two values. When they are adjacent
    floats it can round up onto the larger one, so the left count comes
    from the threshold, not from the boundary position.
    """
    ordered = sorted((values[idx], label == LABEL_NON_COMPLIANCE)
                     for values, label in rows)
    keys = [value for value, _ in ordered]
    nc_before = list(accumulate((is_nc for _, is_nc in ordered), initial=0))
    for i in range(1, len(keys)):
        a, b = keys[i - 1], keys[i]
        if a == b:
            continue
        threshold = (a + b) / 2.0
        n_left = bisect_right(keys, threshold)
        yield threshold, n_left, nc_before[n_left]


def _categorical_partitions(rows, idx, column):
    """(category, n_left, nc_left) for each declared category in order."""
    n = {category: 0 for category in column.values}
    nc = dict(n)
    for values, label in rows:
        value = values[idx]
        if value in n:
            n[value] += 1
            nc[value] += label == LABEL_NON_COMPLIANCE
    for category in column.values:
        yield category, n[category], nc[category]


def best_split(rows, columns) -> Split | None:
    """Highest-Gini-gain test over every column, or None if nothing splits.

    Scanning order (feature index ascending, candidates ascending) plus
    strictly-greater comparison yields the documented tie-breaking.
    """
    if len(rows) < 2:
        return None
    parent_c, parent_nc = _counts(rows)
    if parent_c == 0 or parent_nc == 0:
        return None
    parent_gini = _gini(parent_c, parent_nc)
    total = len(rows)

    best: Split | None = None
    for idx, column in enumerate(columns):
        if column.kind == CATEGORICAL:
            partitions = _categorical_partitions(rows, idx, column)
        else:
            partitions = _numeric_partitions(rows, idx)
        for candidate, n_left, left_nc in partitions:
            n_right = total - n_left
            if n_left == 0 or n_right == 0:
                continue
            left_c = n_left - left_nc
            right_nc = parent_nc - left_nc
            right_c = n_right - right_nc
            gain = parent_gini \
                - (n_left / total) * _gini(left_c, left_nc) \
                - (n_right / total) * _gini(right_c, right_nc)
            if best is None or gain > best.gain:
                best = Split(feature_index=idx, feature_name=column.name,
                             kind=column.kind, threshold=candidate, gain=gain)
    return best


def _grow(rows, columns, depth, max_depth, min_leaf, min_gain) -> TreeNode:
    n_c, n_nc = _counts(rows)
    leaf = TreeNode(split=None, count_compliance=n_c, count_non_compliance=n_nc)
    if depth >= max_depth or len(rows) < min_leaf or n_c == 0 or n_nc == 0:
        return leaf
    split = best_split(rows, columns)
    if split is None or split.gain < min_gain:
        return leaf
    left_rows, right_rows = [], []
    for row in rows:
        side = left_rows if split.goes_left(row[0][split.feature_index]) \
            else right_rows
        side.append(row)
    return TreeNode(
        split=split,
        left=_grow(left_rows, columns, depth + 1, max_depth, min_leaf, min_gain),
        right=_grow(right_rows, columns, depth + 1, max_depth, min_leaf, min_gain),
        count_compliance=n_c,
        count_non_compliance=n_nc,
    )
