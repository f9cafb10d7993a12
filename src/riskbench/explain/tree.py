"""CART-style decision tree over labeled feature assignments.

Binary splits chosen by Gini impurity decrease. Numeric tests are
`value <= threshold` with thresholds at midpoints between consecutive
distinct values; categorical tests are one-vs-rest (`value == category`).
Ties break toward the lower feature index, then the lower threshold (for
categoricals: the earlier declared category). No pruning; growth stops on
depth, node size, purity, or a gain floor.

Split search is CART's presort-and-sweep (Breiman et al., 1984) on numpy
arrays. The dataset is packed once: a float64 array per numeric column,
category codes per categorical column, a bool array of non-compliant
labels. Each node holds an index array of its rows. Per node, each numeric
column is sorted and swept with cumulative class counts, and each
categorical column is counted with `bincount`, so a node with n rows and
d columns costs O(d·n log n) in a fixed number of array operations.

The search uses only +, -, ×, ÷ and comparisons, which IEEE 754 rounds
alike in numpy and in Python, and evaluates the gain in one fixed order,
so the trees equal bit for bit those of the same sweep over Python row
tuples (kept as a test oracle). An integer value is exact in float64
only within ±2^53, so a larger one is refused. numpy is imported when
the dataset is packed for its first split search: a dataset of one
label never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError, UnknownNameError
from ..riskml.model import CATEGORICAL, EXACT_INT, INTEGER
from ..sim.events import LABEL_NON_COMPLIANCE
from .dataset import LabeledDataset

DEFAULT_MAX_DEPTH = 6
DEFAULT_MIN_LEAF = 5
DEFAULT_MIN_GAIN = 1e-6


@dataclass(frozen=True)
class Split:
    feature_index: int
    feature_name: str
    kind: str
    threshold: object         # number for numeric, category for categorical
    gain: float

    def goes_left(self, value) -> bool:
        if self.kind == CATEGORICAL:
            return value == self.threshold
        return value <= self.threshold


@dataclass(frozen=True)
class TreeNode:
    split: Split | None       # None marks a leaf
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    count_compliance: int = 0
    count_non_compliance: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def likelihood(self) -> float:
        total = self.count_compliance + self.count_non_compliance
        return self.count_non_compliance / total if total else 0.0


@dataclass(frozen=True)
class DecisionTree:
    root: TreeNode
    columns: tuple
    n_rows: int
    max_depth: int
    min_leaf: int
    min_gain: float


def _gini(n_compliance, n_non_compliance):
    """Gini impurity of a nonempty node; the counts are ints or int arrays."""
    total = n_compliance + n_non_compliance
    p_c = n_compliance / total
    p_nc = n_non_compliance / total
    return 1.0 - p_c * p_c - p_nc * p_nc


class _Table:
    """A dataset packed for the split search: per column a float64 array
    (numeric) or the index of each value in the declared categories
    (categorical; an undeclared value gets the index past the last), and
    a bool array that marks the non-compliant rows."""

    def __init__(self, columns, rows):
        import numpy as np
        self.columns = columns
        self.arrays = []
        for idx, column in enumerate(columns):
            cells = [values[idx] for values, _ in rows]
            if column.kind == CATEGORICAL:
                code = {}
                for i, category in enumerate(column.values):
                    code.setdefault(category, i)
                other = len(column.values)
                cells = [code.get(cell, other) for cell in cells]
                self.arrays.append(np.array(cells, dtype=np.intp))
                continue
            if column.kind == INTEGER and cells and (
                    min(cells) < -EXACT_INT or max(cells) > EXACT_INT):
                raise DomainError(f"feature {column.name!r} holds an integer "
                                  f"beyond 2^53 in magnitude")
            self.arrays.append(np.array(cells, dtype=np.float64))
        self.is_nc = np.array([label == LABEL_NON_COMPLIANCE
                               for _, label in rows], dtype=bool)
        self.every_row = np.arange(len(rows))

    def best_split(self, rows):
        """(split, left mask over `rows`) of the highest-Gini-gain test over
        every column, or None if nothing splits.

        Candidates are scanned by feature index and then ascending, and the
        first of equal gains is kept, which yields the documented
        tie-breaking.
        """
        import numpy as np
        is_nc = self.is_nc[rows]
        total = len(rows)
        parent_nc = int(np.count_nonzero(is_nc))
        if parent_nc in (0, total):     # one label, or no row
            return None
        parent_gini = _gini(total - parent_nc, parent_nc)

        best = None
        for idx, column in enumerate(self.columns):
            values = self.arrays[idx][rows]
            if column.kind == CATEGORICAL:
                k = len(column.values)
                n_left = np.bincount(values, minlength=k)[:k]
                nc_left = np.bincount(values[is_nc], minlength=k)[:k]
                candidates = np.arange(k)
            else:
                order = np.argsort(values, kind="stable")
                keys = values[order]
                nc_before = np.concatenate(([0], np.cumsum(is_nc[order])))
                upper = np.flatnonzero(keys[1:] != keys[:-1]) + 1
                # The midpoint of two adjacent floats can round onto the
                # larger one, so the left count comes from the threshold,
                # not from the boundary position; a sum past the float
                # range gives inf, as in Python, which splits nothing.
                with np.errstate(over="ignore"):
                    candidates = (keys[upper - 1] + keys[upper]) / 2.0
                n_left = np.searchsorted(keys, candidates, side="right")
                nc_left = nc_before[n_left]
            keep = (n_left > 0) & (n_left < total)
            if not keep.any():
                continue
            n_left, nc_left = n_left[keep], nc_left[keep]
            n_right = total - n_left
            right_nc = parent_nc - nc_left
            gains = parent_gini \
                - (n_left / total) * _gini(n_left - nc_left, nc_left) \
                - (n_right / total) * _gini(n_right - right_nc, right_nc)
            pick = int(np.argmax(gains))
            gain = float(gains[pick])
            if best is None or gain > best[0]:
                best = (gain, idx, candidates[keep][pick])

        if best is None:
            return None
        gain, idx, candidate = best
        column = self.columns[idx]
        values = self.arrays[idx][rows]
        if column.kind == CATEGORICAL:
            threshold = column.values[candidate]
            goes_left = values == candidate
        else:
            threshold = float(candidate)
            goes_left = values <= threshold
        return Split(feature_index=idx, feature_name=column.name,
                     kind=column.kind, threshold=threshold,
                     gain=gain), goes_left


def best_split(rows, columns) -> Split | None:
    """Highest-Gini-gain test over every column of (values, label) rows,
    or None if nothing splits."""
    table = _Table(columns, rows)
    found = table.best_split(table.every_row)
    return found[0] if found else None


def _grow(table, rows, depth, max_depth, min_leaf, min_gain) -> TreeNode:
    n_nc = int(table.is_nc[rows].sum())
    n_c = len(rows) - n_nc
    leaf = TreeNode(split=None, count_compliance=n_c, count_non_compliance=n_nc)
    if depth >= max_depth or len(rows) < min_leaf or n_c == 0 or n_nc == 0:
        return leaf
    found = table.best_split(rows)
    if found is None or found[0].gain < min_gain:
        return leaf
    split, goes_left = found
    return TreeNode(
        split=split,
        left=_grow(table, rows[goes_left], depth + 1, max_depth, min_leaf,
                   min_gain),
        right=_grow(table, rows[~goes_left], depth + 1, max_depth, min_leaf,
                    min_gain),
        count_compliance=n_c,
        count_non_compliance=n_nc,
    )


def induce_tree(dataset: LabeledDataset, max_depth: int = DEFAULT_MAX_DEPTH,
                min_leaf: int = DEFAULT_MIN_LEAF,
                min_gain: float = DEFAULT_MIN_GAIN) -> DecisionTree:
    if not dataset.rows:
        raise DomainError("cannot induce a tree from an empty dataset")
    n_nc = sum(label == LABEL_NON_COMPLIANCE for _, label in dataset.rows)
    if n_nc in (0, len(dataset.rows)):
        # One label: the root is a leaf, and numpy is never imported.
        root = TreeNode(split=None,
                        count_compliance=len(dataset.rows) - n_nc,
                        count_non_compliance=n_nc)
    else:
        table = _Table(dataset.columns, dataset.rows)
        root = _grow(table, table.every_row, 0, max_depth, min_leaf,
                     min_gain)
    return DecisionTree(root=root, columns=dataset.columns,
                        n_rows=len(dataset.rows), max_depth=max_depth,
                        min_leaf=min_leaf, min_gain=min_gain)


def predict(tree: DecisionTree, assignment: dict) -> float:
    """Non-compliance likelihood of the leaf the assignment falls into."""
    node = tree.root
    while not node.is_leaf:
        name = node.split.feature_name
        try:
            value = assignment[name]
        except KeyError:
            raise UnknownNameError(
                f"assignment missing feature {name!r}") from None
        node = node.left if node.split.goes_left(value) else node.right
    return node.likelihood


def tree_to_json(tree: DecisionTree) -> dict:
    def walk(node: TreeNode) -> dict:
        if node.is_leaf:
            return {
                "leaf": True,
                "count_compliance": node.count_compliance,
                "count_non_compliance": node.count_non_compliance,
                "likelihood": node.likelihood,
            }
        test = ("==" if node.split.kind == CATEGORICAL else "<=")
        return {
            "leaf": False,
            "feature": node.split.feature_name,
            "test": test,
            "threshold": node.split.threshold,
            "gain": node.split.gain,
            "left": walk(node.left),
            "right": walk(node.right),
        }

    return {
        "n_rows": tree.n_rows,
        "max_depth": tree.max_depth,
        "min_leaf": tree.min_leaf,
        "min_gain": tree.min_gain,
        "root": walk(tree.root),
    }
