"""CART-style decision tree over labeled feature assignments.

Binary splits chosen by Gini impurity decrease. Numeric tests are
`value <= threshold` with thresholds at midpoints between consecutive
distinct values; categorical tests are one-vs-rest (`value == category`).
Ties break toward the lower feature index, then the lower threshold (for
categoricals: the earlier declared category). No pruning; growth stops on
depth, node size, purity, or a gain floor.

Split search sorts and sweeps, as in CART (Breiman et al., 1984), in
plain Python. The dataset is packed once: a list of floats per numeric
column, category codes per categorical column, a flag per row for the
non-compliant label. Per node, each numeric column's rows are sorted by
value and swept with cumulative class counts, each categorical column is
counted, and every candidate's gain is computed inline, so a node with n
rows and d columns costs O(d·n log n), the sort running in C.

The search uses only +, -, ×, ÷ and comparisons on doubles, and
evaluates the gain in one fixed order, so the trees equal bit for bit
those of the sweep over Python row tuples and of the rescanning search
kept as test oracles. An integer value is exact in a double only within
±2^53, so a larger one is refused; so is a NaN or infinite value, which
no threshold test can place.

`explain` needs only the standard library here: on archives of up to a
few thousand rows the sweep costs less than importing numpy does, and
above about 5000 rows an array search would be the faster one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

from ..errors import DomainError, UnknownNameError
from ..record import Record
from ..riskml.model import CATEGORICAL, EXACT_INT, INTEGER
from ..sim.events import LABEL_NON_COMPLIANCE
from .dataset import LabeledDataset

DEFAULT_MAX_DEPTH = 6
DEFAULT_MIN_LEAF = 5
DEFAULT_MIN_GAIN = 1e-6


class Split(Record):
    feature_index: int
    feature_name: str
    kind: str
    threshold: object         # number for numeric, category for categorical
    gain: float

    def goes_left(self, value) -> bool:
        if self.kind == CATEGORICAL:
            return value == self.threshold
        return value <= self.threshold


class TreeNode(Record):
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


class DecisionTree(Record):
    root: TreeNode
    columns: tuple
    n_rows: int
    max_depth: int
    min_leaf: int
    min_gain: float


def _gini(n_compliance, n_non_compliance):
    """Gini impurity of a nonempty node."""
    total = n_compliance + n_non_compliance
    p_c = n_compliance / total
    p_nc = n_non_compliance / total
    return 1.0 - p_c * p_c - p_nc * p_nc


class _Table:
    """A dataset packed for the split search: per column a list of floats
    (numeric) or of the index of each value in the declared categories
    (categorical; an undeclared value gets the index past the last), and
    a list that marks the non-compliant rows."""

    def __init__(self, columns, rows):
        self.columns = columns
        self.values = []
        for idx, column in enumerate(columns):
            cells = [values[idx] for values, _ in rows]
            if column.kind == CATEGORICAL:
                code = {}
                for i, category in enumerate(column.values):
                    code.setdefault(category, i)
                other = len(column.values)
                self.values.append([code.get(cell, other) for cell in cells])
                continue
            if column.kind == INTEGER and cells and (
                    min(cells) < -EXACT_INT or max(cells) > EXACT_INT):
                raise DomainError(f"feature {column.name!r} holds an integer "
                                  f"beyond 2^53 in magnitude")
            try:
                floats = list(map(float, cells))
            except OverflowError:  # an int past the largest float
                raise DomainError(f"feature {column.name!r} holds a value "
                                  f"beyond the float range") from None
            if not all(map(math.isfinite, floats)):
                raise DomainError(f"feature {column.name!r} holds a "
                                  f"non-finite value")
            self.values.append(floats)
        self.is_nc = [label == LABEL_NON_COMPLIANCE for _, label in rows]

    def _candidates(self, idx, rows):
        """(candidate, n_left, nc_left) of each test on one column, in
        scanning order; left is `value <= candidate` (numeric) or
        `code == candidate` (categorical)."""
        values, is_nc = self.values[idx], self.is_nc
        if self.columns[idx].kind == CATEGORICAL:
            k = len(self.columns[idx].values)
            n_left, nc_left = [0] * (k + 1), [0] * (k + 1)
            for i in rows:
                n_left[values[i]] += 1
                nc_left[values[i]] += is_nc[i]
            return zip(range(k), n_left, nc_left)
        # How equal values order among themselves does not matter: tests sit
        # only between distinct values.
        order = sorted(rows, key=values.__getitem__)
        keys = [values[i] for i in order]
        nc_before = list(accumulate(map(is_nc.__getitem__, order), initial=0))
        found = []
        for n_left in range(1, len(keys)):
            a, b = keys[n_left - 1], keys[n_left]
            if a == b:
                continue
            # The midpoint of two adjacent floats can round onto the larger
            # one, and a sum past the float range gives ±inf, so the left
            # count comes from the threshold, not from the boundary.
            candidate = (a + b) / 2.0
            if not a <= candidate < b:
                n_left = bisect_right(keys, candidate)
            found.append((candidate, n_left, nc_before[n_left]))
        return found

    def best_split(self, rows, parent_nc):
        """(split, rows it sends left, the other rows) of the
        highest-Gini-gain test over every column of the node's rows, or
        None if nothing splits.

        Candidates are scanned by feature index and then ascending, and the
        first of equal gains is kept, which yields the documented
        tie-breaking.
        """
        total = len(rows)
        if parent_nc in (0, total):     # one label, or no row
            return None
        parent_gini = _gini(total - parent_nc, parent_nc)
        best_gain, best = -math.inf, None
        for idx in range(len(self.columns)):
            for candidate, n_left, nc_left in self._candidates(idx, rows):
                n_right = total - n_left
                if n_left == 0 or n_right == 0:
                    continue
                # _gini of each side, inline (two calls per candidate would
                # show in the search time) and in the same order.
                right_nc = parent_nc - nc_left
                p_c = (n_left - nc_left) / n_left
                p_nc = nc_left / n_left
                q_c = (n_right - right_nc) / n_right
                q_nc = right_nc / n_right
                gain = parent_gini \
                    - (n_left / total) * (1.0 - p_c * p_c - p_nc * p_nc) \
                    - (n_right / total) * (1.0 - q_c * q_c - q_nc * q_nc)
                if gain > best_gain:
                    best_gain, best = gain, (idx, candidate)
        if best is None:
            return None
        idx, candidate = best
        column, values = self.columns[idx], self.values[idx]
        categorical = column.kind == CATEGORICAL
        left, right = [], []
        for i in rows:
            if values[i] == candidate if categorical else values[i] <= candidate:
                left.append(i)
            else:
                right.append(i)
        threshold = column.values[candidate] if categorical else candidate
        return Split(feature_index=idx, feature_name=column.name,
                     kind=column.kind, threshold=threshold,
                     gain=best_gain), left, right


def best_split(rows, columns) -> Split | None:
    """Highest-Gini-gain test over every column of (values, label) rows,
    or None if nothing splits."""
    table = _Table(columns, rows)
    found = table.best_split(range(len(rows)), sum(table.is_nc))
    return found[0] if found else None


def _grow(table, rows, depth, max_depth, min_leaf, min_gain) -> TreeNode:
    n_nc = sum(map(table.is_nc.__getitem__, rows))
    n_c = len(rows) - n_nc
    leaf = TreeNode(split=None, count_compliance=n_c, count_non_compliance=n_nc)
    if depth >= max_depth or len(rows) < min_leaf or n_c == 0 or n_nc == 0:
        return leaf
    found = table.best_split(rows, n_nc)
    if found is None or found[0].gain < min_gain:
        return leaf
    split, left, right = found
    return TreeNode(
        split=split,
        left=_grow(table, left, depth + 1, max_depth, min_leaf, min_gain),
        right=_grow(table, right, depth + 1, max_depth, min_leaf, min_gain),
        count_compliance=n_c,
        count_non_compliance=n_nc,
    )


def induce_tree(dataset: LabeledDataset, max_depth: int = DEFAULT_MAX_DEPTH,
                min_leaf: int = DEFAULT_MIN_LEAF,
                min_gain: float = DEFAULT_MIN_GAIN) -> DecisionTree:
    if not dataset.rows:
        raise DomainError("cannot induce a tree from an empty dataset")
    table = _Table(dataset.columns, dataset.rows)
    root = _grow(table, range(len(dataset.rows)), 0, max_depth, min_leaf,
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
