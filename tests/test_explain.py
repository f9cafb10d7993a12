"""Tree induction, rule extraction, and counterexample sampling."""

import hashlib
import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskbench.errors import DomainError, EmptyRegionError
from riskbench.explain import (DEFAULT_MIN_GAIN, DEFAULT_MIN_LEAF, Constraint,
                               DecisionTree, LabeledDataset, Rule, Split,
                               TreeNode, best_split, constraint_text,
                               dataset_from_rows, estimate_event_likelihood,
                               extract_rules, generate_counterexamples,
                               induce_tree, predict, rules_report,
                               rules_to_json, tree_to_json)
from riskbench.fileio import stable_json
from riskbench.riskml import DomainFeature
from riskbench.riskml.model import CATEGORICAL, EXACT_INT
from riskbench.sim.events import LABEL_NON_COMPLIANCE
from riskbench.search.algorithms import Archive

from presort_sweep_tree import _grow as sweep_grow

C, NC = "compliance", "non_compliance"

F0 = DomainFeature(name="f0", kind="continuous", lo=0.0, hi=10.0)
F1 = DomainFeature(name="f1", kind="continuous", lo=0.0, hi=10.0)
CAT = DomainFeature(name="mode", kind="categorical", values=("a", "b", "c"))
INT = DomainFeature(name="count", kind="integer", lo=0, hi=9)


def dataset(columns, rows):
    return LabeledDataset(columns=tuple(columns), rows=tuple(rows))


# -- split selection ---------------------------------------------------------


def test_perfect_numeric_split():
    rows = [((0.0,), NC), ((1.0,), NC), ((2.0,), C), ((3.0,), C)]
    split = best_split(rows, (F0,))
    assert split.feature_index == 0
    assert split.threshold == 1.5
    assert split.gain == pytest.approx(0.5)


def test_threshold_tie_takes_the_lower():
    # Splitting after the first or before the last row is equally good by
    # symmetry; the scan keeps the lower threshold.
    rows = [((0.0,), NC), ((1.0,), C), ((2.0,), NC)]
    split = best_split(rows, (F0,))
    assert split.threshold == 0.5


def test_feature_tie_takes_the_lower_index():
    rows = [((0.0, 0.0), NC), ((1.0, 1.0), C)]
    split = best_split(rows, (F0, F1))
    assert split.feature_index == 0


def test_categorical_split_is_one_versus_rest():
    rows = [(("a",), NC), (("a",), NC), (("b",), C), (("c",), C)]
    split = best_split(rows, (CAT,))
    assert split.kind == "categorical"
    assert split.threshold == "a"
    assert split.gain == pytest.approx(0.5)


def test_no_split_when_labels_are_pure():
    rows = [((0.0,), C), ((1.0,), C)]
    assert best_split(rows, (F0,)) is None


def test_no_split_on_a_constant_column():
    rows = [((2.0,), C), ((2.0,), NC)]
    assert best_split(rows, (F0,)) is None


def test_an_integer_a_float_cannot_hold_is_refused():
    big = DomainFeature(name="n", kind="integer", lo=0, hi=2 ** 60)
    # A dataset of one label is packed, and refused, as one of two is.
    for last in (NC, C):
        rows = [((EXACT_INT,), C), ((EXACT_INT + 1,), last)]
        with pytest.raises(DomainError, match="beyond 2\\^53"):
            induce_tree(dataset((big,), rows))


def test_an_integer_past_the_float_range_is_refused():
    rows = [((0.5,), C), ((10 ** 400,), NC)]
    with pytest.raises(DomainError, match="'f0' holds a value beyond the "
                                          "float range"):
        induce_tree(dataset((F0,), rows))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_value_is_refused(value):
    # NaN fails every `<=` test, and a midpoint next to ±inf is ±inf: no
    # threshold test places such rows.
    rows = [((float(i),), NC if i > 4 else C) for i in range(8)]
    rows += [((value,), C), ((value,), NC)]
    with pytest.raises(DomainError, match="'f0' holds a non-finite value"):
        induce_tree(dataset((F0,), rows))


# -- tree induction ------------------------------------------------------------


def _blocky(n=40):
    # f0 <= 5 is compliant, above is not; f1 is noise that never helps.
    rows = []
    for i in range(n):
        x = 10.0 * i / (n - 1)
        rows.append(((x, (i * 7) % 10 / 1.0), NC if x > 5.0 else C))
    return dataset((F0, F1), rows)


def test_tree_learns_the_block():
    tree = induce_tree(_blocky())
    assert tree.root.split.feature_name == "f0"
    assert predict(tree, {"f0": 9.0, "f1": 3.0}) == 1.0
    assert predict(tree, {"f0": 1.0, "f1": 3.0}) == 0.0


def test_depth_zero_is_a_leaf():
    tree = induce_tree(_blocky(), max_depth=0)
    assert tree.root.split is None
    assert predict(tree, {"f0": 9.0, "f1": 0.0}) == pytest.approx(0.5)


def test_min_gain_can_freeze_the_root():
    tree = induce_tree(_blocky(), min_gain=0.9)
    assert tree.root.split is None


def test_small_nodes_are_not_split():
    rows = [((0.0,), NC), ((1.0,), C), ((2.0,), NC)]
    tree = induce_tree(dataset((F0,), rows), min_leaf=4)
    assert tree.root.split is None


@given(st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
              st.integers(min_value=0, max_value=9),
              st.sampled_from([C, NC])),
    min_size=1, max_size=30))
def test_leaf_counts_partition_the_rows(raw):
    rows = [((x, float(n)), label) for x, n, label in raw]
    tree = induce_tree(dataset((F0, F1), rows), min_leaf=2, min_gain=0.0)

    def leaves(node):
        if node.split is None:
            return [node]
        return leaves(node.left) + leaves(node.right)

    total = sum(n.count_compliance + n.count_non_compliance
                for n in leaves(tree.root))
    assert total == len(rows)
    # Every row routes to some leaf and gets a sane likelihood.
    for (x, f1), _ in rows:
        assert 0.0 <= predict(tree, {"f0": x, "f1": f1}) <= 1.0


def test_tree_json_shape():
    doc = tree_to_json(induce_tree(_blocky()))
    assert doc["n_rows"] == 40
    root = doc["root"]
    assert not root["leaf"]
    assert root["feature"] == "f0"
    assert root["test"] == "<="
    assert root["left"]["leaf"] and root["right"]["leaf"]


# -- whole trees against a rescanning oracle -----------------------------------


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


def oracle_best_split(rows, columns) -> Split | None:
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
            candidates = column.values
        else:
            values = sorted({values[idx] for values, _ in rows})
            candidates = [(a + b) / 2.0 for a, b in zip(values, values[1:])]
        for candidate in candidates:
            left_c = left_nc = right_c = right_nc = 0
            for values, label in rows:
                if column.kind == CATEGORICAL:
                    goes_left = values[idx] == candidate
                else:
                    goes_left = values[idx] <= candidate
                if goes_left:
                    if label == LABEL_NON_COMPLIANCE:
                        left_nc += 1
                    else:
                        left_c += 1
                else:
                    if label == LABEL_NON_COMPLIANCE:
                        right_nc += 1
                    else:
                        right_c += 1
            n_left = left_c + left_nc
            n_right = right_c + right_nc
            if n_left == 0 or n_right == 0:
                continue
            gain = parent_gini \
                - (n_left / total) * _gini(left_c, left_nc) \
                - (n_right / total) * _gini(right_c, right_nc)
            if best is None or gain > best.gain:
                best = Split(feature_index=idx, feature_name=column.name,
                             kind=column.kind, threshold=candidate, gain=gain)
    return best


def oracle_grow(rows, columns, depth, max_depth, min_leaf, min_gain):
    n_c, n_nc = _counts(rows)
    leaf = TreeNode(split=None, count_compliance=n_c, count_non_compliance=n_nc)
    if depth >= max_depth or len(rows) < min_leaf or n_c == 0 or n_nc == 0:
        return leaf
    split = oracle_best_split(rows, columns)
    if split is None or split.gain < min_gain:
        return leaf
    idx = split.feature_index
    left = [row for row in rows if split.goes_left(row[0][idx])]
    right = [row for row in rows if not split.goes_left(row[0][idx])]
    return TreeNode(
        split=split,
        left=oracle_grow(left, columns, depth + 1, max_depth, min_leaf,
                         min_gain),
        right=oracle_grow(right, columns, depth + 1, max_depth, min_leaf,
                          min_gain),
        count_compliance=n_c, count_non_compliance=n_nc)


# Consecutive floats: the midpoint of two of them rounds onto one of the
# pair, so a threshold can land on the larger value.
ADJACENT = [1.0]
for _ in range(3):
    ADJACENT.append(math.nextafter(ADJACENT[-1], 2.0))


# Scales of continuous columns: tiny, unit, wide, and the whole float
# range, where the sum of two values can overflow and their midpoint is
# inf.
SCALES = [1e-300, 10.0, 1e300, sys.float_info.max]
# Lowest values of integer columns: small, and runs from -2^53 up and up
# to 2^53, the extreme integers a float64 holds exactly, where the
# midpoint of two neighbours rounds onto one of them.
INTEGER_LOWS = [0, -EXACT_INT, EXACT_INT - 20]


def mixed_dataset(rng, kinds, n_rows, distinct, noise):
    """Continuous, integer and categorical columns with heavy duplicates
    and label ties: `distinct` values per continuous column besides
    ±0.0, adjacent floats and the column's scale, up to 21 per integer
    column, 3 of 4 declared categories. The label follows the first column,
    flipped with probability `noise`."""
    columns, pools = [], []
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            columns.append(DomainFeature(name=f"f{j}", kind=kind,
                                         values=("a", "b", "c", "d")))
            pools.append(["a", "b", "c"])
        elif kind == "integer":
            lo = rng.choice(INTEGER_LOWS)
            columns.append(DomainFeature(name=f"f{j}", kind=kind,
                                         lo=lo, hi=lo + 20))
            pools.append([lo + 20] + list(range(lo, lo + min(distinct, 21))))
        else:
            scale = rng.choice(SCALES)
            columns.append(DomainFeature(name=f"f{j}", kind=kind,
                                         lo=-scale, hi=scale))
            pools.append(
                [0.0, -0.0, scale, math.nextafter(scale, 0.0)]
                + [x for x in ADJACENT if x <= scale]
                + [scale * (2.0 * rng.random() - 1.0)
                   for _ in range(distinct)])
    first_cut = sorted(pools[0])[len(pools[0]) // 2]
    rows = []
    for _ in range(n_rows):
        values = tuple(rng.choice(pool) for pool in pools)
        first = values[0]
        bad = (first in ("a", "b") if isinstance(first, str)
               else first > first_cut)
        if rng.random() < noise:
            bad = not bad
        rows.append((values, NC if bad else C))
    return dataset(columns, rows)


KINDS = ["continuous", "integer", "categorical"]


@st.composite
def mixed_datasets(draw):
    """`mixed_dataset`s of up to 300 rows, drawn from a seeded generator so
    that they can number in the hundreds."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    n_rows = draw(st.integers(min_value=1, max_value=300))
    distinct = draw(st.integers(min_value=1, max_value=40))
    noise = draw(st.floats(min_value=0.0, max_value=0.5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return mixed_dataset(rng, kinds, n_rows, distinct, noise)


@pytest.mark.parametrize("min_leaf, min_gain", [
    (DEFAULT_MIN_LEAF, DEFAULT_MIN_GAIN), (2, 0.0)])
@given(ds=mixed_datasets())
def test_tree_equals_the_rescanning_oracle(ds, min_leaf, min_gain):
    tree = induce_tree(ds, min_leaf=min_leaf, min_gain=min_gain)
    root = oracle_grow(list(ds.rows), ds.columns, 0, tree.max_depth,
                       min_leaf, min_gain)
    oracle = DecisionTree(root=root, columns=ds.columns, n_rows=len(ds.rows),
                          max_depth=tree.max_depth, min_leaf=min_leaf,
                          min_gain=min_gain)
    assert stable_json(tree_to_json(tree)) == \
        stable_json(tree_to_json(oracle))


@pytest.mark.parametrize("seed", range(4))
def test_tree_equals_the_presort_sweep_on_2000_rows(seed):
    # The rescanning oracle is too slow at this size; the sort-and-sweep
    # over row tuples is not.
    rng = random.Random(seed)
    kinds = [rng.choice(KINDS) for _ in range(rng.randint(3, 6))]
    ds = mixed_dataset(rng, kinds, 2000, rng.randint(20, 400),
                       rng.uniform(0.0, 0.3))
    for min_leaf, min_gain in [(DEFAULT_MIN_LEAF, DEFAULT_MIN_GAIN), (2, 0.0)]:
        tree = induce_tree(ds, min_leaf=min_leaf, min_gain=min_gain)
        root = sweep_grow(list(ds.rows), ds.columns, 0, tree.max_depth,
                          min_leaf, min_gain)
        assert stable_json(tree_to_json(tree)) == stable_json(tree_to_json(
            DecisionTree(root=root, columns=ds.columns, n_rows=len(ds.rows),
                         max_depth=tree.max_depth, min_leaf=min_leaf,
                         min_gain=min_gain)))


# -- rules ---------------------------------------------------------------------


def test_rule_extraction_bounds_the_block():
    tree = induce_tree(_blocky())
    rules = extract_rules(tree, 0.5)
    assert len(rules) == 1
    rule = rules[0]
    assert rule.id == 1
    assert rule.likelihood == 1.0
    constraint = rule.constraint_for("f0")
    assert constraint.lo_strict
    assert 4.0 < constraint.lo < 6.0
    assert constraint.hi == 10.0
    assert rule.satisfied_by({"f0": 7.0, "f1": 0.0})
    assert not rule.satisfied_by({"f0": 2.0, "f1": 0.0})


def test_rules_order_by_likelihood_then_support():
    rows = ([((1.0, 0.0), NC)] * 6          # pure block, support 6
            + [((9.0, 0.0), NC)] * 3        # pure block, support 3
            + [((5.0, 0.0), C)] * 4)
    tree = induce_tree(dataset((F0, F1), rows), min_leaf=2)
    rules = extract_rules(tree, 0.5)
    ranked = [(r.likelihood, r.support) for r in rules]
    assert ranked == sorted(ranked, key=lambda t: (-t[0], -t[1]))
    assert [r.id for r in rules] == list(range(1, len(rules) + 1))
    assert rules[0].support >= rules[-1].support


def test_higher_threshold_keeps_fewer_rules():
    archive_like = _blocky()
    noisy = dataset(archive_like.columns,
                    archive_like.rows + (((9.5, 1.0), C),) * 3)
    tree = induce_tree(noisy, min_leaf=2)
    loose = extract_rules(tree, 0.2)
    tight = extract_rules(tree, 0.95)
    assert len(tight) <= len(loose)
    tight_keys = {r.constraints for r in tight}
    loose_keys = {r.constraints for r in loose}
    assert tight_keys <= loose_keys


def test_threshold_domain_checked():
    tree = induce_tree(_blocky())
    with pytest.raises(DomainError):
        extract_rules(tree, 1.5)


def test_rules_report_format():
    tree = induce_tree(_blocky())
    text = rules_report(extract_rules(tree, 0.5), algorithm="random")
    lines = text.strip().split("\n")
    assert lines[0].startswith("# archive produced by random search")
    assert lines[1].startswith("rule #1: f0 in (")
    assert lines[1].endswith("likelihood 1.000, support 20")
    assert "no rules met" in rules_report([])


def test_rules_json_shape():
    tree = induce_tree(_blocky())
    doc = rules_to_json(extract_rules(tree, 0.5))
    rule = doc["rules"][0]
    assert rule["id"] == 1
    assert rule["constraints"][0]["feature"] == "f0"
    assert set(rule) == {"id", "constraints", "likelihood", "support"}


def test_constraint_text_brackets_follow_strictness():
    strict = Constraint(feature="x", kind="continuous", lo=1.0, hi=2.0,
                        lo_strict=True)
    closed = Constraint(feature="x", kind="continuous", lo=1.0, hi=2.0)
    assert constraint_text(strict) == "x in (1, 2]"
    assert constraint_text(closed) == "x in [1, 2]"
    cat = Constraint(feature="mode", kind="categorical", values=("a", "b"))
    assert constraint_text(cat) == "mode in {a, b}"


def _sweep_dataset(rng):
    """1-4 columns of any kind whose values include the domain bounds, and
    rows whose labels follow the first column, with some noise."""
    columns, pools = [], []
    for j in range(rng.randint(1, 4)):
        kind = rng.choice(["continuous", "integer", "categorical"])
        if kind == "categorical":
            values = ("a", "b", "c", "d")[:rng.randint(2, 4)]
            columns.append(DomainFeature(name=f"f{j}", kind=kind,
                                         values=values))
            pools.append(list(values))
        elif kind == "integer":
            columns.append(DomainFeature(name=f"f{j}", kind=kind,
                                         lo=-3, hi=9))
            pools.append([-3, 9] + [rng.randint(-3, 9) for _ in range(6)])
        else:
            columns.append(DomainFeature(name=f"f{j}", kind=kind,
                                         lo=-1.0, hi=4.0))
            # The midpoint of the last two rounds onto the upper bound.
            pools.append([-1.0, math.nextafter(4.0, 0.0), 4.0]
                         + [rng.uniform(-1.0, 4.0) for _ in range(8)])
    rows = []
    for _ in range(rng.randint(4, 60)):
        values = tuple(rng.choice(pool) for pool in pools)
        first = values[0]
        bad = (first in ("a", "c") if isinstance(first, str)
               else first > 1.5)
        if rng.random() < 0.2:
            bad = not bad
        rows.append((values, NC if bad else C))
    return dataset(columns, rows)


# Frozen from a seeded sweep: every leaf of 500 random trees becomes a
# rule (threshold 0), so each path's tests, right-branch strictness and
# bounds on the domain edges included, reach the digest.
_RULES_SHA256 = \
    "705bc89dceb16143271ef2b9e9740651ebdfc6125240a227a577837640e0b48f"


def test_a_random_dataset_sweep_reproduces_its_rules_digest():
    digest = hashlib.sha256()
    rng = random.Random(7)
    for _ in range(500):
        ds = _sweep_dataset(rng)
        tree = induce_tree(ds, min_leaf=rng.choice([2, 5]), min_gain=0.0)
        digest.update(stable_json(rules_to_json(extract_rules(tree, 0.0)))
                      .encode())
    assert digest.hexdigest() == _RULES_SHA256


# -- counterexamples ------------------------------------------------------------


MIXED_SPACE = (F0, INT, CAT)


def _rule(*constraints, id=1):
    return Rule(id=id, constraints=tuple(constraints), likelihood=1.0,
                support=5)


def test_counterexamples_stay_inside_the_rule():
    rule = _rule(
        Constraint(feature="f0", kind="continuous", lo=2.0, hi=4.0,
                   lo_strict=True),
        Constraint(feature="count", kind="integer", lo=3.0, hi=6.0),
        Constraint(feature="mode", kind="categorical", values=("b", "c")))
    batch = generate_counterexamples(rule, MIXED_SPACE, 20, seed=9)
    assert len(batch) == 20
    for a in batch:
        assert rule.satisfied_by(a)
        assert 2.0 < a["f0"] <= 4.0
        assert isinstance(a["count"], int) and 3 <= a["count"] <= 6
        assert a["mode"] in ("b", "c")


def test_counterexamples_are_seeded():
    rule = _rule(Constraint(feature="f0", kind="continuous", lo=0.0, hi=5.0))
    one = generate_counterexamples(rule, MIXED_SPACE, 5, seed=3)
    two = generate_counterexamples(rule, MIXED_SPACE, 5, seed=3)
    other = generate_counterexamples(rule, MIXED_SPACE, 5, seed=4)
    assert one == two
    assert one != other


def test_unconstrained_features_sample_their_whole_domain():
    rule = _rule(Constraint(feature="mode", kind="categorical",
                            values=("a",)))
    batch = generate_counterexamples(rule, MIXED_SPACE, 30, seed=1)
    assert {a["mode"] for a in batch} == {"a"}
    assert {a["count"] for a in batch} > {0}


def test_empty_regions_are_reported():
    impossible = _rule(Constraint(feature="f0", kind="continuous",
                                  lo=7.0, hi=3.0))
    with pytest.raises(EmptyRegionError, match="no volume"):
        generate_counterexamples(impossible, MIXED_SPACE, 5, seed=0)
    no_integer = _rule(Constraint(feature="count", kind="integer",
                                  lo=4.2, hi=4.8))
    with pytest.raises(EmptyRegionError, match="no integer"):
        generate_counterexamples(no_integer, MIXED_SPACE, 5, seed=0)
    no_category = _rule(Constraint(feature="mode", kind="categorical",
                                   values=("z",)))
    with pytest.raises(EmptyRegionError, match="category"):
        generate_counterexamples(no_category, MIXED_SPACE, 5, seed=0)


def test_negative_sample_count_rejected():
    rule = _rule(Constraint(feature="f0", kind="continuous", lo=0.0, hi=1.0))
    with pytest.raises(DomainError):
        generate_counterexamples(rule, MIXED_SPACE, -1, seed=0)


# -- dataset plumbing -------------------------------------------------------------


def test_dataset_from_rows_requires_rows():
    with pytest.raises(DomainError):
        dataset_from_rows((F0,), Archive().points)


def test_likelihood_estimate_is_the_label_fraction():
    ds = dataset((F0,), [((1.0,), NC), ((2.0,), C), ((3.0,), NC),
                         ((4.0,), NC)])
    assert estimate_event_likelihood(ds) == (0.75, 4)
