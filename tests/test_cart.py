"""Decision tree tests.

The centerpiece is the oracle loop: random small datasets grown by the
package and by an exhaustive Fraction-arithmetic reference must agree on
the entire tree structure, thresholds included. Everything else is
targeted examples for the split rules, stopping rules, prediction
semantics, and serialization.
"""

import math

import numpy as np
import pytest

from oracles import leaf, oracle_grow, split, tree_as_tuple, tree_from_tuple
from smerisk.cart import (
    TreeParams,
    best_split,
    gini_impurity,
    grow_tree_arrays,
    grow_trees,
    predict_proba,
    tree_from_json_dict,
    tree_to_json_dict,
)
from smerisk.errors import ModelFormatError, ParameterError
from smerisk.logit import to_labels
from smerisk.seeding import substream
from smerisk.serialize import from_json_dict, to_json_dict


def grow(X, y, **params):
    rng = substream(0, 0)
    return grow_tree_arrays(
        np.asarray(X, dtype=float),
        np.asarray(y, dtype=np.int64),
        TreeParams(**params),
        rng,
    )


def grow_shape(X, y, **params):
    return tree_as_tuple(grow(X, y, **params))


def depth(shape):
    """Depth of a tree in tuple shape, leaves at 0."""
    deepest, stack = 0, [(shape, 0)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if node[0] == "node":
            stack += [(node[3], d + 1), (node[4], d + 1)]
    return deepest


# impurity


def test_gini_examples():
    assert gini_impurity(2, 2) == 0.5
    assert gini_impurity(4, 0) == 0.0
    assert gini_impurity(0, 7) == 0.0
    assert gini_impurity(3, 1) == 0.375


def test_gini_empty_counts_rejected():
    with pytest.raises(ParameterError):
        gini_impurity(0, 0)


# node values, checked where a tree is read (a model file's bad values exit
# 3 through the CLI, see test_cli's MODEL_MUTATIONS)


def assert_rejected(node):
    with pytest.raises(ModelFormatError) as info:
        tree_from_tuple(node)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("counts", [(0, 0), (-1, 2), (2, -1), (True, 1), (1.0, 1), (1, "2"), (2**53 + 1, 0)])
def test_leaf_validation(counts):
    assert_rejected(leaf(*counts))
    assert_rejected(split(0, 0.5, leaf(1, 0), leaf(*counts)))  # deeper in the tree
    assert tree_from_tuple(leaf(2**53, 0)).count_0.tolist() == [2**53]


@pytest.mark.parametrize(
    "feature, threshold", [(6, 0.5), (-1, 0.5), (True, 0.5), (1.0, 0.5), (0, math.nan), (0, math.inf)]
)
def test_internal_validation(feature, threshold):
    assert_rejected(split(feature, threshold, leaf(1, 0), leaf(0, 1)))
    assert_rejected(split(0, 0.5, leaf(1, 0), split(feature, threshold, leaf(1, 0), leaf(0, 1))))
    assert tree_from_tuple(split(5, -1e300, leaf(1, 0), leaf(0, 1))).feature.tolist() == [5, -1, -1]


# split search


def test_best_split_separable_column():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    feature, threshold, weighted = best_split(X, y, np.array([0]))
    assert feature == 0
    assert threshold == 2.5
    assert weighted == 0.0


def test_best_split_pure_node_none():
    X = np.array([[1.0], [2.0], [3.0]])
    assert best_split(X, np.array([1, 1, 1]), np.array([0])) is None


def test_best_split_constant_feature_none():
    X = np.ones((6, 1))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert best_split(X, y, np.array([0])) is None


def test_best_split_xor_no_improvement():
    # No single axis-aligned cut improves on the parent impurity.
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    assert best_split(X, y, np.array([0, 1])) is None


def test_best_split_tie_prefers_lower_feature():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    X = np.hstack([X, X])  # identical columns, identical scores
    y = np.array([0, 0, 1, 1])
    feature, threshold, _ = best_split(X, y, np.array([0, 1]))
    assert feature == 0
    assert threshold == 2.5


def test_best_split_tie_prefers_lower_threshold():
    # Cuts at 1.5 and 3.5 both reach weighted impurity 1/3; the lower wins.
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([1, 0, 0, 1])
    feature, threshold, weighted = best_split(X, y, np.array([0]))
    assert feature == 0
    assert threshold == 1.5
    assert weighted == pytest.approx(1.0 / 3.0)


def test_best_split_respects_candidate_subset():
    X = np.array([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0], [4.0, 6.0]])
    y = np.array([0, 0, 1, 1])
    feature, threshold, _ = best_split(X, y, np.array([1]))
    assert feature == 1
    assert threshold == 7.5


@pytest.mark.parametrize(
    "a, b",
    [
        (np.nextafter(1.0, 0.0), 1.0),  # midpoint rounds up onto b: fallback fires
        (1.0, np.nextafter(1.0, 2.0)),  # midpoint rounds down onto a already
    ],
)
def test_midpoint_never_lands_on_right_value(a, b):
    # Adjacent floats: a midpoint that rounds onto the right value would
    # misroute it, so the threshold must collapse to the left one.
    X = np.array([[a], [b]])
    y = np.array([0, 1])
    feature, threshold, _ = best_split(X, y, np.array([0]))
    assert threshold == a
    assert a <= threshold < b


@pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
def test_signed_zeros_tie_and_the_last_in_row_order_sets_the_sign(zeros):
    # -0.0 and 0.0 are one value; the midpoint up to +inf rounds onto inf,
    # so the threshold falls back to the last zero in the rows' order
    X = np.array([[zeros[0]], [zeros[1]], [np.inf]])
    feature, threshold, _ = best_split(X, np.array([0, 0, 1]), np.array([0]))
    assert (feature, threshold) == (0, 0.0)
    assert math.copysign(1.0, threshold) == math.copysign(1.0, zeros[1])


# growth and stopping rules


def test_grow_pure_leaf():
    assert grow_shape([[1.0], [2.0]], [1, 1]) == leaf(0, 2)


def test_grow_separable_tree_shape():
    tree = grow([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    assert tree_as_tuple(tree) == split(0, 2.5, leaf(2, 0), leaf(0, 2))
    # the node arrays themselves: left child i + 1, a leaf has feature -1
    # and threshold 0, a split zero counts
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold.tolist() == [2.5, 0.0, 0.0]
    assert tree.right.tolist() == [2, -1, -1]
    assert (tree.count_0.tolist(), tree.count_1.tolist()) == ([0, 2, 0], [0, 0, 2])
    with pytest.raises(ValueError):
        tree.feature[0] = 1  # read-only


def test_grow_splits_adjacent_floats_at_the_left_value():
    # the midpoint rounds up onto the right value, so the split falls back
    # to the left one and each child still gets its own row
    a, b = np.nextafter(1.0, 0.0), 1.0
    assert grow_shape([[b], [a], [b], [a]], [1, 0, 1, 0]) == split(0, a, leaf(2, 0), leaf(0, 2))


def test_grow_min_samples_split_stops():
    assert grow_shape([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1], min_samples_split=5) == leaf(2, 2)


def test_grow_max_depth_stops():
    shape = grow_shape([[1.0], [2.0], [3.0], [4.0]], [0, 1, 1, 0], max_depth=1)
    assert shape[0] == "node" and shape[3][0] == shape[4][0] == "leaf"
    assert depth(shape) == 1
    assert depth(grow_shape([[1.0], [2.0], [3.0], [4.0]], [0, 1, 1, 0])) > 1


def test_grow_xor_single_leaf():
    assert grow_shape([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1, 0]) == leaf(2, 2)


def test_grow_validates_inputs():
    rng = substream(0, 0)
    with pytest.raises(ParameterError):
        grow_tree_arrays(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), TreeParams(), rng)
    with pytest.raises(ParameterError):
        grow_tree_arrays(np.zeros((3, 2)), np.array([0, 1, 2]), TreeParams(), rng)
    with pytest.raises(ParameterError):
        grow_tree_arrays(np.zeros((3, 2)), np.array([0, 1]), TreeParams(), rng)


def test_training_accuracy_perfect_on_distinct_rows():
    rng = np.random.default_rng(77)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, size=60).astype(np.int64)
    node = grow(X, y)
    predictions = to_labels(predict_proba(node, X))
    assert np.array_equal(predictions, y)


def test_monotone_transform_invariance():
    # Cubing a feature preserves order, so structure and predictions on
    # correspondingly transformed inputs must match.
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40).astype(np.int64)
    node_a = grow(X, y)
    X2 = X.copy()
    X2[:, 1] = X2[:, 1] ** 3
    node_b = grow(X2, y)
    assert np.array_equal(predict_proba(node_a, X), predict_proba(node_b, X2))


def test_split_always_reduces_weighted_impurity():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(120, 4))
    y = (rng.random(120) < 0.4).astype(np.int64)
    root = grow_shape(X, y)

    def counts(n):
        if n[0] == "leaf":
            return n[1:]
        lc = counts(n[3])
        rc = counts(n[4])
        return (lc[0] + rc[0], lc[1] + rc[1])

    def walk(n):
        if n[0] == "leaf":
            return
        c = counts(n)
        lc, rc = counts(n[3]), counts(n[4])
        nl, nr = sum(lc), sum(rc)
        parent = gini_impurity(*c)
        children = (nl * gini_impurity(*lc) + nr * gini_impurity(*rc)) / (nl + nr)
        assert children < parent
        walk(n[3])
        walk(n[4])

    walk(root)


def test_grow_deterministic():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(80, 5))
    y = rng.integers(0, 2, size=80).astype(np.int64)
    a = grow_tree_arrays(X, y, TreeParams(features_per_split=2), substream(4, 0))
    b = grow_tree_arrays(X, y, TreeParams(features_per_split=2), substream(4, 0))
    assert tree_as_tuple(a) == tree_as_tuple(b)


def test_grow_tree_from_dataset(strong_split):
    train, test = strong_split
    node = grow_tree_arrays(train.feature_matrix(), train.labels(), TreeParams(max_depth=4), substream(1, 0))
    hits = int((to_labels(predict_proba(node, test.feature_matrix())) == test.labels()).sum())
    assert hits / len(test) > 0.5


# oracle loop


def test_matches_bruteforce_oracle_small_instances():
    rng = np.random.default_rng(2024)
    for trial in range(40):
        n = int(rng.integers(4, 51))
        X = rng.uniform(-2.0, 2.0, size=(n, 4))
        if trial % 2 == 1:
            X = np.round(X, 1)  # force duplicate values and threshold ties
        y = rng.integers(0, 2, size=n).astype(np.int64)
        node = grow_tree_arrays(X, y, TreeParams(features_per_split=4), substream(0, trial))
        expected = oracle_grow([tuple(r) for r in X], [int(v) for v in y])
        assert tree_as_tuple(node) == expected, f"trial {trial}"



def test_lockstep_trees_match_bruteforce_oracle():
    # up to 8 small instances stacked into one matrix and grown together,
    # one tree per instance: a step's segments then run across the nodes
    # of different trees, which one-tree growth never puts side by side
    rng = np.random.default_rng(2025)
    for trial in range(25):
        instances = []
        for _ in range(int(rng.integers(1, 9))):
            n = int(rng.integers(4, 51))
            X = rng.uniform(-2.0, 2.0, size=(n, 4))
            if len(instances) % 2 == 1:
                X = np.round(X, 1)  # force duplicate values and threshold ties
            instances.append((X, rng.integers(0, 2, size=n).astype(np.int64)))
        starts = np.cumsum([0] + [len(y) for _, y in instances])
        jobs = [(np.arange(a, b), substream(trial, t)) for t, (a, b) in enumerate(zip(starts, starts[1:]))]
        X = np.concatenate([X for X, _ in instances])
        y = np.concatenate([y for _, y in instances])
        trees = grow_trees(X, y, jobs, TreeParams(features_per_split=4))
        assert len(trees) == len(instances)
        for t, (tree, (X, y)) in enumerate(zip(trees, instances)):
            expected = oracle_grow([tuple(r) for r in X], [int(v) for v in y])
            assert tree_as_tuple(tree) == expected, f"trial {trial}, tree {t}"


def test_grow_rejects_nan_features():
    with pytest.raises(ParameterError, match="NaN"):
        grow([[1.0], [np.nan], [3.0]], [0, 1, 1])


def test_grow_rejects_infinite_features():
    # the midpoint between -inf and its neighbour is -inf, no valid
    # threshold; growth stops before any tree is grown
    rng = np.random.default_rng(8)
    X = rng.choice([-0.0, 0.0, -np.inf, np.inf], size=(300, 2))
    y = rng.integers(0, 2, size=300)
    with pytest.raises(ParameterError, match="infinite") as info:
        grow(X, y)
    assert "\n" not in str(info.value)
    with pytest.raises(ParameterError, match="infinite"):
        grow_trees(X, y, [(np.arange(300), substream(0, 0))], TreeParams())

# prediction semantics


def test_predict_boundary_goes_left():
    node = tree_from_tuple(split(0, 2.5, leaf(3, 0), leaf(0, 3)))
    probs = predict_proba(node, np.array([[2.5], [2.500001]]))
    assert probs.tolist() == [0.0, 1.0]
    assert to_labels(probs).tolist() == [0, 1]


def test_predict_probability_and_tie():
    row = np.array([[0.0]])
    probs = np.concatenate([predict_proba(tree_from_tuple(leaf(*counts)), row) for counts in ((1, 3), (2, 2), (3, 1))])
    assert probs.tolist() == [0.75, 0.5, 0.25]
    # Probability exactly 0.5 labels as default.
    assert to_labels(probs).tolist() == [1, 1, 0]


def test_predict_routes_every_row_to_its_own_leaf():
    # depth-2 tree on two features; rows in shuffled order, one row per leaf
    # plus a repeat, and an empty matrix
    node = tree_from_tuple(
        split(0, 0.0, split(1, 1.0, leaf(4, 0), leaf(3, 1)), split(1, -1.0, leaf(1, 1), leaf(0, 5)))
    )
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, -2.0], [-1.0, 2.0], [-1.0, 0.0]])
    assert predict_proba(node, X).tolist() == [1.0, 0.0, 0.5, 0.25, 0.0]
    assert predict_proba(node, np.zeros((0, 2))).shape == (0,)


def test_predict_rejects_a_split_feature_outside_the_matrix():
    node = tree_from_tuple(split(1, 0.0, leaf(1, 0), leaf(0, 1)))
    assert predict_proba(node, np.array([[0.0, 1.0]])).tolist() == [1.0]
    for X in (np.zeros((2, 1)), np.zeros((0, 1))):
        with pytest.raises(ParameterError, match="feature 1 but X has 1 columns"):
            predict_proba(node, X)


def test_predict_nan_goes_right_at_every_split():
    node = tree_from_tuple(split(0, 0.0, leaf(4, 0), split(1, 1.0, leaf(3, 1), leaf(0, 5))))
    X = np.array([[np.nan, 0.0], [np.nan, np.nan], [-1.0, np.nan]])
    assert predict_proba(node, X).tolist() == [0.25, 1.0, 0.0]


# params


def test_tree_params_defaults_and_resolution():
    params = TreeParams()
    assert params.max_depth is None
    assert params.min_samples_split == 2
    assert params.resolve_features_per_split(6) == 2
    assert params.resolve_features_per_split(16) == 4
    assert TreeParams(features_per_split=3).resolve_features_per_split(6) == 3


def test_tree_params_validation():
    with pytest.raises(ParameterError):
        TreeParams(max_depth=0)
    with pytest.raises(ParameterError):
        TreeParams(min_samples_split=0)
    assert TreeParams(min_samples_split=1).min_samples_split == 1
    with pytest.raises(ParameterError):
        TreeParams(features_per_split=0)
    with pytest.raises(ParameterError):
        TreeParams(features_per_split=7).resolve_features_per_split(6)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_depth": 2.9},
        {"max_depth": True},
        {"max_depth": "3"},
        {"min_samples_split": 2.0},
        {"min_samples_split": True},
        {"min_samples_split": None},
        {"features_per_split": 2.5},
        {"features_per_split": True},
    ],
)
def test_tree_params_reject_non_integers(kwargs):
    with pytest.raises(ParameterError):
        TreeParams(**kwargs)
    doc = dict(to_json_dict(TreeParams()), **kwargs)
    with pytest.raises(ParameterError):
        from_json_dict(TreeParams, doc)


def test_tree_params_json_round_trip():
    params = TreeParams(max_depth=5, min_samples_split=4, features_per_split=2)
    assert from_json_dict(TreeParams, to_json_dict(params)) == params
    assert from_json_dict(TreeParams, to_json_dict(TreeParams())) == TreeParams()


# serialization


def test_tree_json_round_trip():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 2, size=50).astype(np.int64)
    node = grow(X, y)
    doc = tree_to_json_dict(node)
    back = tree_from_json_dict(doc)
    assert tree_as_tuple(back) == tree_as_tuple(node)
    for name in ("feature", "threshold", "right", "count_0", "count_1"):
        grown, read = getattr(node, name), getattr(back, name)
        assert grown.dtype == read.dtype and np.array_equal(grown, read), name


def test_tree_json_shapes():
    node = tree_from_tuple(split(1, 0.5, leaf(2, 0), leaf(1, 4)))
    doc = tree_to_json_dict(node)
    assert doc == {
        "feature": 1,
        "threshold": 0.5,
        "left": {"count_0": 2, "count_1": 0},
        "right": {"count_0": 1, "count_1": 4},
    }


@pytest.mark.parametrize(
    "doc",
    [
        {"count_0": 1},
        {"feature": 0, "threshold": 0.5, "left": {"count_0": 1, "count_1": 0}},
        {"feature": 0, "threshold": 0.5, "left": {"count_0": 1, "count_1": 0}, "right": {"count_0": 1, "count_1": 0}, "extra": 1},
        {"count_0": 1, "count_1": 0, "stray": 2},
        "not a node",
        {"feature": 6, "threshold": 0.5, "left": {"count_0": 1, "count_1": 0}, "right": {"count_0": 1, "count_1": 0}},
        {"feature": -1, "threshold": 0.5, "left": {"count_0": 1, "count_1": 0}, "right": {"count_0": 1, "count_1": 0}},
        {"feature": 0, "threshold": float("nan"), "left": {"count_0": 1, "count_1": 0}, "right": {"count_0": 1, "count_1": 0}},
        {"count_0": 2.7, "count_1": 1},
        {"count_0": 1, "count_1": True},
        {"count_0": 2.0, "count_1": 1},
        {"count_0": "1", "count_1": 1},
        {"count_0": 2**53 + 1, "count_1": 1},
        {"feature": 0, "threshold": "0.5", "left": {"count_0": 1, "count_1": 0}, "right": {"count_0": 1, "count_1": 0}},
        {"feature": 0, "threshold": True, "left": {"count_0": 1, "count_1": 0}, "right": {"count_0": 1, "count_1": 0}},
        {"feature": 0, "threshold": None, "left": {"count_0": 1, "count_1": 0}, "right": {"count_0": 1, "count_1": 0}},
    ],
)
def test_tree_json_malformed(doc):
    with pytest.raises(ModelFormatError):
        tree_from_json_dict(doc)
