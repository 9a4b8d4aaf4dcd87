"""Decision tree tests.

The centerpiece is the oracle loop: random small datasets grown by the
package and by an exhaustive Fraction-arithmetic reference must agree on
the entire tree structure, thresholds included. Everything else is
targeted examples for the split rules, stopping rules, prediction
semantics, and serialization.
"""

import itertools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractions import Fraction

from oracles import leaf, oracle_gini, oracle_grow, span, split, tree_as_tuple, tree_from_tuple, trees_from_tuples
from smerisk import cart
from smerisk.cart import (
    TreeParams,
    best_split,
    grow_tree_arrays,
    grow_trees,
    leaf_values,
    trees_from_json,
    trees_to_json,
)
from smerisk.errors import ModelFormatError, ParameterError
from smerisk.experiment import load_model, save_model
from smerisk.forest import ForestModel, ForestParams, train_forest
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


def predict(tree, X):
    """The class-1 fraction of the leaf each row of ``X`` reaches in a
    one-tree table."""
    return leaf_values(tree, X)[:, 0]


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


def gini(count_0, count_1):
    return oracle_gini([0] * count_0 + [1] * count_1)


def test_gini_examples():
    assert gini(2, 2) == Fraction(1, 2)
    assert gini(4, 0) == 0
    assert gini(0, 7) == 0
    assert gini(3, 1) == Fraction(3, 8)


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
def test_signed_zeros_are_one_value(zeros):
    # -0.0 and 0.0 share a rank, so no threshold separates them: the one
    # candidate is the midpoint up to 1.0, whichever zero comes first
    X = np.array([[zeros[0]], [zeros[1]], [1.0]])
    assert best_split(X, np.array([0, 1, 1]), np.array([0]))[:2] == (0, 0.5)
    assert grow_shape(X, [0, 1, 1]) == split(0, 0.5, leaf(1, 1), leaf(0, 1))


@pytest.mark.parametrize(
    "X, y",
    [
        ([[-np.inf], [np.inf]], [0, 1]),  # the midpoint is NaN
        ([[np.nan], [1.0], [2.0]], [0, 1, 1]),  # NaN sorts last, so a threshold falls next to it
        ([[-np.inf], [1.0]], [0, 1]),  # the midpoint is -inf
    ],
)
def test_best_split_rejects_non_finite_features(X, y):
    with pytest.raises(ParameterError, match=r"^feature values may not be NaN or infinite$"):
        best_split(np.array(X), np.array(y), [0])


# growth and stopping rules


def test_grow_pure_leaf():
    assert grow_shape([[1.0], [2.0]], [1, 1]) == leaf(0, 2)


def test_grow_separable_tree_shape():
    tree = grow([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    assert tree_as_tuple(tree) == split(0, 2.5, leaf(2, 0), leaf(0, 2))
    # the node arrays themselves, in level order: a split's children at
    # child[i] and child[i] + 1, a leaf has feature -1, threshold +inf and
    # itself as child, a split zero counts
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold.tolist() == [2.5, math.inf, math.inf]
    assert tree.child.tolist() == [1, 1, 2]
    assert (tree.count_0.tolist(), tree.count_1.tolist()) == ([0, 2, 0], [0, 0, 2])
    assert (len(tree), tree.roots.tolist(), tree.value.tolist(), tree.depth) == (1, [0], [0.0, 0.0, 1.0], 1)
    for name in ("feature", "threshold", "child", "count_0", "count_1", "roots", "value"):
        with pytest.raises(ValueError):
            getattr(tree, name)[0] = 1  # read-only


def test_grow_splits_adjacent_floats_at_the_left_value():
    # the midpoint rounds up onto the right value, so the split falls back
    # to the left one and each child still gets its own row
    a, b = np.nextafter(1.0, 0.0), 1.0
    assert grow_shape([[b], [a], [b], [a]], [1, 0, 1, 0]) == split(0, a, leaf(2, 0), leaf(0, 2))


def test_a_midpoint_past_the_float_range_stays_finite(tmp_path):
    # 1e308 + 1.7e308 overflows to inf; the halves sum to a finite
    # threshold between the two values, so the class-1 rows go right
    X = np.array([[1e308], [1.7e308], [1e308], [1.7e308]])
    y = np.array([0, 1, 0, 1])
    tree = grow(X, y)
    assert np.isfinite(tree.threshold[tree.feature >= 0]).all()
    assert tree_as_tuple(tree) == split(0, 1e308 / 2 + 1.7e308 / 2, leaf(2, 0), leaf(0, 2))
    assert tree_as_tuple(tree) == oracle_grow([tuple(r) for r in X.tolist()], y.tolist())
    assert predict(tree, X).tolist() == [0.0, 1.0, 0.0, 1.0]
    path = tmp_path / "forest.json"
    save_model(ForestModel(tree, ForestParams(n_trees=1)), path)
    assert table_bytes(load_model(path).trees) == table_bytes(tree)


@pytest.mark.parametrize(
    "left, right, splits",
    [
        ((1, 49_999), (1, 49_998), True),
        ((25_000, 25_000), (25_000, 25_000), False),
        ((0, 60_000), (7_500, 52_500), True),
    ],
    ids=["beats the parent by 8e-15", "ties the parent", "int64 would wrap"],
)
def test_the_strict_improvement_test_is_exact_past_float_and_int64(left, right, splits):
    # one two-valued feature with class counts (count_0, count_1) either
    # side. S = T / D beats the parent's score P / n exactly when
    # T * n > P * D, products past 2**63 here. In the first two cases S
    # and P / n round to one double, so floats cannot tell a split that
    # wins by 8e-15 from a tie; in the third the products lie in different
    # 2**64 windows, so int64 would compare them wrapped
    (a, b), (c, d) = left, right
    n_left, n_right = a + b, c + d
    T, D = (a * a + b * b) * n_right + (c * c + d * d) * n_left, n_left * n_right
    P, n = (a + c) ** 2 + (b + d) ** 2, n_left + n_right
    assert (T * n > P * D) == splits and min(T * n, P * D) >= 2**63
    windows = {(product + 2**63) >> 64 for product in (T * n, P * D)}
    assert float(Fraction(T, D)) == float(Fraction(P, n)) or len(windows) == 2
    X, y = np.repeat([[0.0], [1.0]], [n_left, n_right], axis=0), np.repeat([0, 1, 0, 1], [a, b, c, d])
    expected = split(0, 0.5, leaf(a, b), leaf(c, d)) if splits else leaf(a + c, b + d)
    assert tree_as_tuple(grow(X, y)) == expected


def test_grow_min_samples_split_stops():
    assert grow_shape([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1], min_samples_split=5) == leaf(2, 2)


def test_grow_max_depth_stops():
    shape = grow_shape([[1.0], [2.0], [3.0], [4.0]], [0, 1, 1, 0], max_depth=1)
    assert shape[0] == "node" and shape[3][0] == shape[4][0] == "leaf"
    assert depth(shape) == 1
    assert depth(grow_shape([[1.0], [2.0], [3.0], [4.0]], [0, 1, 1, 0])) > 1


def test_growth_limits_past_int64():
    # the stop rules compare a batch's depths and sizes with the limits,
    # Python ints of any size
    rng = np.random.default_rng(64)
    X, y = rng.normal(size=(80, 3)), rng.integers(0, 2, size=80)
    bootstraps = rng.integers(0, 80, size=(3, 80))

    def grown(**limits):
        return grow_trees(X, y, [(rows, t) for t, rows in enumerate(bootstraps)], TreeParams(**limits))

    deep, unlimited = grown(max_depth=10**20), grown()
    assert unlimited.depth > 2
    for column in ("feature", "threshold", "count_0", "count_1"):
        assert np.array_equal(getattr(deep, column), getattr(unlimited, column))
    stopped = grown(min_samples_split=10**20)
    assert len(stopped) == len(stopped.feature) == 3  # one leaf per tree
    assert (stopped.count_0 + stopped.count_1).tolist() == [80, 80, 80]


def test_grow_xor_single_leaf():
    assert grow_shape([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1, 0]) == leaf(2, 2)


def test_grow_validates_inputs():
    rng = substream(0, 0)
    with pytest.raises(ParameterError, match="^cannot grow a tree on zero rows$"):
        grow_tree_arrays(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), TreeParams(), rng)
    with pytest.raises(ParameterError):
        grow_tree_arrays(np.zeros((3, 2)), np.array([0, 1, 2]), TreeParams(), rng)
    with pytest.raises(ParameterError):
        grow_tree_arrays(np.zeros((3, 2)), np.array([0, 1]), TreeParams(), rng)
    # labels are checked before the int64 cast, which would read 0.5, 0.9
    # and -0.5 as class 0
    X = np.arange(12.0).reshape(6, 2)
    for y in ([0, 0.5, 0, 1, 1, 0.9], [0, -0.5, 0, 1, 1, 1]):
        with pytest.raises(ParameterError, match="^labels may contain only 0 and 1$"):
            grow_trees(X, np.array(y), [(np.arange(6), 0)], TreeParams())
        with pytest.raises(ParameterError, match="^labels may contain only 0 and 1$"):
            best_split(X, np.array(y), [0])
    # one label per row: ``take`` would read a label matrix flattened
    labels = np.array([0, 1, 0, 1, 1, 0])
    with pytest.raises(ParameterError, match=r"^feature matrix \(6, 2\) does not match labels \(6, 2\)$"):
        grow_trees(X, np.stack([labels, 1 - labels], axis=1), [(np.arange(6), 0)], TreeParams())
    with pytest.raises(ParameterError, match=r"^feature matrix \(6, 2\) does not match labels \(5,\)$"):
        best_split(X, labels[:5], [0])
    # candidates are integers in [0, d): -1 would split on a feature that
    # does not exist, 7 would index past the matrix, and int() would read
    # 0.9 as feature 0, "1" and True as feature 1
    for candidates in ([-1], [7], [], [0.9], ["1"], [True], [None]):
        message = rf"^best_split needs one or more candidate features in \[0, 2\), got {re.escape(str(candidates))}$"
        with pytest.raises(ParameterError, match=message):
            best_split(X, labels, candidates)
    with pytest.raises(ParameterError, match="^grow_trees needs at least one job$"):
        grow_trees(np.zeros((3, 2)), np.array([0, 1, 0]), [], TreeParams())
    jobs = [(np.arange(3), 0), (np.arange(0), 1)]
    with pytest.raises(ParameterError, match="^job 1: cannot grow a tree on zero rows$"):
        grow_trees(np.zeros((3, 2)), np.array([0, 1, 0]), jobs, TreeParams())


@pytest.mark.parametrize("key", [None, -1, 2**64, 1.5, True])
def test_grow_rejects_a_root_key_outside_the_64_bit_integers(key):
    X, y = np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 1, 0])
    jobs = [(np.arange(6), 2**64 - 1), (np.arange(6), key)]
    message = rf"^job 1: its root key must be an integer in \[0, 2\*\*64\), got {re.escape(repr(key))}$"
    with pytest.raises(ParameterError, match=message):
        grow_trees(X, y, jobs, TreeParams())


@pytest.mark.parametrize(
    "rows",
    [
        [-1, -2, 0, 1],  # would wrap round to rows 5 and 4
        [0, 6],  # one past the last row
        [0.5, 1],  # would be truncated to row 0
    ],
)
def test_grow_rejects_job_rows_outside_the_matrix(rows):
    X, y = np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 1, 0])
    jobs = [(np.arange(6), 0), (np.array(rows), 1)]
    with pytest.raises(ParameterError, match=r"^job 1: rows must be integers in \[0, 6\)$"):
        grow_trees(X, y, jobs, TreeParams())


def test_grow_rejects_a_job_past_the_int64_bound(monkeypatch):
    # a split's T reaches n^3 / 4 in a node of n rows; the bound is the
    # largest n that keeps it below 2**63
    n = cart._MAX_ROWS
    assert n * (n * n // 4) < 2**63 <= (n + 1) * ((n + 1) ** 2 // 4)
    X, y = np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 1, 0])
    # zero-stride views allocate nothing; row -1 shows the count is checked
    # before any row is read
    for fill in (0, -1):
        jobs = [(np.arange(6), 0), (np.broadcast_to(np.intp(fill), (n + 1,)), 1)]
        with pytest.raises(ParameterError, match=rf"^job 1: {n + 1} rows exceed the {n} a tree may hold$"):
            grow_trees(X, y, jobs, TreeParams())
    # at the bound itself a job grows
    monkeypatch.setattr(cart, "_MAX_ROWS", 6)
    assert len(grow_trees(X, y, [(np.arange(6), 0)], TreeParams())) == 1
    with pytest.raises(ParameterError, match="^job 0: 7 rows exceed the 6 a tree may hold$"):
        grow_trees(X, y, [(np.arange(7) % 6, 0)], TreeParams())


def two_node_step():
    """A split search's arguments: two nodes of 20 and 40 rows of a 40 x 3
    matrix, on two candidates each, so 4 segments over 60 rows, and the
    rank count that fills the sort key's 63 bits with their 2 and 6."""
    rng = np.random.default_rng(63)
    X, y = np.round(rng.normal(size=(40, 3)), 1), rng.integers(0, 2, size=40)
    ranks, n_ranks = cart._dense_ranks(X)
    node_rows = [rng.integers(0, 40, size=20), np.arange(40)]
    rows, sizes = np.concatenate(node_rows), np.array([20, 40])
    counts_1, features = np.array([y[r].sum() for r in node_rows]), np.array([[0, 2], [1, 2]])
    widest = 2 ** (63 - (4 - 1).bit_length() - (len(rows) - 1).bit_length())
    return (X, y, ranks, n_ranks, rows, sizes, counts_1, features), widest


def test_the_search_keys_fields_keep_their_order_at_63_bits():
    # a rank field widened until the key takes all 63 bits finds the
    # splits the narrow one finds
    args, wide = two_node_step()
    assert (4 - 1).bit_length() + (wide - 1).bit_length() + (60 - 1).bit_length() == 63
    narrow = cart._best_splits(*args)
    widened = cart._best_splits(*args[:3], wide, *args[4:])
    assert narrow[0].tolist() == [0, 1] and len(narrow[-1]) == 60  # both nodes split
    assert all(np.array_equal(a, b) for a, b in zip(narrow, widened))


def test_the_search_refuses_keys_past_63_bits():
    # one more rank bit would push the segment field past int64's sign bit
    args, wide = two_node_step()
    with pytest.raises(ParameterError, match="^4 segments, .* ranks and 60 rows need split keys past 63 bits$"):
        cart._best_splits(*args[:3], 2 * wide, *args[4:])


def test_a_table_needs_at_least_one_tree():
    empty = np.zeros(0, dtype=np.intp)
    with pytest.raises(ParameterError, match="^a forest table needs at least one tree$"):
        cart.Trees(empty, np.zeros(0), empty, empty)
    with pytest.raises(ModelFormatError, match="^a forest table needs at least one tree$"):
        trees_from_json({"feature": [], "threshold": [], "count_0": [], "count_1": []})
    message = "^a forest table's thresholds must be finite at splits and \\+inf at leaves$"
    for threshold in ([np.inf, np.inf, np.inf], [np.nan, np.inf, np.inf], [0.5, 0.0, np.inf], [0.5, np.inf, -np.inf]):
        with pytest.raises(ParameterError, match=message):
            cart.Trees(np.array([0, -1, -1]), np.array(threshold), np.array([0, 1, 0]), np.array([0, 0, 1]))


def test_a_table_refuses_a_leaf_with_no_rows():
    # its class-1 fraction and its share of an impurity decrease would be 0 / 0
    with pytest.raises(ParameterError, match=r"^trees\[0\]: node 1 is a leaf with no rows$"):
        cart.Trees(np.array([0, -1, -1]), np.array([0.5, np.inf, np.inf]), np.array([0, 0, 2]), np.array([0, 0, 1]))
    # checked before the shape, as the model reader checks counts first
    with pytest.raises(ParameterError, match=r"^trees\[1\]: node 1 is a leaf with no rows$"):
        cart.Trees(np.array([-1, 0, -1]), np.array([np.inf, 0.5, np.inf]), np.array([1, 0, 0]), np.array([0, 0, 0]))


def test_a_table_needs_one_value_per_node_in_every_column():
    # a short column would broadcast into a table of other trees
    two_leaves = (np.array([-1, -1]), np.array([np.inf, np.inf]), np.array([1, 1]), np.array([2, 2]))
    for c, name in enumerate(("threshold", "count_0", "count_1"), start=1):
        columns = list(two_leaves)
        columns[c] = columns[c][:1]
        with pytest.raises(ParameterError, match=f"^a forest table's {name} holds 1 values for 2 nodes$"):
            cart.Trees(*columns)
    with pytest.raises(ParameterError, match="^a forest table's threshold holds 1 values for 2 nodes$"):
        cart.Trees(np.array([-1, -1]), np.array([np.inf]), np.array([1]), np.array([2]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.booleans(), max_size=40))
@example([True, True, False, True, False, False, False, False, False])  # a tree, then two bare leaves
def test_any_leaf_flags_give_whole_trees_in_level_order_or_a_one_line_error(flags):
    # flags: True at a split. The sequence is whole trees, one after the
    # other, exactly when the subtrees owed return to 0 at its end
    owed = 0
    for is_split in flags:
        owed = (owed or 1) + (1 if is_split else -1)
    split = np.array(flags, dtype=bool)
    n = len(split)
    columns = (
        np.where(split, np.arange(n) % 6, -1).astype(np.intp),
        np.where(split, np.arange(n) * 0.25, np.inf),
        np.where(split, 0, np.arange(n) % 3).astype(np.int64),
        np.where(split, 0, 1).astype(np.int64),
    )
    if n == 0 or owed:
        with pytest.raises(ParameterError) as info:
            cart.Trees(*columns)
        refusals = r"a forest table needs at least one tree|trees\[\d+\] is truncated: it lacks \d+ subtree\(s\)"
        assert re.fullmatch(refusals, str(info.value))
        return
    trees = cart.Trees(*columns)
    child = trees.child.tolist()
    for t in range(len(trees)):
        start, stop = span(trees, t)
        # a split's children lie after it inside its tree, a leaf is its own
        # child, and a walk by levels from the root meets the nodes in order
        level, order = [start], []
        while level:
            order += level
            assert all(child[i] > i and child[i] + 1 < stop for i in level if split[i])
            assert all(child[i] == i for i in level if not split[i])
            level = [c for i in level if split[i] for c in (child[i], child[i] + 1)]
        assert order == list(range(start, stop))
    back = trees_from_json(json.loads(json.dumps(trees_to_json(trees))))
    assert table_bytes(back) == table_bytes(trees)


def table_bytes(trees):
    """Every array of a table, bit for bit (the sign of a zero included),
    and its depth."""
    arrays = (trees.feature, trees.threshold, trees.child, trees.count_0, trees.count_1, trees.roots, trees.value)
    return [(a.dtype, a.tobytes()) for a in arrays] + [trees.depth]


def test_growth_does_not_depend_on_the_order_of_a_jobs_rows():
    # a step's children come out of its search in rank order, not in their
    # parent's order; reversing or shuffling every job's rows, bootstrap
    # repeats included, must give the same table bit for bit, on values
    # that tie, zeros of both signs, the smallest subnormals and adjacent
    # floats, where a midpoint falls back to its left value
    values = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), -2.5, 3.0])
    rng = np.random.default_rng(15)
    fallbacks = 0
    for trial in range(12):
        n, d = int(rng.integers(20, 120)), int(rng.integers(1, 5))
        X = values[rng.integers(0, len(values), size=(n, d))]
        y = rng.integers(0, 2, size=n)
        rows = [rng.integers(0, n, size=n) if t % 2 else np.arange(n) for t in range(4)]
        params = TreeParams(features_per_split=int(rng.integers(1, d + 1)), max_depth=[None, 3][trial % 2])

        def grown(order):
            return grow_trees(X, y, [(order(r), 4 * trial + t) for t, r in enumerate(rows)], params)

        table = grown(lambda r: r)
        shuffle = np.random.default_rng(trial)
        for order in (lambda r: r[::-1], shuffle.permutation):
            assert table_bytes(grown(order)) == table_bytes(table), f"trial {trial}"
        # the midpoint of 1 - 2**-53 and 1 rounds onto 1 and falls back
        fallbacks += int((table.threshold == np.nextafter(1.0, 0.0)).sum())
    assert fallbacks > 0


def test_training_accuracy_perfect_on_distinct_rows():
    rng = np.random.default_rng(77)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, size=60).astype(np.int64)
    node = grow(X, y)
    predictions = to_labels(predict(node, X))
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
    assert np.array_equal(predict(node_a, X), predict(node_b, X2))


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
        parent = gini(*c)
        children = (nl * gini(*lc) + nr * gini(*rc)) / (nl + nr)
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
    hits = int((to_labels(predict(node, test.feature_matrix())) == test.labels()).sum())
    assert hits / len(test) > 0.5


# node keys: a node's feature subset is a function of its key alone


def test_subsets_of_two_of_six_features_are_uniform():
    # the 15 cells of 15,000 keys hold 1,000 each if uniform; the bound is
    # chi-square's p = 0.001 at 14 degrees of freedom
    _, features = cart._key_draws(np.arange(15_000, dtype=np.uint64), 6, 2)
    cells = Counter(map(tuple, features.tolist()))
    assert sorted(cells) == list(itertools.combinations(range(6), 2))
    assert sum((count - 1000) ** 2 / 1000 for count in cells.values()) <= 36.12


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


def test_random_subset_growth_matches_bruteforce_oracle():
    # two of five features at each node: the oracle draws each subset and
    # child key from the root key by pure-Python hashes. Some trees must
    # differ from all-feature growth, or the subsets went unchecked
    rng = np.random.default_rng(2026)
    differ = 0
    for trial in range(40):
        n = int(rng.integers(4, 51))
        X = rng.uniform(-2.0, 2.0, size=(n, 5))
        if trial % 2 == 1:
            X = np.round(X, 1)  # force duplicate values and threshold ties
        y = rng.integers(0, 2, size=n).astype(np.int64)
        key = int(substream(1, trial).integers(2**64, dtype=np.uint64))
        node = grow_trees(X, y, [(np.arange(n), key)], TreeParams(features_per_split=2))
        rows, labels = [tuple(r) for r in X], [int(v) for v in y]
        expected = oracle_grow(rows, labels, key=key, k=2)
        assert tree_as_tuple(node) == expected, f"trial {trial}"
        differ += expected != oracle_grow(rows, labels)
    assert differ > 0


@pytest.mark.parametrize("max_depth, min_samples_split", [(None, 2), (2, 2), (None, 6), (3, 5)])
def test_lockstep_trees_match_bruteforce_oracle(max_depth, min_samples_split):
    # up to 8 small instances stacked into one matrix and grown together,
    # one tree per instance: a step's segments then run across the nodes
    # of different trees, which one-tree growth never puts side by side.
    # The stop rules run on a step's children at once, under each limit
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
        jobs = [(np.arange(a, b), t) for t, (a, b) in enumerate(zip(starts, starts[1:]))]
        X = np.concatenate([X for X, _ in instances])
        y = np.concatenate([y for _, y in instances])
        params = TreeParams(max_depth=max_depth, min_samples_split=min_samples_split, features_per_split=4)
        trees = grow_trees(X, y, jobs, params)
        assert len(trees) == len(instances)
        for t, (X, y) in enumerate(instances):
            expected = oracle_grow([tuple(r) for r in X], [int(v) for v in y], 0, max_depth, min_samples_split)
            assert tree_as_tuple(trees, t) == expected, f"trial {trial}, tree {t}"


@pytest.mark.parametrize("budget", ["default", "one tree at a time"])
def test_lockstep_trees_whose_roots_stop_at_once_keep_their_places(monkeypatch, budget):
    # roots that are leaves at once (pure, one row) or whose search finds no
    # split (tied values) finish when they start or after one search,
    # between jobs that grow; each tree still equals its one-job growth, in
    # job order
    if budget == "one tree at a time":
        monkeypatch.setattr(cart, "_STEP_BUDGET", 1)
    rng = np.random.default_rng(22)
    X = np.vstack((rng.normal(size=(60, 3)), np.zeros((4, 3))))
    y = np.concatenate((rng.integers(0, 2, size=60), [0, 1, 0, 1])).astype(np.int64)
    zeros, ones = np.flatnonzero(y[:60] == 0), np.flatnonzero(y[:60] == 1)
    rows = [zeros, np.arange(60), ones[:1], np.arange(60, 64), ones, np.arange(30), zeros[::2], np.arange(60, 64)]
    params = TreeParams(features_per_split=2)
    trees = grow_trees(X, y, [(r, t) for t, r in enumerate(rows)], params)
    assert len(trees) == len(rows)
    assert [int(trees.feature[r]) >= 0 for r in trees.roots] == [False, True, False, False, False, True, False, False]
    for t, r in enumerate(rows):
        assert tree_as_tuple(trees, t) == tree_as_tuple(grow_trees(X, y, [(r, t)], params)), t


# values at the edges of the float64 range: the largest, subnormals and
# signed zeros, beside which hypothesis draws any finite float
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, 1.7e308, -1.7e308, 1.7976931348623157e308]


@st.composite
def _growth_cases(draw):
    """(X, y, features_per_split, jobs' rows) with X's values drawn from a
    few finite floats and their float neighbours, so values tie and sit
    side by side; a job is every row, or draws with repeats as a
    bootstrap makes."""
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_VALUES)
    base = draw(st.lists(values, min_size=1, max_size=4))
    pool = [w for v in base for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)) if math.isfinite(w)]
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.sampled_from(pool), min_size=n * d, max_size=n * d))).reshape(n, d).tolist()
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    rows = st.just(list(range(n))) | st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
    return X, y, draw(st.integers(1, d)), draw(st.lists(rows, min_size=1, max_size=3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_growth_cases())
@example(([[1e308], [1.7e308], [1e308], [1.7e308]], [0, 1, 0, 1], 1, [[0, 1, 2, 3]]))  # lo + hi overflows
def test_growth_routes_every_row_to_the_leaf_that_tallies_it(case):
    # Routing each job row through its tree by x <= threshold reaches each
    # node with exactly the labels growth counted there: at a leaf, its
    # count_0 and count_1; at a split's left child, the split's rows with
    # x <= threshold. Every threshold is finite, and with every feature a
    # candidate the tree is the oracle's.
    X, y, k, jobs = case
    job_rows = [(np.array(rows), t) for t, rows in enumerate(jobs)]
    trees = grow_trees(np.array(X), np.array(y), job_rows, TreeParams(features_per_split=k))
    assert np.isfinite(trees.threshold[trees.feature >= 0]).all()
    feature, threshold, child, count_0, count_1 = (
        a.tolist() for a in (trees.feature, trees.threshold, trees.child, trees.count_0, trees.count_1)
    )
    for t, rows in enumerate(jobs):
        start, stop = span(trees, t)
        routed = {i: [0, 0] for i in range(start, stop)}
        for r in rows:
            i = start
            routed[i][y[r]] += 1
            while feature[i] >= 0:
                i = child[i] if X[r][feature[i]] <= threshold[i] else child[i] + 1
                routed[i][y[r]] += 1
        grown = {}
        for i in reversed(range(start, stop)):
            if feature[i] < 0:
                grown[i] = [count_0[i], count_1[i]]
            else:
                grown[i] = [a + b for a, b in zip(grown[child[i]], grown[child[i] + 1])]
        assert routed == grown
        if k == len(X[0]):
            assert tree_as_tuple(trees, t) == oracle_grow([tuple(X[r]) for r in rows], [y[r] for r in rows])


def test_grow_rejects_nan_features():
    with pytest.raises(ParameterError, match="NaN"):
        grow([[1.0], [np.nan], [3.0]], [0, 1, 1])


@pytest.mark.parametrize("features_per_split", [None, 1])
def test_grow_rejects_a_matrix_with_no_columns(features_per_split):
    # k resolves to 0 (or past the width) and no candidate exists
    with pytest.raises(ParameterError, match="zero feature columns"):
        grow(np.zeros((5, 0)), [0, 1, 0, 1, 1], features_per_split=features_per_split)


def test_grow_rejects_infinite_features():
    # the midpoint between -inf and its neighbour is -inf, no valid
    # threshold; growth stops before any tree is grown
    rng = np.random.default_rng(8)
    X = np.array([-0.0, 0.0, -np.inf, np.inf])[rng.integers(0, 4, size=(300, 2))]
    y = rng.integers(0, 2, size=300)
    with pytest.raises(ParameterError, match="infinite") as info:
        grow(X, y)
    assert "\n" not in str(info.value)
    with pytest.raises(ParameterError, match="infinite"):
        grow_trees(X, y, [(np.arange(300), 0)], TreeParams())

# prediction semantics


def test_predict_boundary_goes_left():
    node = tree_from_tuple(split(0, 2.5, leaf(3, 0), leaf(0, 3)))
    probs = predict(node, np.array([[2.5], [2.500001]]))
    assert probs.tolist() == [0.0, 1.0]
    assert to_labels(probs).tolist() == [0, 1]


def test_predict_probability_and_tie():
    row = np.array([[0.0]])
    probs = np.concatenate([predict(tree_from_tuple(leaf(*counts)), row) for counts in ((1, 3), (2, 2), (3, 1))])
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
    assert predict(node, X).tolist() == [1.0, 0.0, 0.5, 0.25, 0.0]
    assert predict(node, np.zeros((0, 2))).shape == (0,)


def test_predict_rejects_a_split_feature_outside_the_matrix():
    node = tree_from_tuple(split(1, 0.0, leaf(1, 0), leaf(0, 1)))
    assert predict(node, np.array([[0.0, 1.0]])).tolist() == [1.0]
    for X in (np.zeros((2, 1)), np.zeros((0, 1))):
        with pytest.raises(ParameterError, match="feature 1 but X has 1 columns"):
            predict(node, X)


def test_the_table_holds_siblings_side_by_side_and_leaves_as_their_own_children():
    # rebuilt from the table alone, each split's children at child[i] and
    # child[i] + 1, each leaf its own child with threshold +inf, every
    # tree comes back whole from its root, level by level
    shapes = [
        leaf(3, 1),
        split(0, 1.5, split(1, -2.25, leaf(5, 1), leaf(1, 5)), leaf(0, 3)),
        split(2, 0.0, leaf(2, 0), split(4, 7.0, split(5, 1e-9, leaf(1, 1), leaf(4, 0)), leaf(0, 9))),
        split(0, 1.0, split(1, 2.0, leaf(1, 0), leaf(0, 1)), split(2, 3.0, leaf(2, 0), leaf(0, 2))),
    ]
    trees = trees_from_tuples(shapes)
    child, feature, threshold, value = (a.tolist() for a in (trees.child, trees.feature, trees.threshold, trees.value))
    assert trees.roots.tolist() == [0, 1, 6, 13] and trees.depth == 3
    assert feature == [-1, 0, 1, -1, -1, -1, 2, -1, 4, 5, -1, -1, -1, 0, 1, 2, -1, -1, -1, -1]
    done = [None] * len(child)
    for i in reversed(range(len(child))):
        if feature[i] < 0:
            assert (child[i], threshold[i]) == (i, math.inf)
            done[i] = value[i]
        else:
            assert child[i] > i
            done[i] = ("node", feature[i], threshold[i], done[child[i]], done[child[i] + 1])

    def values(shape):
        if shape[0] == "leaf":
            return shape[2] / (shape[1] + shape[2])
        return ("node", shape[1], shape[2], values(shape[3]), values(shape[4]))

    assert [done[root] for root in trees.roots.tolist()] == [values(shape) for shape in shapes]


def test_predict_nan_goes_right_at_every_split():
    node = tree_from_tuple(split(0, 0.0, leaf(4, 0), split(1, 1.0, leaf(3, 1), leaf(0, 5))))
    X = np.array([[np.nan, 0.0], [np.nan, np.nan], [-1.0, np.nan]])
    assert predict(node, X).tolist() == [0.25, 1.0, 0.0]


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
    back = trees_from_json(json.loads(json.dumps(trees_to_json(node))))
    assert tree_as_tuple(back) == tree_as_tuple(node)
    assert table_bytes(back) == table_bytes(node)


def test_tree_json_shapes():
    node = tree_from_tuple(split(1, 0.5, leaf(2, 0), split(0, -1.5, leaf(1, 4), leaf(0, 3))))
    assert trees_to_json(node) == {
        "feature": [1, -1, 0, -1, -1],
        "threshold": [0.5, -1.5],
        "count_0": [2, 1, 0],
        "count_1": [0, 4, 3],
    }


def columns(**edits):
    """A one-split tree's node columns, with columns replaced or added by
    ``edits``; None drops a key."""
    doc = {"feature": [0, -1, -1], "threshold": [0.5], "count_0": [1, 0], "count_1": [0, 1], **edits}
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize(
    "doc",
    [
        columns(feature=[-1], threshold=[], count_0=[1], count_1=[]),  # a leaf without count_1
        columns(feature=[0, -1], count_0=[1], count_1=[0]),  # a split without its right child
        columns(extra=1),
        columns(count_1=None),
        "not a node",
        columns(feature=[6, -1, -1]),
        columns(feature=[-1, -1, -1]),  # a leaf where a split is needed
        columns(threshold=[float("nan")]),
        columns(count_0=[2.7, 0]),
        columns(count_1=[0, True]),
        columns(count_0=[2.0, 0]),
        columns(count_0=["1", 0]),
        columns(count_0=[2**53 + 1, 0]),
        columns(threshold=["0.5"]),
        columns(threshold=[True]),
        columns(threshold=[None]),
        columns(feature=[0, 0, -1, -1], count_0=[1, 1], count_1=[0, 1]),  # a split where a leaf is needed
        columns(feature="not a column"),
        columns(threshold={"0": 0.5}),
        columns(feature=[True, -1, -1]),
        columns(threshold=[0.5, 0.5]),
        columns(count_0=[1, 0, 0]),
    ],
)
def test_tree_json_malformed(doc):
    with pytest.raises(ModelFormatError) as info:
        trees_from_json(doc)
    assert "\n" not in str(info.value)
    assert trees_from_json(columns()).feature.tolist() == [0, -1, -1]


def two_tree_columns():
    """A bare leaf, then a tree whose node 3 is the leaf (2, 1)."""
    return {"feature": [-1, 0, -1, 1, -1, -1], "threshold": [0.5, 0.0], "count_0": [1, 1, 2, 0], "count_1": [2, 0, 1, 3]}


def test_trees_read_into_one_table():
    trees = trees_from_json(two_tree_columns())
    assert len(trees) == 2 and trees.roots.tolist() == [0, 1] and trees.depth == 2
    assert trees.feature.tolist() == [-1, 0, -1, 1, -1, -1]
    assert trees.threshold.tolist() == [math.inf, 0.5, math.inf, 0.0, math.inf, math.inf]
    assert trees.child.tolist() == [0, 2, 2, 4, 4, 5]  # indices into the whole table
    assert trees.value.tolist() == [2 / 3, 0.0, 0.0, 0.0, 1 / 3, 1.0]
    assert tree_as_tuple(trees, 1) == split(0, 0.5, leaf(1, 0), split(1, 0.0, leaf(2, 1), leaf(0, 3)))
    assert predict(tree_from_tuple(tree_as_tuple(trees, 1)), np.array([[1.0, -1.0]])).tolist() == [1 / 3]


@pytest.mark.parametrize(
    "value, message",
    [
        ({"count_0": (2, -1)}, "trees[1]: node 3 count_0 must be in [0, "),
        ({"count_1": (2, 1.5)}, "trees[1]: node 3 count_1 must be "),
        ({"count_0": (2, 0), "count_1": (2, 0)}, "trees[1]: node 3 is a leaf with no rows"),
        ({"threshold": (1, math.inf)}, "trees[1]: node 2 threshold must be "),
        ({"feature": (4, 7)}, "trees[1]: node 3 feature must be in [-1, 5]"),
        ({"feature": (4, "x")}, "trees[1]: node 3 feature must be a JSON integer"),
        ({"feature": (6, 0), "threshold": (2, 0.5)}, "trees[2] is truncated: it lacks 2 subtree(s)"),
        ({"threshold": (2, 0.5)}, "trees.threshold holds 3 values for 2 splits"),
        ({"count_1": (4, 1)}, "trees.count_1 holds 5 values for 4 leaves"),
    ],
)
def test_tree_read_errors_name_the_tree_and_its_node(value, message):
    # value: column -> (index, new entry); an index one past the end appends
    doc = two_tree_columns()
    for name, (i, entry) in value.items():
        doc[name][i : i + 1] = [entry]
    with pytest.raises(ModelFormatError) as info:
        trees_from_json(doc)
    assert str(info.value).startswith(message)
