"""Random forest tests: bootstrap behaviour, ensemble equivalences,
thread-order independence, prediction against the per-row oracle walk,
scoring memory, importances, and serialization."""

import gc
import hashlib
import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    leaf,
    node_columns_sha256,
    oracle_soft_vote,
    span,
    split,
    tree_as_tuple,
    tree_from_tuple,
    trees_as_tuples,
    trees_from_tuples,
    tuples_to_columns,
)
from smerisk import cart
from smerisk.cart import (
    TreeParams,
    grow_tree_arrays,
    grow_trees,
    leaf_values,
    tree_importances,
)
from smerisk.dataset import FEATURE_COLUMNS, Dataset
from smerisk.errors import DegenerateLabelsError, ModelFormatError, ParameterError
from smerisk.experiment import load_model, model_from_json_document, model_to_json_text, save_model
from smerisk.serialize import from_json_dict, to_json_dict
from smerisk.forest import (
    _PAIR_BUDGET,
    ForestModel,
    ForestParams,
    _tree_job,
    bootstrap_indices,
    feature_importances,
    predict_forest_dataset,
    train_forest,
)
from smerisk.logit import to_labels
from smerisk.seeding import substream
from smerisk.synthgen import GeneratorConfig, SignalCoefficients, generate


@pytest.fixture(scope="module")
def small_forest(strong_split):
    train, _ = strong_split
    return train_forest(train, ForestParams(n_trees=15, seed=5))


def grown_alone(X, y, params, t):
    """Tree ``t`` of the forest ``params`` describes, grown by itself as a
    one-tree table."""
    return grow_trees(X, y, [_tree_job(len(y), params, t)], params.tree_params)


def predict(tree, X):
    """The class-1 fraction of the leaf each row of ``X`` reaches in a
    one-tree table."""
    return leaf_values(tree, X)[:, 0]


def leaf_only_model(leaves, n_trees):
    """A model of bare-leaf trees, from (count_0, count_1) pairs."""
    trees = trees_from_tuples([leaf(*counts) for counts in leaves])
    return ForestModel(trees, ForestParams(n_trees=n_trees, bootstrap=False, seed=0))


def split_pairs(trees, t=0):
    """(feature, threshold) of every split of tree ``t``, in table order."""
    start, stop = span(trees, t)
    at = start + np.flatnonzero(trees.feature[start:stop] >= 0)
    return list(zip(trees.feature[at].tolist(), trees.threshold[at].tolist()))


ONE_ROW = Dataset(np.zeros((1, 6)))


# params


def test_forest_params_defaults():
    params = ForestParams()
    assert params.n_trees == 100
    assert params.bootstrap is True
    assert params.seed == 42
    assert params.tree_params == TreeParams()


def test_forest_params_validation():
    with pytest.raises(ParameterError):
        ForestParams(n_trees=0)
    with pytest.raises(ParameterError):
        ForestParams(seed=-1)


def test_forest_params_reject_a_seed_past_64_bits(strong_split):
    # the seed is mixed as a 64-bit integer, so 1 + 2**64 would grow what 1 grows
    message = r"^seed must be an integer in \[0, 2\*\*64 - 1\], got 18446744073709551617$"
    with pytest.raises(ParameterError, match=message):
        ForestParams(seed=1 + 2**64)
    train, _ = strong_split
    assert len(train_forest(train, ForestParams(n_trees=2, seed=2**64 - 1)).trees) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_trees", 2.9),
        ("n_trees", True),
        ("n_trees", "10"),
        ("seed", 1.5),
        ("seed", False),
        ("bootstrap", "false"),
        ("bootstrap", 0),
        ("bootstrap", None),
    ],
)
def test_forest_params_reject_wrong_types(field, value):
    with pytest.raises(ParameterError):
        ForestParams(**{field: value})
    doc = dict(to_json_dict(ForestParams()), **{field: value})
    with pytest.raises(ParameterError):
        from_json_dict(ForestParams, doc)


def test_forest_params_json_round_trip():
    params = ForestParams(
        n_trees=7, tree_params=TreeParams(max_depth=3), bootstrap=False, seed=9
    )
    assert from_json_dict(ForestParams, to_json_dict(params)) == params


# bootstrap


def test_bootstrap_indices_contract():
    rng = substream(0, 0)
    idx = bootstrap_indices(10, rng)
    assert idx.shape == (10,)
    assert idx.min() >= 0 and idx.max() < 10
    assert np.array_equal(bootstrap_indices(10, substream(0, 0)), bootstrap_indices(10, substream(0, 0)))


def test_bootstrap_single_row():
    assert bootstrap_indices(1, substream(0, 0)).tolist() == [0]


def test_a_tree_job_draws_its_bootstrap_then_its_root_key(monkeypatch):
    # a tree's substream gives exactly its bootstrap, when it bootstraps,
    # and then its root key; growth draws nothing
    drawn = []
    monkeypatch.setattr("smerisk.forest.substream", lambda *args: drawn.append(substream(*args)) or drawn[-1])
    for bootstrap in (True, False):
        rows, key = _tree_job(40, ForestParams(seed=3, bootstrap=bootstrap), 7)
        reference = substream(3, 7)
        assert np.array_equal(rows, bootstrap_indices(40, reference) if bootstrap else np.arange(40))
        assert type(key) is int and key == reference.integers(2**64, dtype=np.uint64)
        assert drawn[-1].bit_generator.state == reference.bit_generator.state


def test_bootstrap_unique_fraction():
    fractions = [
        len(np.unique(bootstrap_indices(1000, substream(5, t)))) / 1000.0
        for t in range(200)
    ]
    assert abs(float(np.mean(fractions)) - 0.632) <= 0.02


# training


def test_train_forest_shape(small_forest):
    assert len(small_forest.trees) == 15
    assert small_forest.feature_names == FEATURE_COLUMNS
    assert tree_importances(small_forest.trees, 6).shape == (15, 6)
    assert np.all(tree_importances(small_forest.trees, 6) >= 0.0)


def test_forest_beats_coin_flip(small_forest, strong_split):
    _, test = strong_split
    labels = to_labels(predict_forest_dataset(small_forest, test))
    assert np.mean(labels == test.labels()) > 0.6


def test_train_forest_rejects_single_class():
    rows = [[0.01 * i, 0.3, 1.5, 0.12, 0.8, 0] for i in range(12)]
    for label in (0, 1):
        with pytest.raises(DegenerateLabelsError):
            train_forest(Dataset(rows, [label] * 12), ForestParams(n_trees=2))


def test_train_forest_deterministic(strong_split):
    train, _ = strong_split
    params = ForestParams(n_trees=6, seed=13)
    a = model_to_json_text(train_forest(train, params))
    b = model_to_json_text(train_forest(train, params))
    assert a == b


def test_tree_seeds_independent_of_training_order(strong_split):
    # Per-tree seeds are derived from (forest seed, tree index), so
    # training trees concurrently yields the same forest as sequentially.
    train, _ = strong_split
    X = train.feature_matrix()
    y = train.labels()
    params = ForestParams(n_trees=12, seed=21)
    sequential = [grown_alone(X, y, params, i) for i in range(12)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda i: grown_alone(X, y, params, i), range(12)))
    assert [tree_as_tuple(t) for t in sequential] == [tree_as_tuple(t) for t in threaded]


def test_forest_prefix_stable(strong_split):
    # Growing the ensemble re-trains nothing: the first k trees of a
    # larger forest equal the k-tree forest under the same seed.
    train, _ = strong_split
    small = train_forest(train, ForestParams(n_trees=5, seed=2))
    large = train_forest(train, ForestParams(n_trees=9, seed=2))
    assert trees_as_tuples(large.trees)[:5] == trees_as_tuples(small.trees)


def test_ensemble_of_one_equals_bare_tree(strong_split):
    train, test = strong_split
    params = ForestParams(
        n_trees=1,
        bootstrap=False,
        seed=11,
        tree_params=TreeParams(features_per_split=6),
    )
    forest = train_forest(train, params)
    bare = grow_tree_arrays(
        train.feature_matrix(),
        train.labels(),
        params.tree_params,
        substream(11, 0),
    )
    assert np.array_equal(predict_forest_dataset(forest, test), predict(bare, test.feature_matrix()))



LOCKSTEP_CASES = {
    "bootstrap, one feature": ForestParams(n_trees=8, seed=4, tree_params=TreeParams(features_per_split=1)),
    "no bootstrap, two features": ForestParams(
        n_trees=8, seed=5, bootstrap=False, tree_params=TreeParams(features_per_split=2)
    ),
    "bootstrap, all features": ForestParams(n_trees=8, seed=6, tree_params=TreeParams(features_per_split=6)),
    "depth and split limits": ForestParams(
        n_trees=8, seed=7, tree_params=TreeParams(max_depth=3, min_samples_split=5)
    ),
}


@pytest.fixture(scope="module")
def zero_signal_book():
    # no signal: trees grow to purity, 12 to 19 levels deep
    return generate(GeneratorConfig(n_samples=400, seed=5, signal_strength=0.0))


@pytest.mark.parametrize("budget", ["default", "one element", "one root node", "2^13", "2^30"])
@pytest.mark.parametrize("case", [*LOCKSTEP_CASES, "zero signal, deep"])
def test_lockstep_forest_equals_its_trees_grown_alone(strong_split, zero_signal_book, monkeypatch, case, budget):
    # every tree of one lockstep growth equals the tree grown on its own,
    # however the step budget cuts the growth into steps and staggers the
    # trees' starts; at one element, one tree grows at a time
    if case == "zero signal, deep":
        train, params = zero_signal_book, ForestParams(n_trees=8, seed=8)
    else:
        train, params = strong_split[0], LOCKSTEP_CASES[case]
    k = params.tree_params.resolve_features_per_split(6)
    if budget == "one element":
        monkeypatch.setattr(cart, "_STEP_BUDGET", 1)
    elif budget == "one root node":
        monkeypatch.setattr(cart, "_STEP_BUDGET", len(train) * k)
    elif budget == "2^13":
        monkeypatch.setattr(cart, "_STEP_BUDGET", 2**13)
    elif budget == "2^30":
        monkeypatch.setattr(cart, "_STEP_BUDGET", 2**30)
    forest = train_forest(train, params)
    X, y = train.feature_matrix(), train.labels()
    for t in range(len(forest.trees)):
        assert tree_as_tuple(forest.trees, t) == tree_as_tuple(grown_alone(X, y, params, t)), f"tree {t}"


def test_growth_searches_each_level_of_a_forest_at_once(zero_signal_book, monkeypatch):
    # with every tree started and no step budget to cut a level, one
    # search scores the open nodes of one depth in every tree
    monkeypatch.setattr(cart, "_STEP_BUDGET", 2**30)
    calls, search = [], cart._best_splits

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(cart, "_best_splits", counted)
    forest = train_forest(zero_signal_book, ForestParams(n_trees=8, seed=8))
    assert len(calls) <= forest.trees.depth + 1, (len(calls), forest.trees.depth)


# fits pinned by the sha256 of their node columns and their count of
# split searches, one per step, recorded with Python 3.11 and numpy 2.4 on
# x86-64. The last two queue more rows than one step holds, so roots
# start between steps and nodes made meanwhile wait to join the queue. A
# tree is a pure function of its job, so a change to when trees start
# moves the count, not the hash
PINNED_FITS = {
    "default split, 100 trees": (None, 100, "5890886519a759efaea0a88654a6133f821df88747b3cf1719fee10712ea3b91", 37),
    "zero signal, 20 trees": (
        GeneratorConfig(n_samples=1000, seed=5, signal_strength=0.0),
        20,
        "a2354700de7cf97f9ca2a4429009f57839747eeacc286bb8a3bf4fadd47700d8",
        28,
    ),
    "n=2e4, 10 trees": (
        GeneratorConfig(n_samples=20_000, seed=4),
        10,
        "bcbcea5530808bf8d38200bbfaa3422a100a94b06b28e3af0413376d01e359f9",
        183,
    ),
    "n=1e5, 2 trees": (
        GeneratorConfig(n_samples=100_000, seed=42),
        2,
        "71e14a1ba9f31a48855bd46de6a7ae9fc7a8d18225be31c27af0e9eae984e750",
        209,
    ),
}


@pytest.mark.parametrize("fit", PINNED_FITS)
def test_pinned_fits_keep_their_node_columns_and_step_count(default_split, monkeypatch, fit):
    config, n_trees, sha256, searches = PINNED_FITS[fit]
    train = default_split[0] if config is None else generate(config)
    calls, search = [], cart._best_splits

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(cart, "_best_splits", counted)
    forest = train_forest(train, ForestParams(n_trees=n_trees))
    assert (node_columns_sha256(forest.trees), len(calls)) == (sha256, searches)


@pytest.mark.parametrize("book", ["default split", "40 rows"])
def test_trees_start_while_the_open_nodes_cannot_fill_a_step(default_split, monkeypatch, book):
    # a tree starts only while the queued rows, each scored on k features,
    # fall short of one step's elements, so ceil(budget / (k * n)) roots
    # start before the first search: 24 of the 100 default trees on the
    # 700 training rows, and all 100 on a 40-row book
    train = default_split[0] if book == "default split" else generate(GeneratorConfig(n_samples=40))
    params = ForestParams()
    k = params.tree_params.resolve_features_per_split(6)
    started, searches, job, search = [], [], _tree_job, cart._best_splits

    def counted_job(*args):
        started.append(not searches)
        return job(*args)

    def counted_search(*args):
        searches.append(1)
        return search(*args)

    monkeypatch.setattr("smerisk.forest._tree_job", counted_job)
    monkeypatch.setattr(cart, "_best_splits", counted_search)
    train_forest(train, params)
    expected = min(params.n_trees, math.ceil(cart._STEP_BUDGET / (k * len(train))))
    assert (sum(started), len(started)) == (expected, params.n_trees)


def test_training_memory_does_not_grow_with_the_tree_count():
    # a tree starts only while the open nodes' rows cannot fill a step,
    # and a step scores a bounded number of elements: 40 trees on a
    # 20,000-row book peak close to 4 trees
    book = generate(GeneratorConfig(n_samples=20_000, seed=4))
    train_forest(book, ForestParams(n_trees=1, tree_params=TreeParams(max_depth=1)))  # one-time allocations

    def peak(n_trees):
        tracemalloc.start()
        try:
            train_forest(book, ForestParams(n_trees=n_trees, seed=3, tree_params=TreeParams(max_depth=3)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(4), peak(40)
    assert many - few <= 2 * 2**20, (few, many)


def test_split_search_memory_per_element():
    # a one-tree fit to depth 1 is one root search: 20,000 rows on k = 2
    # candidates, 40,000 (row, candidate) elements, on continuous features
    # where almost every element is a boundary. With the fit's feature
    # ranks it peaks at 76 bytes per element; a search that holds about 22
    # whole-step arrays at once takes 163, past the bound
    book = generate(GeneratorConfig(n_samples=20_000, seed=4))
    params = ForestParams(n_trees=1, tree_params=TreeParams(max_depth=1))
    train_forest(book, params)  # one-time allocations
    gc.collect()
    tracemalloc.start()
    try:
        train_forest(book, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (2 * 20_000) <= 120, peak


def test_training_memory_of_a_forest_whose_trees_all_grow_at_once():
    # the 100 default trees of a 1,000-row book grow in one call, up to 36
    # of them at a time, so the rows of every open node they hold add up,
    # and a step scores open nodes of many trees: steps of 2**15 elements
    # take up to 244 nodes and peaked at 1.91 MiB, and steps of 2**16, up
    # to 439 nodes, at 3.34 MiB. The split search that held about 22
    # whole-step arrays at once peaked at 4.35 MiB in steps of 2**15
    book = generate(GeneratorConfig(n_samples=1000, seed=42))
    train_forest(book, ForestParams(n_trees=1, tree_params=TreeParams(max_depth=1)))  # one-time allocations
    gc.collect()  # garbage of earlier tests is not freed inside the traced fit
    tracemalloc.start()
    try:
        train_forest(book, ForestParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.875 * 2**20, peak

# prediction


def test_vote_averaging_and_tie():
    model = leaf_only_model([(4, 1), (1, 4)], 2)
    probs = predict_forest_dataset(model, ONE_ROW)
    assert probs.tolist() == [0.5]  # (0.2 + 0.8) / 2
    assert to_labels(probs).tolist() == [1]


def test_unanimous_leaves():
    model = leaf_only_model([(0, 3)] * 4, 4)
    assert predict_forest_dataset(model, ONE_ROW).tolist() == [1.0]
    model0 = leaf_only_model([(5, 0)] * 4, 4)
    assert predict_forest_dataset(model0, ONE_ROW).tolist() == [0.0]


def test_forest_probability_is_mean_of_trees(small_forest, strong_split):
    # exactly np.mean over each row's own tree fractions, bit for bit
    _, test = strong_split
    X = test.feature_matrix()[:40]
    per_tree = np.column_stack([predict(tree_from_tuple(shape), X) for shape in trees_as_tuples(small_forest.trees)])
    probs = predict_forest_dataset(small_forest, Dataset(X))
    assert probs.tolist() == [float(np.mean(list(row))) for row in per_tree]


def test_predict_dataset_matches_scalar(small_forest, strong_split):
    _, test = strong_split
    probs = predict_forest_dataset(small_forest, test)
    assert probs.shape == (len(test),)
    X = test.feature_matrix()
    for i in range(30):
        assert predict_forest_dataset(small_forest, Dataset(X[i : i + 1])).tolist() == [probs[i]]


def test_predict_is_the_same_across_vote_blocks(small_forest, strong_split):
    # a book several vote blocks long scores each row as it would alone
    _, test = strong_split
    probs = predict_forest_dataset(small_forest, test)
    reps = 2500 // len(test) + 1
    tiled = predict_forest_dataset(small_forest, Dataset(np.tile(test.feature_matrix(), (reps, 1))))
    assert np.array_equal(tiled, np.tile(probs, reps))


def test_predict_empty_dataset(small_forest):
    assert predict_forest_dataset(small_forest, Dataset(np.zeros((0, 6)))).shape == (0,)


def test_forest_model_validation():
    with pytest.raises(ParameterError):
        leaf_only_model([(1, 0)], 2)  # tree count mismatch


def test_chain_tree_5000_levels_deep():
    # Every walk over a tree is iterative: a chain far deeper than the
    # interpreter's recursion limit loads, predicts and yields importances,
    # and hashes and compares by identity without walking it.
    # Node i (i = 0 deepest) splits revenue growth (even i) or profit
    # margin (odd i) at i + 0.5; its right child is a leaf with counts
    # (i, 1), its left child the node below.
    depth = 5000
    shape = leaf(1, 0)
    for i in range(depth):
        shape = split((0, 3)[i % 2], i + 0.5, shape, leaf(i, 1))
    tree = tree_from_tuple(shape)
    assert hash(tree) == hash(tree) and tree == tree
    assert tree != tree_from_tuple(shape)
    model = ForestModel(tree, ForestParams(n_trees=1, bootstrap=False))
    X = np.array([[v, 0.0, 0.0, v, 0.0, 0.0] for v in (0.0, 10.0, 1e9)])
    assert predict_forest_dataset(model, Dataset(X)).tolist() == [0.0, 1 / 10, 1 / depth]
    values, degenerate = feature_importances(model)
    assert not degenerate
    assert values[0] > 0.0 and values[3] > 0.0
    assert abs(float(values.sum()) - 1.0) <= 1e-9


# exactness at the edge of the count range

# leaf counts near 2**53: their float64 sums and squares round, while a
# Python int division rounds once
BIG_COUNTS = (
    (8014687441826738, 6902491098965293),
    (6213613670442314, 7063079316197149),
    (9001456378717380, 8046614809298885),
    (2**53, 2**53 - 1),
)


def reference_gini(c0, c1):
    return 1.0 - float(Fraction(c0 * c0 + c1 * c1, (c0 + c1) ** 2))


def reference_importances(shape, n_features=len(FEATURE_COLUMNS)):
    """Each split's weighted impurity decrease by the per-node expressions
    of ``cart.tree_importances``, on Python ints and Fractions over the
    tuple shape, added in reverse pre-order (right subtree, left subtree,
    node)."""
    acc = [0.0] * n_features
    root_total = 0

    def total(node):
        return node[1] + node[2] if node[0] == "leaf" else total(node[3]) + total(node[4])

    def visit(node):
        if node[0] == "leaf":
            return node[1], node[2]
        r0, r1 = visit(node[4])
        l0, l1 = visit(node[3])
        c0, c1 = l0 + r0, l1 + r1
        n_node, n_left, n_right = c0 + c1, l0 + l1, r0 + r1
        child = (n_left * reference_gini(l0, l1) + n_right * reference_gini(r0, r1)) / n_node
        acc[node[1]] += max(0.0, (n_node / root_total) * (reference_gini(c0, c1) - child))
        return c0, c1

    root_total = total(shape)
    visit(shape)
    return np.array(acc)


def test_leaf_fractions_and_importances_are_exact_near_2_53():
    # revenue growth (feature 0), then profit margin (feature 3) on both sides
    shape = split(
        0, 0.0, split(3, 0.0, leaf(*BIG_COUNTS[0]), leaf(*BIG_COUNTS[1])), split(3, 0.0, leaf(*BIG_COUNTS[2]), leaf(*BIG_COUNTS[3]))
    )
    model = ForestModel(tree_from_tuple(shape), ForestParams(n_trees=1, bootstrap=False))
    X = np.zeros((4, 6))
    X[:, [0, 3]] = [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]  # one row per leaf
    exact = [float(Fraction(c1, c0 + c1)) for c0, c1 in BIG_COUNTS]
    assert predict_forest_dataset(model, Dataset(X)).tolist() == exact
    # the float64 route gives other values, so the check above has teeth
    assert [c1 / float(c0 + c1) for c0, c1 in BIG_COUNTS] != exact
    raw = reference_importances(shape)
    values, degenerate = feature_importances(model)
    assert not degenerate
    assert values.tolist() == (raw / raw.sum()).tolist()
    assert np.array_equal(tree_importances(model.trees, 6)[0], raw)
    float_gini = [1.0 - (a * a + b * b) / (a + b) ** 2 for a, b in (map(float, pair) for pair in BIG_COUNTS)]
    assert float_gini != [reference_gini(*pair) for pair in BIG_COUNTS]


def test_importances_add_each_trees_splits_in_reverse_pre_order(small_forest, zero_signal_book):
    # float sums depend on their order: the table holds each tree level by
    # level, but its splits are added in reverse pre-order, as the
    # reference adds them
    for model in (small_forest, train_forest(zero_signal_book, ForestParams(n_trees=10))):
        importances = tree_importances(model.trees, 6)
        for t in range(len(model.trees)):
            assert np.array_equal(importances[t], reference_importances(tree_as_tuple(model.trees, t))), t


def test_importances_take_the_width_of_the_book_the_table_grew_on():
    # growth takes any width, so importances are sized by the caller: a
    # random 50 x 8 book whose trees split on its last column
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(50, 8)), rng.integers(0, 2, size=50)
    trees = grow_trees(X, y, [(rng.integers(0, 50, size=50), t) for t in range(10)], TreeParams())
    assert (trees.feature == 7).any()
    importances = tree_importances(trees, 8)
    assert importances.shape == (10, 8)
    for t in range(len(trees)):
        assert np.array_equal(importances[t], reference_importances(tree_as_tuple(trees, t), 8)), t


# the flat walk against the per-row oracle


def on_threshold_rows(trees, base_rows):
    """Copies of ``base_rows`` with one continuous feature set exactly to a
    split threshold of ``trees``, one copy per split (sector splits at 0.5
    are skipped: a sector is 0 or 1)."""
    out = []
    for t in range(len(trees)):
        for i, (feature, threshold) in enumerate((f, v) for f, v in split_pairs(trees, t) if f != 5):
            row = np.array(base_rows[i % len(base_rows)])
            row[feature] = threshold
            out.append(row)
    return np.array(out)


@pytest.fixture(scope="module")
def mixed_forest(small_forest):
    # bare leaves between deep trees, one leaf first so a root is a leaf
    bare = [leaf(*counts) for counts in ((3, 1), (0, 2), (5, 5))]
    grown = trees_as_tuples(small_forest.trees)
    shapes = [bare[0], *grown[:4], bare[1], bare[2], *grown[4:7]]
    return ForestModel(trees_from_tuples(shapes), ForestParams(n_trees=len(shapes), bootstrap=False))


@pytest.fixture(scope="module")
def oracle_rows(mixed_forest, strong_split):
    _, test = strong_split
    X = test.feature_matrix()
    return np.concatenate([on_threshold_rows(mixed_forest.trees, X), X])


def test_walk_matches_oracle_on_threshold_rows(mixed_forest, oracle_rows):
    assert len(oracle_rows) > 200
    probs = predict_forest_dataset(mixed_forest, Dataset(oracle_rows))
    assert probs.tolist() == oracle_soft_vote(mixed_forest.trees, oracle_rows)
    for shape in trees_as_tuples(mixed_forest.trees):
        tree = tree_from_tuple(shape)
        assert predict(tree, oracle_rows).tolist() == oracle_soft_vote(tree, oracle_rows)


@pytest.mark.parametrize("blocks, extra", [(0, 0), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_walk_matches_oracle_at_block_boundaries(mixed_forest, oracle_rows, blocks, extra):
    n_rows = blocks * (_PAIR_BUDGET // len(mixed_forest.trees)) + extra
    X = np.resize(oracle_rows, (n_rows, 6))
    assert predict_forest_dataset(mixed_forest, Dataset(X)).tolist() == oracle_soft_vote(mixed_forest.trees, X)


def test_walk_matches_oracle_with_more_trees_than_the_pair_budget(mixed_forest, oracle_rows):
    # each block then holds a single row
    shapes = trees_as_tuples(mixed_forest.trees)
    trees = trees_from_tuples([shapes[i % len(shapes)] for i in range(_PAIR_BUDGET + 1)])
    model = ForestModel(trees, ForestParams(n_trees=len(trees), bootstrap=False))
    X = oracle_rows[:3]
    assert predict_forest_dataset(model, Dataset(X)).tolist() == oracle_soft_vote(trees, X)


@pytest.mark.parametrize("n_cols", [1, 2])
def test_predict_proba_matches_oracle_on_narrow_matrices(n_cols):
    # the walk on 1- and 2-column matrices: the training rows, all-NaN rows
    # (NaN goes right at every split) and one row on each split's threshold
    rng = np.random.default_rng(n_cols)
    X = rng.integers(0, 8, size=(60, n_cols)) / 4.0
    y = rng.integers(0, 2, size=60)
    tree = grow_tree_arrays(X, y, TreeParams(features_per_split=n_cols), rng)
    assert len(split_pairs(tree)) > 3
    rows = np.concatenate([X, np.full((n_cols, n_cols), np.nan)])
    for i, (feature, threshold) in enumerate(split_pairs(tree)):
        row = np.array(X[i])
        row[feature] = threshold
        rows = np.concatenate([rows, [row]])
    assert predict(tree, rows).tolist() == oracle_soft_vote(tree, rows)


def test_scoring_memory_does_not_grow_with_the_book(strong_split):
    # pairs are walked a bounded block at a time: a whole 10,000 x 100 vote
    # matrix alone would take 7.6 MiB
    train, _ = strong_split
    forest = train_forest(train, ForestParams(n_trees=100, seed=5))
    book = generate(GeneratorConfig(n_samples=10_000, seed=4))
    tracemalloc.start()
    try:
        predict_forest_dataset(forest, book)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


# importances


def test_importances_normalized(small_forest):
    values, degenerate = feature_importances(small_forest)
    assert not degenerate
    assert values.shape == (6,)
    assert np.all(values >= 0.0)
    assert abs(float(values.sum()) - 1.0) <= 1e-9


def test_importances_degenerate_all_leaves():
    model = leaf_only_model([(2, 1)], 1)
    values, degenerate = feature_importances(model)
    assert degenerate
    assert np.all(values == 0.0)


def test_single_signal_feature_ranks_first():
    cfg = GeneratorConfig(
        n_samples=400,
        seed=5,
        signal_strength=2.0,
        coefficients=SignalCoefficients(
            debt_equity_ratio=1.2,
            cash_flow_variability=0.0,
            revenue_growth=0.0,
            profit_margin=0.0,
            commodity_sector=0.0,
            high_leverage_step=1.0,
            covenant_breach=0.0,
        ),
    )
    model = train_forest(generate(cfg), ForestParams(n_trees=30, seed=1))
    values, degenerate = feature_importances(model)
    assert not degenerate
    ranked = sorted(zip(model.feature_names, values), key=lambda kv: -kv[1])
    assert ranked[0][0] == "Debt_Equity_Ratio"


# serialization


def test_forest_json_round_trip(small_forest, strong_split):
    _, test = strong_split
    doc = json.loads(model_to_json_text(small_forest))
    assert doc["model_type"] == "random_forest"
    assert doc["feature_names"] == list(FEATURE_COLUMNS)
    assert "importances" not in doc and sorted(doc["trees"]) == ["count_0", "count_1", "feature", "threshold"]
    back = model_from_json_document(doc)
    assert np.array_equal(predict_forest_dataset(small_forest, test), predict_forest_dataset(back, test))


def test_forest_json_importances_recomputed_exactly(small_forest):
    text = model_to_json_text(small_forest)
    back = model_from_json_document(json.loads(text))
    assert np.array_equal(tree_importances(back.trees, 6), tree_importances(small_forest.trees, 6))
    assert model_to_json_text(back) == text


def assert_saved_and_loaded_array_equal(model, path):
    """Save and load ``model``; every array of the table comes back with
    its dtype and values."""
    save_model(model, path)
    back = load_model(path)
    for name in ("feature", "threshold", "child", "count_0", "count_1", "roots", "value"):
        grown, read = getattr(model.trees, name), getattr(back.trees, name)
        assert grown.dtype == read.dtype and np.array_equal(grown, read), name
    assert back.trees.depth == model.trees.depth
    return back


def test_grown_and_reloaded_tables_are_array_equal(small_forest, tmp_path):
    back = assert_saved_and_loaded_array_equal(small_forest, tmp_path / "forest.json")
    assert len(small_forest.trees) == len(back.trees) == small_forest.params.n_trees == 15
    # a split's children lie after it in its own tree, indexed in the whole
    # table, and a leaf is its own child
    trees = back.trees
    assert trees.roots[0] == 0 and (np.diff(trees.roots) > 0).all()
    for t in range(len(trees)):
        start, stop = span(trees, t)
        child, node = trees.child[start:stop], np.arange(start, stop)
        split = trees.feature[start:stop] >= 0
        assert ((child > node) & (child + 1 < stop) == split).all(), t
        assert (child[~split] == node[~split]).all(), t


def test_a_zero_signal_forest_reloads_array_equal(zero_signal_book, tmp_path):
    model = train_forest(zero_signal_book, ForestParams(n_trees=10))
    assert_saved_and_loaded_array_equal(model, tmp_path / "forest.json")


def oracle_forest_text(model):
    """The forest file as ``json.dumps`` writes it, with ``trees`` the node
    columns of the oracle's tuple shapes, each on one line."""
    doc = {
        "feature_names": list(FEATURE_COLUMNS),
        "format_version": 3,
        "model_type": "random_forest",
        "params": to_json_dict(model.params),
        "trees": "TREES",
    }
    columns = tuples_to_columns(trees_as_tuples(model.trees))
    members = ",\n".join(f'    "{name}": {json.dumps(columns[name])}' for name in sorted(columns))
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    return text.replace('"TREES"', "{\n" + members + "\n  }")


def forest_of(shapes):
    return ForestModel(trees_from_tuples(shapes), ForestParams(n_trees=len(shapes)))


_counts = st.tuples(st.integers(0, 2**53), st.integers(0, 2**53)).filter(lambda counts: counts != (0, 0))
_shapes = st.recursive(
    _counts.map(lambda counts: leaf(*counts)),
    lambda children: st.builds(
        split, st.integers(0, 5), st.floats(allow_nan=False, allow_infinity=False), children, children
    ),
    max_leaves=24,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(_shapes, min_size=1, max_size=4))
def test_forest_text_matches_json_dumps_of_the_oracle_documents(shapes):
    model = forest_of(shapes)
    assert model_to_json_text(model) == oracle_forest_text(model)


def chain(depth):
    """A tree ``depth`` levels deep: each split's left child is a leaf and
    its right child the next split."""
    shape = leaf(1, 0)
    for d in range(depth):
        shape = split(d % 6, float(d), leaf(d, 1), shape)
    return shape


def balanced(depth, leaves):
    """A full tree ``depth`` levels deep whose 2**depth leaves take the
    (count_0, count_1) pairs of ``leaves`` in turn."""
    level = [leaf(*leaves[i % len(leaves)]) for i in range(2**depth)]
    for d in reversed(range(depth)):
        level = [split(d % 6, float(d), level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


# a tree of 94,906,265 rows, the most whose square stays below 2**53, and
# one of a row more
_EDGE_ROWS = [split(0, 0.0, leaf(47453132, 1), leaf(1, 47453131)), split(1, 0.0, leaf(47453132, 1), leaf(1, 47453132))]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(_shapes, min_size=1, max_size=4))
@example([chain(7), split(3, 0.5, leaf(5, 2), split(1, -1.0, leaf(0, 4), leaf(3, 3))), leaf(2, 2)])  # small counts
@example([balanced(4, [(1, 0), (2, 3), (0, 5)]), chain(12)])
@example(_EDGE_ROWS[:1])
@example(_EDGE_ROWS)
# 2,048 leaves of about 2**53 rows each: summed in int64, the tree's rows
# wrap to -14,336
@example([balanced(11, [(2**53, 2**53 - 7), (2**53 - 7, 2**53)])])
def test_importances_match_the_reference_bit_for_bit_on_random_tables(shapes):
    importances = tree_importances(forest_of(shapes).trees, 6)
    for t, shape in enumerate(shapes):
        assert np.array_equal(importances[t].view(np.int64), reference_importances(shape).view(np.int64)), t


# each table's depth and the sha256 of its importances' bytes, as the
# per-node depth-first fold computed them: ``reference_importances``
# recurses, so it cannot take 1,500 levels
DEEP_IMPORTANCES = {
    "chain(1500)": (1500, "e9ffce964b8f2f94941a12fba43b5787998e875f27aeb512a1a24d4e4a680745"),
    "zero signal, 20 trees": (27, "b4924e75c1f494e03f3b6180a42fa8db1b2ca4058f241e02a27979a293672949"),
}


@pytest.mark.parametrize("case", DEEP_IMPORTANCES)
def test_importances_of_deep_tables_are_pinned(case):
    if case == "chain(1500)":
        trees = tree_from_tuple(chain(1500))
    else:
        book = generate(GeneratorConfig(n_samples=1000, seed=5, signal_strength=0.0))
        trees = train_forest(book, ForestParams(n_trees=20)).trees
    depth, digest = DEEP_IMPORTANCES[case]
    assert trees.depth == depth
    assert hashlib.sha256(tree_importances(trees, 6).tobytes()).hexdigest() == digest


# rows as indices into ``assert_walk_matches_oracle``'s pool of values;
# the explicit picks give each of up to 60 values to every feature at once,
# then mix them across the features
_PICKS = st.lists(st.lists(st.integers(0, 2**16), min_size=6, max_size=6), max_size=24)
_EVERY_VALUE = [[i] * 6 for i in range(60)] + [[i, i + 7, i + 1, i + 5, i + 2, i + 3] for i in range(60)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(_shapes, min_size=1, max_size=4), _PICKS)
@example([chain(cart._COMPACT_EVERY + 1), chain(2), leaf(2, 3)], _EVERY_VALUE)  # a depth between two drops
@example([chain(3), chain(2 * cart._COMPACT_EVERY + 3)], _EVERY_VALUE)
@example([leaf(1, 0), leaf(0, 3), leaf(2, 2)], _EVERY_VALUE)  # depth 0: no level is walked
def test_walk_matches_oracle_on_random_tables(shapes, picks):
    assert_walk_matches_oracle(shapes, picks)


def test_walk_matches_oracle_on_a_1500_level_chain():
    # the explicit example hypothesis cannot take: it prints each example's
    # arguments, and a 1,500-level tuple nests past its recursion limit
    assert_walk_matches_oracle([chain(1500)], [[i] * 6 for i in (0, 1, 2, 5, 6, 7, 100, 2000, 4499, 4504)])


def assert_walk_matches_oracle(shapes, picks):
    """The forest of ``shapes`` scores rows as the oracle does. Row values
    are picked by index from every split's threshold and its float
    neighbours, signed zeros, +-inf and NaN; a Dataset holds only
    schema-valid values, so the book is a bare matrix."""
    model = forest_of(shapes)
    thresholds = model.trees.threshold[model.trees.feature >= 0].tolist()
    pool = [0.0, -0.0, math.inf, -math.inf, math.nan]
    pool += [w for v in thresholds for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
    X = np.array([[pool[i % len(pool)] for i in row] for row in picks]).reshape(-1, 6)
    book = SimpleNamespace(feature_matrix=lambda: X)
    assert predict_forest_dataset(model, book).tolist() == oracle_soft_vote(model.trees, X)


WRITER_CASES = {
    "bare leaf root": [leaf(3, 4)],
    "negative zero threshold": [split(0, -0.0, leaf(1, 0), leaf(0, 1))],
    "subnormal threshold": [split(1, 5e-324, leaf(1, 0), leaf(0, 1))],
    "huge threshold": [split(2, 1e308, leaf(1, 0), split(3, -1e308, leaf(2, 1), leaf(1, 2)))],
    "inexact threshold": [split(5, 0.1 + 0.2, leaf(1, 0), leaf(0, 1))],
    "extreme counts": [split(4, 0.5, leaf(0, 2**53), leaf(2**53, 0))],
    "several trees": [
        leaf(0, 1),
        split(0, 1.5, split(1, -2.25, leaf(5, 1), leaf(1, 5)), leaf(0, 3)),
        split(2, 0.0, leaf(2, 0), split(4, 7.0, split(5, 1e-9, leaf(1, 1), leaf(4, 0)), leaf(0, 9))),
    ],
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_saved_forest_matches_json_dumps_of_the_oracle_documents(case, tmp_path):
    model = forest_of(WRITER_CASES[case])
    path = tmp_path / "forest.json"
    save_model(model, path)
    assert path.read_bytes() == oracle_forest_text(model).encode()
    back = load_model(path)
    assert trees_as_tuples(back.trees) == WRITER_CASES[case]


def test_a_tree_at_the_depth_bound_saves_and_loads_back(tmp_path):
    # 512 levels, the deepest tree format 1 could save; later formats have no bound
    shape = chain(512)
    model = ForestModel(tree_from_tuple(shape), ForestParams(n_trees=1))
    back = assert_saved_and_loaded_array_equal(model, tmp_path / "deep.json")
    assert trees_as_tuples(back.trees) == [shape]


def test_a_5000_level_chain_saves_and_loads_back(tmp_path):
    # a file stores flat columns, so no tree is too deep to save or load
    model = ForestModel(tree_from_tuple(chain(5000)), ForestParams(n_trees=1))
    back = assert_saved_and_loaded_array_equal(model, tmp_path / "deep.json")
    # level d holds the leaf (d, 1) and the split below, so split 2d's
    # children are 2d + 1 and 2d + 2
    assert back.trees.child[:-1:2].tolist() == list(range(1, 10000, 2)) and back.trees.depth == 5000


def test_forest_json_absent_params_take_defaults(small_forest, strong_split):
    _, test = strong_split
    doc = json.loads(model_to_json_text(small_forest))
    doc["params"] = {"n_trees": 15, "seed": 5}  # bootstrap and tree_params left out
    back = model_from_json_document(doc)
    assert back.params == small_forest.params
    assert np.array_equal(predict_forest_dataset(back, test), predict_forest_dataset(small_forest, test))
    with pytest.raises(ModelFormatError, match="params.n_treez"):
        model_from_json_document(dict(doc, params={"n_trees": 15, "n_treez": 15}))


def test_forest_json_rejects_bad_documents(small_forest):
    doc = json.loads(model_to_json_text(small_forest))
    with pytest.raises(ModelFormatError):
        model_from_json_document(dict(doc, format_version="999"))
    with pytest.raises(ModelFormatError):
        model_from_json_document(dict(doc, model_type="logistic"))
    broken = dict(doc)
    del broken["trees"]
    with pytest.raises(ModelFormatError):
        model_from_json_document(broken)
    with pytest.raises(ModelFormatError):
        model_from_json_document(dict(doc, trees=[{"count_0": 1}] * 15))
    with pytest.raises(ModelFormatError):
        model_from_json_document(dict(doc, feature_names=list(FEATURE_COLUMNS[:3])))
    with pytest.raises(ModelFormatError):
        model_from_json_document(dict(doc, params=dict(doc["params"], n_trees=14)))  # the file holds 15 trees
