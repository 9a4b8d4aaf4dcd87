"""Random forest tests: bootstrap behaviour, ensemble equivalences,
thread-order independence, prediction against the per-row oracle walk,
scoring memory, importances, and serialization."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from oracles import leaf, oracle_soft_vote, split, tree_as_tuple, tree_from_tuple
from smerisk import cart
from smerisk.cart import (
    TreeParams,
    grow_tree_arrays,
    predict_proba,
    tree_from_json_dict,
    tree_importances,
    tree_to_json_dict,
)
from smerisk.dataset import FEATURE_COLUMNS, Dataset
from smerisk.errors import DegenerateLabelsError, ModelFormatError, ParameterError
from smerisk.experiment import model_from_json_document, model_to_json_document
from smerisk.serialize import from_json_dict, to_json_dict
from smerisk.forest import (
    _PAIR_BUDGET,
    ForestModel,
    ForestParams,
    bootstrap_indices,
    feature_importances,
    forest_to_json_document,
    predict_forest_dataset,
    train_forest,
    train_single_tree,
)
from smerisk.logit import to_labels
from smerisk.seeding import substream
from smerisk.synthgen import GeneratorConfig, SignalCoefficients, generate


@pytest.fixture(scope="module")
def small_forest(strong_split):
    train, _ = strong_split
    return train_forest(train, ForestParams(n_trees=15, seed=5))


def per_tree_importances(model):
    return np.stack([tree_importances(tree) for tree in model.trees])


def leaf_only_model(leaves, n_trees):
    """A model of bare-leaf trees, from (count_0, count_1) pairs."""
    trees = tuple(tree_from_tuple(leaf(*counts)) for counts in leaves)
    return ForestModel(trees, ForestParams(n_trees=n_trees, bootstrap=False, seed=0))


def split_pairs(tree):
    """(feature, threshold) of every split of ``tree``, in pre-order."""
    at = np.flatnonzero(tree.feature >= 0)
    return list(zip(tree.feature[at].tolist(), tree.threshold[at].tolist()))


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
    assert per_tree_importances(small_forest).shape == (15, 6)
    assert np.all(per_tree_importances(small_forest) >= 0.0)


def test_forest_beats_coin_flip(small_forest, strong_split):
    _, test = strong_split
    labels = to_labels(predict_forest_dataset(small_forest, test))
    assert np.mean(labels == test.labels()) > 0.6


def test_train_forest_rejects_single_class():
    rows = [[0.01 * i, 0.3, 1.5, 0.12, 0.8, 0] for i in range(12)]
    with pytest.raises(DegenerateLabelsError):
        train_forest(Dataset(rows, [1] * 12), ForestParams(n_trees=2))


def test_train_forest_deterministic(strong_split):
    train, _ = strong_split
    params = ForestParams(n_trees=6, seed=13)
    a = forest_to_json_document(train_forest(train, params))
    b = forest_to_json_document(train_forest(train, params))
    assert a == b


def test_tree_seeds_independent_of_training_order(strong_split):
    # Per-tree seeds are derived from (forest seed, tree index), so
    # training trees concurrently yields the same forest as sequentially.
    train, _ = strong_split
    X = train.feature_matrix()
    y = train.labels()
    params = ForestParams(n_trees=12, seed=21)
    sequential = [train_single_tree(X, y, params, i) for i in range(12)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda i: train_single_tree(X, y, params, i), range(12)))
    assert [tree_as_tuple(t) for t in sequential] == [tree_as_tuple(t) for t in threaded]


def test_forest_prefix_stable(strong_split):
    # Growing the ensemble re-trains nothing: the first k trees of a
    # larger forest equal the k-tree forest under the same seed.
    train, _ = strong_split
    small = train_forest(train, ForestParams(n_trees=5, seed=2))
    large = train_forest(train, ForestParams(n_trees=9, seed=2))
    assert [tree_as_tuple(t) for t in large.trees[:5]] == [
        tree_as_tuple(t) for t in small.trees
    ]


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
    assert np.array_equal(predict_forest_dataset(forest, test), predict_proba(bare, test.feature_matrix()))



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


@pytest.mark.parametrize("budget", ["default", "one element", "one root node", "2^30", "one tree at a time"])
@pytest.mark.parametrize("case", [*LOCKSTEP_CASES, "zero signal, deep"])
def test_lockstep_forest_equals_its_trees_grown_alone(strong_split, zero_signal_book, monkeypatch, case, budget):
    # every tree of one lockstep growth equals the tree grown on its own,
    # however the step and row budgets cut the growth into steps
    if case == "zero signal, deep":
        train, params = zero_signal_book, ForestParams(n_trees=8, seed=8)
    else:
        train, params = strong_split[0], LOCKSTEP_CASES[case]
    k = params.tree_params.resolve_features_per_split(6)
    if budget == "one element":
        monkeypatch.setattr(cart, "_STEP_BUDGET", 1)
    elif budget == "one root node":
        monkeypatch.setattr(cart, "_STEP_BUDGET", len(train) * k)
    elif budget == "2^30":
        monkeypatch.setattr(cart, "_STEP_BUDGET", 2**30)
    elif budget == "one tree at a time":
        monkeypatch.setattr(cart, "_ROW_BUDGET", 1)
    forest = train_forest(train, params)
    X, y = train.feature_matrix(), train.labels()
    for t, tree in enumerate(forest.trees):
        assert tree_to_json_dict(tree) == tree_to_json_dict(train_single_tree(X, y, params, t)), f"tree {t}"


def test_training_memory_does_not_grow_with_the_tree_count():
    # trees start growing only while the rows they hold stay under a
    # budget, and a step scores a bounded number of elements: 40 trees on
    # a 20,000-row book peak close to 4 trees
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
    per_tree = np.column_stack([predict_proba(t, X) for t in small_forest.trees])
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
    doc = {"count_0": 1, "count_1": 0}
    for i in range(depth):
        doc = {"feature": (0, 3)[i % 2], "threshold": i + 0.5, "left": doc, "right": {"count_0": i, "count_1": 1}}
    tree = tree_from_json_dict(doc)
    assert hash(tree) == hash(tree) and tree == tree
    assert tree != tree_from_json_dict(doc)
    model = ForestModel((tree,), ForestParams(n_trees=1, bootstrap=False))
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


def reference_importances(shape):
    """Each split's weighted impurity decrease by the per-node expressions
    of ``cart.tree_importances``, on Python ints and Fractions over the
    tuple shape, added in reverse pre-order (right subtree, left subtree,
    node)."""
    acc = [0.0] * len(FEATURE_COLUMNS)
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
    model = ForestModel((tree_from_tuple(shape),), ForestParams(n_trees=1, bootstrap=False))
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
    assert np.array_equal(cart.tree_importances(model.trees[0]), raw)
    float_gini = [1.0 - (a * a + b * b) / (a + b) ** 2 for a, b in (map(float, pair) for pair in BIG_COUNTS)]
    assert float_gini != [reference_gini(*pair) for pair in BIG_COUNTS]


# the flat walk against the per-row oracle


def on_threshold_rows(trees, base_rows):
    """Copies of ``base_rows`` with one continuous feature set exactly to a
    split threshold of ``trees``, one copy per split (sector splits at 0.5
    are skipped: a sector is 0 or 1)."""
    out = []
    for tree in trees:
        for i, (feature, threshold) in enumerate((f, t) for f, t in split_pairs(tree) if f != 5):
            row = np.array(base_rows[i % len(base_rows)])
            row[feature] = threshold
            out.append(row)
    return np.array(out)


@pytest.fixture(scope="module")
def mixed_forest(small_forest):
    # bare leaves between deep trees, one leaf first so a root is a leaf
    bare = [tree_from_tuple(leaf(*counts)) for counts in ((3, 1), (0, 2), (5, 5))]
    trees = (bare[0],) + small_forest.trees[:4] + (bare[1], bare[2]) + small_forest.trees[4:7]
    return ForestModel(trees, ForestParams(n_trees=len(trees), bootstrap=False))


@pytest.fixture(scope="module")
def oracle_rows(mixed_forest, strong_split):
    _, test = strong_split
    X = test.feature_matrix()
    return np.concatenate([on_threshold_rows(mixed_forest.trees, X), X])


def test_walk_matches_oracle_on_threshold_rows(mixed_forest, oracle_rows):
    assert len(oracle_rows) > 200
    probs = predict_forest_dataset(mixed_forest, Dataset(oracle_rows))
    assert probs.tolist() == oracle_soft_vote(mixed_forest.trees, oracle_rows)
    for tree in mixed_forest.trees:
        assert predict_proba(tree, oracle_rows).tolist() == oracle_soft_vote([tree], oracle_rows)


@pytest.mark.parametrize("blocks, extra", [(0, 0), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_walk_matches_oracle_at_block_boundaries(mixed_forest, oracle_rows, blocks, extra):
    n_rows = blocks * (_PAIR_BUDGET // len(mixed_forest.trees)) + extra
    X = np.resize(oracle_rows, (n_rows, 6))
    assert predict_forest_dataset(mixed_forest, Dataset(X)).tolist() == oracle_soft_vote(mixed_forest.trees, X)


def test_walk_matches_oracle_with_more_trees_than_the_pair_budget(mixed_forest, oracle_rows):
    # each block then holds a single row
    trees = tuple(mixed_forest.trees[i % len(mixed_forest.trees)] for i in range(_PAIR_BUDGET + 1))
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
    assert predict_proba(tree, rows).tolist() == oracle_soft_vote([tree], rows)


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
    doc = model_to_json_document(small_forest)
    assert doc["model_type"] == "random_forest"
    assert doc["feature_names"] == list(FEATURE_COLUMNS)
    back = model_from_json_document(doc)
    assert np.array_equal(predict_forest_dataset(small_forest, test), predict_forest_dataset(back, test))


def test_forest_json_importances_recomputed_exactly(small_forest):
    doc = model_to_json_document(small_forest)
    back = model_from_json_document(doc)
    assert np.array_equal(per_tree_importances(back), per_tree_importances(small_forest))
    assert model_to_json_document(back) == doc


def test_forest_json_absent_params_take_defaults(small_forest, strong_split):
    _, test = strong_split
    doc = model_to_json_document(small_forest)
    doc["params"] = {"n_trees": 15, "seed": 5}  # bootstrap and tree_params left out
    back = model_from_json_document(doc)
    assert back.params == small_forest.params
    assert np.array_equal(predict_forest_dataset(back, test), predict_forest_dataset(small_forest, test))
    with pytest.raises(ModelFormatError, match="params.n_treez"):
        model_from_json_document(dict(doc, params={"n_trees": 15, "n_treez": 15}))


def test_forest_json_rejects_bad_documents(small_forest):
    doc = model_to_json_document(small_forest)
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
        model_from_json_document(dict(doc, trees=doc["trees"][:-1]))  # params say 15 trees
