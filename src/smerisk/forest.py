"""Bootstrap-aggregated tree ensemble with impurity-based feature importance.

Each tree draws all of its randomness (bootstrap rows, then per-node
feature subsets) from its own substream, seeded by mixing the master seed
with the tree index. A tree is therefore a pure function of
(training data, params, tree index): trees can be trained in any order or
concurrently and the model comes out identical, and growing a forest by
more trees never changes the trees already trained. ``train_forest``
grows all trees with one ``cart.grow_trees`` call, in lockstep, and
draws each tree's bootstrap only when the grower's row budget lets that
tree start, so its memory does not grow with the tree count;
``train_single_tree`` grows one tree alone and gives the same tree.

A model holds its trees as ``cart.Tree`` node arrays, one record per
tree. ``predict_forest_dataset`` is the one prediction path: a soft vote
(the mean of the trees' leaf class-1 fractions). It joins the trees into
one node table once per call and walks the book in blocks of a fixed
budget of (row, tree) pairs, so its memory grows with neither the book
nor the tree count. Labels are left to ``logit.to_labels``. Importances
are computed from leaf counts when asked for, so a reloaded model gives
them bit for bit and a model loaded only to score never computes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cart import (
    Tree,
    TreeParams,
    grow_tree_arrays,
    grow_trees,
    join_trees,
    leaf_values,
    tree_from_json_dict,
    tree_importances,
    tree_to_json_dict,
)
from .dataset import Dataset, FEATURE_COLUMNS
from .errors import DegenerateLabelsError, ParameterError
from .seeding import substream
from .serialize import from_json_dict, to_json_dict


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    tree_params: TreeParams = field(default_factory=TreeParams)
    bootstrap: bool = True
    seed: int = 42

    def __post_init__(self):
        if type(self.n_trees) is not int or self.n_trees < 1:
            raise ParameterError(f"n_trees must be a positive integer, got {self.n_trees!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        if type(self.bootstrap) is not bool:
            raise ParameterError(f"bootstrap must be true or false, got {self.bootstrap!r}")


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Trained ensemble: one ``Tree`` per ``params.n_trees``."""

    trees: tuple[Tree, ...]
    params: ForestParams
    feature_names = FEATURE_COLUMNS

    def __post_init__(self):
        if len(self.trees) != self.params.n_trees:
            raise ParameterError(
                f"model holds {len(self.trees)} trees but params say {self.params.n_trees}"
            )


def bootstrap_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws with replacement from [0, n)."""
    if n < 1:
        raise ParameterError(f"bootstrap needs at least one row, got n={n}")
    return rng.integers(0, n, size=n)


def _tree_job(n: int, params: ForestParams, tree_index: int) -> tuple[np.ndarray, np.random.Generator]:
    """Tree ``tree_index``'s training rows, drawn first from its substream
    when bootstrapping, and the substream it goes on to draw from."""
    rng = substream(params.seed, tree_index)
    return (bootstrap_indices(n, rng) if params.bootstrap else np.arange(n)), rng


def train_single_tree(X: np.ndarray, y: np.ndarray, params: ForestParams, tree_index: int) -> Tree:
    """Tree number ``tree_index`` of the forest: a pure function of its
    arguments, independent of any other tree."""
    rows, rng = _tree_job(len(y), params, tree_index)
    return grow_tree_arrays(X[rows], y[rows], params.tree_params, rng)


def train_forest(train: Dataset, params: ForestParams) -> ForestModel:
    """Train ``params.n_trees`` trees on bootstrap samples of ``train``,
    grown together by one ``grow_trees`` call; each tree equals
    ``train_single_tree`` of its index."""
    y = train.labels()
    if len(np.unique(y)) < 2:
        raise DegenerateLabelsError("training set contains a single class; a forest needs both")
    X = train.feature_matrix()
    jobs = (_tree_job(len(y), params, t) for t in range(params.n_trees))
    return ForestModel(tuple(grow_trees(X, y, jobs, params.tree_params)), params)


# (row, tree) pairs walked at once: smaller blocks pay the walk's per-step
# numpy overhead more often, larger ones hold bigger pair arrays. A block
# holds at least one row.
_PAIR_BUDGET = 2**14


def predict_forest_dataset(model: ForestModel, dataset: Dataset) -> np.ndarray:
    """Soft-vote class-1 probability of each row. The mean over a
    C-contiguous (rows, trees) block sums each row exactly as ``np.mean``
    over that row's own tree fractions would."""
    X = dataset.feature_matrix()
    flat = join_trees(model.trees)
    block_rows = max(1, _PAIR_BUDGET // len(model.trees))
    probs = np.empty(len(X))
    for start in range(0, len(X), block_rows):
        block = X[start : start + block_rows]
        probs[start : start + len(block)] = leaf_values(flat, block).mean(axis=1)
    return probs


def feature_importances(model: ForestModel) -> tuple[np.ndarray, bool]:
    """Normalized mean-decrease-in-impurity vector and a degeneracy flag.

    The flag is set (and the vector is all zeros) only when every tree is a
    bare leaf, so no split ever reduced impurity.
    """
    raw = np.stack([tree_importances(tree) for tree in model.trees]).mean(axis=0)
    total = float(raw.sum())
    if total == 0.0:
        return np.zeros(len(model.feature_names)), True
    return raw / total, False


@dataclass(frozen=True)
class _ForestBody:
    """A forest file's body. Its importances are checked on loading, not
    kept: a loaded model computes its own when asked."""

    params: ForestParams
    feature_names: tuple[str, ...]
    trees: tuple[dict, ...]
    importances: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        if self.feature_names != FEATURE_COLUMNS:
            raise ParameterError(f"feature_names {list(self.feature_names)!r} differ from {list(FEATURE_COLUMNS)}")


def forest_to_json_document(model: ForestModel) -> dict:
    values, _ = feature_importances(model)
    trees = tuple(tree_to_json_dict(tree) for tree in model.trees)
    return to_json_dict(_ForestBody(model.params, model.feature_names, trees, tuple(values.tolist())))


def forest_from_json_document(doc: dict) -> ForestModel:
    body = from_json_dict(_ForestBody, doc)
    trees = tuple(tree_from_json_dict(tree, f"trees[{t}]") for t, tree in enumerate(body.trees))
    return ForestModel(trees, body.params)
