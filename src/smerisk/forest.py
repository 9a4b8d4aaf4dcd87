"""Bootstrap-aggregated tree ensemble with impurity-based feature importance.

Each tree draws all of its randomness from its own substream, seeded by
mixing the master seed with the tree index: its bootstrap rows, then its
root key, from which growth hashes every node's feature subset. The two
make the tree's growth job, plain (rows, key) data (``_tree_job``), and
growth draws nothing more. A tree is therefore a pure function of
(training data, params, tree index): trees can be trained in any order
or concurrently and the model comes out identical, and growing a forest
by more trees never changes the trees already trained. ``train_forest``
grows all trees with one ``cart.grow_trees`` call, breadth first, and
draws each tree's job only when that tree starts, which waits while the
open nodes can fill a step, so its memory does not grow with the tree
count; a one-job ``grow_trees`` call on ``_tree_job`` of an index grows
that tree alone.

A model holds its trees in one ``cart.Trees`` node table, in level
order, which growth builds and importances, scoring and the model file
read as it is. ``predict_forest_dataset`` is the one prediction path: a
soft vote (the mean of the trees' leaf class-1 fractions). It walks the
book through that table in blocks of a fixed budget of (row, tree)
pairs, so its memory grows with neither the book nor the tree count.
Labels are left to ``logit.to_labels``. Importances are computed from
leaf counts when asked for, so a reloaded model gives them bit for bit
and a model loaded only to score never computes them; a forest file does
not store them. In the file, ``trees`` holds the table's four node
columns (``cart.trees_to_json``), each written on one line and spliced
into the text the ``serialize`` codec writes for the other keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cart import (
    Trees,
    TreeParams,
    grow_tree_arrays,  # unused here: perfbench's tracer wraps it in this module
    grow_trees,
    leaf_values,
    tree_importances,
    trees_from_json,
    trees_to_json,
)
from .dataset import Dataset, FEATURE_COLUMNS
from .errors import DegenerateLabelsError, ParameterError
from .seeding import substream
from .serialize import dumps_with_one_line_members, from_json_dict, to_json_dict


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    tree_params: TreeParams = field(default_factory=TreeParams)
    bootstrap: bool = True
    seed: int = 42

    def __post_init__(self):
        if type(self.n_trees) is not int or self.n_trees < 1:
            raise ParameterError(f"n_trees must be a positive integer, got {self.n_trees!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:  # mix64 reads 64 bits
            raise ParameterError(f"seed must be an integer in [0, 2**64 - 1], got {self.seed!r}")
        if type(self.bootstrap) is not bool:
            raise ParameterError(f"bootstrap must be true or false, got {self.bootstrap!r}")


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Trained ensemble: ``params.n_trees`` trees in one node table."""

    trees: Trees
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


def _tree_job(n: int, params: ForestParams, tree_index: int) -> tuple[np.ndarray, int]:
    """Tree ``tree_index``'s growth job: its training rows, drawn first from
    its substream when bootstrapping, and its root key, drawn next."""
    rng = substream(params.seed, tree_index)
    rows = bootstrap_indices(n, rng) if params.bootstrap else np.arange(n)
    return rows, int(rng.integers(2**64, dtype=np.uint64))


def train_forest(train: Dataset, params: ForestParams) -> ForestModel:
    """Train ``params.n_trees`` trees on bootstrap samples of ``train``,
    grown together by one ``grow_trees`` call; each tree equals the one
    grown alone from ``_tree_job`` of its index."""
    y = train.labels()
    if len(y) == 0 or y.min() == y.max():
        raise DegenerateLabelsError("training set contains a single class; a forest needs both")
    X = train.feature_matrix()
    jobs = (_tree_job(len(y), params, t) for t in range(params.n_trees))
    return ForestModel(grow_trees(X, y, jobs, params.tree_params), params)


# (row, tree) pairs walked at once: smaller blocks pay the walk's per-level
# numpy overhead more often, larger ones hold bigger pair arrays, which with
# a block's NaN-free rows are all the walk allocates. Scoring a 10,000-row
# book with the default model, 2**15 and 2**16 came within about 15% of
# 2**14 and 2**12 was about a third slower. A block holds at least one row.
_PAIR_BUDGET = 2**14


def predict_forest_dataset(model: ForestModel, dataset: Dataset) -> np.ndarray:
    """Soft-vote class-1 probability of each row. The mean over a
    C-contiguous (rows, trees) block sums each row exactly as ``np.mean``
    over that row's own tree fractions would."""
    X = dataset.feature_matrix()
    block_rows = max(1, _PAIR_BUDGET // len(model.trees))
    probs = np.empty(len(X))
    for start in range(0, len(X), block_rows):
        block = X[start : start + block_rows]
        probs[start : start + len(block)] = leaf_values(model.trees, block).mean(axis=1)
    return probs


def feature_importances(model: ForestModel) -> tuple[np.ndarray, bool]:
    """Normalized mean-decrease-in-impurity vector and a degeneracy flag.

    The flag is set (and the vector is all zeros) only when every tree is a
    bare leaf, so no split ever reduced impurity.
    """
    raw = tree_importances(model.trees, len(model.feature_names)).mean(axis=0)
    total = float(raw.sum())
    if total == 0.0:
        return np.zeros(len(model.feature_names)), True
    return raw / total, False


@dataclass(frozen=True)
class _ForestBody:
    """A forest file's body; ``trees`` is read by ``cart.trees_from_json``."""

    params: ForestParams
    feature_names: tuple[str, ...]
    trees: dict

    def __post_init__(self):
        if self.feature_names != FEATURE_COLUMNS:
            raise ParameterError(f"feature_names {list(self.feature_names)!r} differ from {list(FEATURE_COLUMNS)}")


def forest_to_json_text(model: ForestModel, envelope: dict) -> str:
    """The forest file's text: ``envelope`` and the body, with the node
    columns spliced in as ``trees``, the key that sorts last."""
    head = to_json_dict(_ForestBody(model.params, model.feature_names, {}))
    del head["trees"]
    return dumps_with_one_line_members({**envelope, **head}, "trees", trees_to_json(model.trees))


def forest_from_json_document(doc: dict) -> ForestModel:
    body = from_json_dict(_ForestBody, doc)
    return ForestModel(trees_from_json(body.trees), body.params)
