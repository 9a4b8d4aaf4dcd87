"""Bootstrap-aggregated tree ensemble with impurity-based feature importance.

Each tree draws all of its randomness (bootstrap rows, then per-node
feature subsets) from its own substream, seeded by mixing the master seed
with the tree index. A tree is therefore a pure function of
(training data, params, tree index): trees can be trained in any order or
concurrently and the model comes out identical, and growing a forest by
more trees never changes the trees already trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cart import (
    Leaf,
    TreeNode,
    TreeParams,
    grow_tree_arrays,
    predict_vector,
    tree_from_json_dict,
    tree_to_json_dict,
)
from .dataset import Dataset, FEATURE_COLUMNS
from .errors import DegenerateLabelsError, ModelFormatError, ParameterError
from .seeding import substream
from .serialize import MODEL_FORMAT_VERSION, check_model_envelope


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    tree_params: TreeParams = field(default_factory=TreeParams)
    bootstrap: bool = True
    seed: int = 42

    def __post_init__(self):
        if not isinstance(self.n_trees, int) or self.n_trees < 1:
            raise ParameterError(f"n_trees must be a positive integer, got {self.n_trees!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")

    def to_json_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "tree_params": self.tree_params.to_json_dict(),
            "bootstrap": self.bootstrap,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ForestParams":
        return cls(
            n_trees=int(doc["n_trees"]),
            tree_params=TreeParams.from_json_dict(doc["tree_params"]),
            bootstrap=bool(doc["bootstrap"]),
            seed=int(doc["seed"]),
        )


@dataclass(eq=False)
class ForestModel:
    """Trained ensemble. ``per_tree_importances`` holds one row per tree:
    the total size-weighted impurity decrease credited to each feature by
    that tree's splits."""

    trees: tuple[TreeNode, ...]
    params: ForestParams
    feature_names: tuple[str, ...]
    per_tree_importances: np.ndarray

    def __post_init__(self):
        if len(self.trees) != self.params.n_trees:
            raise ParameterError(
                f"model holds {len(self.trees)} trees but params say {self.params.n_trees}"
            )
        if self.per_tree_importances.shape != (len(self.trees), len(self.feature_names)):
            raise ParameterError("per-tree importance matrix shape does not match trees/features")
        if (self.per_tree_importances < 0).any():
            raise ParameterError("importance accumulators must be non-negative")


def bootstrap_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws with replacement from [0, n)."""
    if n < 1:
        raise ParameterError(f"bootstrap needs at least one row, got n={n}")
    return rng.integers(0, n, size=n)


def _tree_importance_accumulator(tree: TreeNode, n_features: int) -> np.ndarray:
    """Total weighted impurity decrease per feature, recomputed from node
    counts alone so a deserialized tree yields bit-identical accumulators."""
    acc = np.zeros(n_features)
    counts: dict[int, tuple[int, int]] = {}
    internal_nodes = []
    stack: list[tuple[TreeNode, bool]] = [(tree, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Leaf):
            counts[id(node)] = (node.counts.count_0, node.counts.count_1)
        elif not children_done:
            stack.append((node, True))
            stack.append((node.left, False))
            stack.append((node.right, False))
        else:
            l0, l1 = counts[id(node.left)]
            r0, r1 = counts[id(node.right)]
            counts[id(node)] = (l0 + r0, l1 + r1)
            internal_nodes.append(node)

    root_total = sum(counts[id(tree)])

    def impurity(c0: int, c1: int) -> float:
        n = c0 + c1
        return 1.0 - (c0 * c0 + c1 * c1) / (n * n)

    for node in internal_nodes:
        c0, c1 = counts[id(node)]
        l0, l1 = counts[id(node.left)]
        r0, r1 = counts[id(node.right)]
        n_node = c0 + c1
        n_left = l0 + l1
        n_right = r0 + r1
        child_impurity = (n_left * impurity(l0, l1) + n_right * impurity(r0, r1)) / n_node
        decrease = (n_node / root_total) * (impurity(c0, c1) - child_impurity)
        # accepted splits decrease impurity exactly; the clamp only guards
        # float rounding of near-tie splits at extreme node sizes
        acc[node.feature] += max(0.0, decrease)
    return acc


def train_single_tree(X: np.ndarray, y: np.ndarray, params: ForestParams, tree_index: int) -> TreeNode:
    """Tree number ``tree_index`` of the forest: a pure function of its
    arguments, independent of any other tree."""
    rng = substream(params.seed, tree_index)
    if params.bootstrap:
        idx = bootstrap_indices(len(y), rng)
        return grow_tree_arrays(X[idx], y[idx], params.tree_params, rng)
    return grow_tree_arrays(X, y, params.tree_params, rng)


def train_forest(train: Dataset, params: ForestParams) -> ForestModel:
    """Train ``params.n_trees`` trees on bootstrap samples of ``train``."""
    y = train.labels()
    if len(np.unique(y)) < 2:
        raise DegenerateLabelsError("training set contains a single class; a forest needs both")
    X = train.feature_matrix()
    trees = tuple(train_single_tree(X, y, params, t) for t in range(params.n_trees))
    per_tree = np.stack([_tree_importance_accumulator(tree, X.shape[1]) for tree in trees])
    return ForestModel(
        trees=trees,
        params=params,
        feature_names=FEATURE_COLUMNS,
        per_tree_importances=per_tree,
    )


def predict_forest_vector(model: ForestModel, x: np.ndarray) -> tuple[int, float]:
    """Soft vote over one feature row: mean of per-tree leaf class-1
    fractions; label = 1 iff that mean is >= 0.5."""
    probs = np.array([predict_vector(tree, x)[1] for tree in model.trees])
    p = float(np.mean(probs))
    return (1 if p >= 0.5 else 0), p


def predict_forest_dataset(model: ForestModel, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(labels, probabilities) arrays over a whole dataset."""
    pairs = [predict_forest_vector(model, x) for x in dataset.feature_matrix()]
    labels = np.array([lab for lab, _ in pairs], dtype=np.int64)
    probs = np.array([p for _, p in pairs])
    return labels, probs


def feature_importances(model: ForestModel) -> tuple[np.ndarray, bool]:
    """Normalized mean-decrease-in-impurity vector and a degeneracy flag.

    The flag is set (and the vector is all zeros) only when every tree is a
    bare leaf, so no split ever reduced impurity.
    """
    raw = model.per_tree_importances.mean(axis=0)
    total = float(raw.sum())
    if total == 0.0:
        return np.zeros(len(model.feature_names)), True
    return raw / total, False


def forest_to_json_document(model: ForestModel) -> dict:
    values, _ = feature_importances(model)
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "model_type": "random_forest",
        "params": model.params.to_json_dict(),
        "feature_names": list(model.feature_names),
        "trees": [tree_to_json_dict(tree) for tree in model.trees],
        "importances": [float(v) for v in values],
    }


def forest_from_json_document(doc: dict) -> ForestModel:
    check_model_envelope(doc, expected_type="random_forest")
    try:
        params = ForestParams.from_json_dict(doc["params"])
        feature_names = tuple(str(name) for name in doc["feature_names"])
        if feature_names != FEATURE_COLUMNS:
            raise ValueError(f"feature_names {list(feature_names)} differ from {list(FEATURE_COLUMNS)}")
        trees = tuple(tree_from_json_dict(t) for t in doc["trees"])
        return ForestModel(
            trees=trees,
            params=params,
            feature_names=feature_names,
            per_tree_importances=np.stack(
                [_tree_importance_accumulator(tree, len(feature_names)) for tree in trees]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed random_forest document: {exc!r}") from None
