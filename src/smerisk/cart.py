"""CART-style binary decision trees grown on the canonical feature matrix.

Conventions, fixed so independent reimplementations agree node for node:
gini impurity, candidate thresholds at midpoints between consecutive
distinct sorted values, routing rule value <= threshold goes left, ties
broken by lowest feature index then lowest threshold, and a split is
accepted only when it strictly reduces the size-weighted mean child
impurity.

Split scoring is exact. With left counts (a, b) and right counts (c, d),
minimizing the weighted child gini is equivalent to maximizing

    S = (a^2 + b^2)/nL + (c^2 + d^2)/nR = T / D,
    T = (a^2 + b^2) * nR + (c^2 + d^2) * nL,   D = nL * nR,

where T and D are integers. A single correctly rounded division per
candidate keeps the comparison order exact for any node that fits in
int64 arithmetic (n below about two million rows), and the final
strict-improvement test against the parent is done in unbounded integers.

A tree is immutable and built one way: growth and the JSON reader list
its nodes in pre-order (scikit-learn's ``Tree`` order), a ``Leaf`` or a
(feature, threshold) pair each, and ``_assemble`` builds it bottom-up.
Each node checks its own fields, so the JSON reader only checks keys.
``preorder`` is the one walk of a finished tree; the JSON writer and
``tree_importances`` fold over it in reverse, and ``flatten`` concatenates
trees into one pre-order node table (scikit-learn's ``Tree`` arrays).
Prediction is one level-synchronous walk over that table:
``leaf_values`` advances every (row, tree) pair one depth level per step,
dropping pairs as they reach a leaf, and ``predict_proba`` is its one-tree
case. No walk recurses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dataset import FEATURE_COLUMNS
from .errors import ModelFormatError, ParameterError
from .serialize import from_json_value


def gini_impurity(count_0: int, count_1: int) -> float:
    """1 - p0^2 - p1^2, in [0, 0.5] for two classes."""
    n = count_0 + count_1
    if n == 0:
        raise ParameterError("gini impurity is undefined for an empty node")
    return 1.0 - (count_0 * count_0 + count_1 * count_1) / (n * n)


@dataclass(frozen=True)
class Leaf:
    """Terminal node: label tallies of the training rows that reached it."""

    count_0: int
    count_1: int

    def __post_init__(self):
        for name in ("count_0", "count_1"):
            v = getattr(self, name)
            if type(v) is not int or not 0 <= v <= 2**53:  # larger counts lose precision as floats
                raise ParameterError(f"{name} must be an integer in [0, 2**53], got {v!r}")
        if self.count_0 + self.count_1 < 1:
            raise ParameterError("a leaf must hold at least one row")


@dataclass(frozen=True, eq=False)
class Internal:
    """Split node: rows with x[feature] <= threshold go to ``left``.

    Compared and hashed by identity: a generated ``__eq__``/``__hash__``
    would recurse over the subtree and overflow on deep trees.
    """

    feature: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"

    def __post_init__(self):
        if type(self.feature) is not int or not 0 <= self.feature < len(FEATURE_COLUMNS):
            raise ParameterError(f"feature must be an index in [0, {len(FEATURE_COLUMNS)}), got {self.feature!r}")
        if not math.isfinite(self.threshold):
            raise ParameterError(f"threshold must be finite, got {self.threshold!r}")


TreeNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class TreeParams:
    """Growth limits. ``features_per_split=None`` resolves to
    floor(sqrt(feature count)) at training time."""

    max_depth: int | None = None
    min_samples_split: int = 2
    features_per_split: int | None = None

    def __post_init__(self):
        for name, optional in (("max_depth", True), ("min_samples_split", False), ("features_per_split", True)):
            v = getattr(self, name)
            if not (optional and v is None) and (type(v) is not int or v < 1):
                allowed = "a positive integer or None" if optional else "a positive integer"
                raise ParameterError(f"{name} must be {allowed}, got {v!r}")

    def resolve_features_per_split(self, n_features: int) -> int:
        k = self.features_per_split
        if k is None:
            k = int(math.floor(math.sqrt(n_features)))
        if k > n_features:
            raise ParameterError(f"features_per_split {k} exceeds feature count {n_features}")
        return k


def best_split(
    X: np.ndarray, y: np.ndarray, candidate_features: Sequence[int]
) -> Optional[tuple[int, float, float]]:
    """Exhaustive search for the impurity-minimizing (feature, threshold).

    Returns (feature_index, threshold, weighted_child_impurity), or None if
    no candidate strictly beats the parent impurity. Candidates are the
    midpoints between consecutive distinct sorted values of each feature.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n == 0 or len(candidate_features) == 0:
        raise ParameterError("best_split needs rows and at least one candidate feature")

    total_1 = int(y.sum())
    total_0 = n - total_1
    parent_score = total_0 * total_0 + total_1 * total_1

    best = None  # (S, feature, threshold, T, D)
    for f in sorted(int(f) for f in candidate_features):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        v = col[order]
        boundaries = np.nonzero(v[:-1] < v[1:])[0]
        if len(boundaries) == 0:
            continue
        n_left = boundaries + 1
        n_right = n - n_left
        c1_left = np.cumsum(y[order])[boundaries]
        c0_left = n_left - c1_left
        c1_right = total_1 - c1_left
        c0_right = n_right - c1_right
        A = c0_left * c0_left + c1_left * c1_left
        B = c0_right * c0_right + c1_right * c1_right
        T = A * n_right + B * n_left
        D = n_left * n_right
        S = T / D
        # argmax takes the first maximum; thresholds ascend with the sort,
        # so within a feature the lowest winning threshold is kept.
        j = int(np.argmax(S))
        if best is None or S[j] > best[0]:
            a = float(v[boundaries[j]])
            b = float(v[boundaries[j] + 1])
            threshold = (a + b) / 2.0
            if threshold == b:
                # adjacent floats can round the midpoint up onto the right
                # value; fall back to the left value so routing by
                # x <= threshold reproduces the intended partition
                threshold = a
            best = (S[j], f, threshold, int(T[j]), int(D[j]))

    if best is None:
        return None
    S_best, feature, threshold, T, D = best
    if T * n <= parent_score * D:  # exact: S <= parent impurity score
        return None
    return feature, threshold, 1.0 - S_best / n


def grow_tree_arrays(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams,
    rng: np.random.Generator,
) -> TreeNode:
    """Grow a tree on a feature matrix and 0/1 label array.

    Per node: stop with a Leaf if the node is pure, smaller than
    min_samples_split, or at the depth limit; otherwise draw a fresh random
    feature subset (skipped when the subset is all features, so full-subset
    growth consumes no randomness) and split, stopping if best_split finds
    no strict improvement.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ParameterError(f"feature matrix {X.shape} does not match {len(y)} labels")
    n, d = X.shape
    if n == 0:
        raise ParameterError("cannot grow a tree on zero rows")
    if not np.isin(y, (0, 1)).all():
        raise ParameterError("labels may contain only 0 and 1")
    k = params.resolve_features_per_split(d)

    nodes: list = []  # pre-order: a Leaf, or a (feature, threshold) split
    # LIFO with right pushed before left gives pre-order growth, so the
    # feature sampler is consumed in the same order a recursive
    # implementation would use, without recursion depth limits
    stack: list[tuple[np.ndarray, int]] = [(np.arange(n), 0)]
    while stack:
        idx, depth = stack.pop()
        sub_y = y[idx]
        n_node = len(idx)
        c1 = int(sub_y.sum())
        c0 = n_node - c1
        at_depth_limit = params.max_depth is not None and depth >= params.max_depth
        if c0 == 0 or c1 == 0 or n_node < params.min_samples_split or at_depth_limit:
            nodes.append(Leaf(c0, c1))
            continue
        features = np.sort(rng.choice(d, size=k, replace=False)) if k < d else np.arange(d)
        found = best_split(X[idx], sub_y, features)
        if found is None:
            nodes.append(Leaf(c0, c1))
            continue
        feature, threshold, _ = found
        nodes.append((feature, threshold))
        goes_left = X[idx, feature] <= threshold
        stack.append((idx[~goes_left], depth + 1))
        stack.append((idx[goes_left], depth + 1))
    return _assemble(nodes)


def _fold_up(nodes: Sequence, leaf, split):
    """The root's result of ``leaf(node)`` at leaves and ``split(node,
    left_result, right_result)`` at splits, over a pre-order node list
    walked in reverse, so that a split's children are done before it."""
    done: list = []
    for node in reversed(nodes):
        if isinstance(node, Leaf):
            done.append(leaf(node))
        else:
            left = done.pop()
            done.append(split(node, left, done.pop()))
    return done[0]


def _assemble(nodes: Sequence) -> TreeNode:
    """The tree whose pre-order is ``nodes``, splits as (feature, threshold)."""
    return _fold_up(nodes, lambda leaf: leaf, lambda pair, left, right: Internal(*pair, left, right))


def preorder(tree: TreeNode) -> list[TreeNode]:
    """Every node of ``tree`` in (node, left subtree, right subtree) order."""
    nodes = []
    stack = [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, Internal):
            stack.append(node.right)
            stack.append(node.left)
    return nodes


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """Trees concatenated into one pre-order node table.

    Node i splits on ``feature[i]`` at ``threshold[i]``; its left child is
    i + 1 (pre-order) and its right child ``right[i]``. A leaf has feature
    -1 and ``value`` its class-1 fraction. ``roots[t]`` is tree t's root.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray


def flatten(trees: Sequence[TreeNode]) -> FlatTrees:
    """The node table of ``trees``, in order."""
    feature, threshold, right, value, roots = [], [], [], [], []
    for tree in trees:
        nodes = preorder(tree)
        roots.append(len(feature))
        position = {id(node): len(feature) + i for i, node in enumerate(nodes)}
        for node in nodes:
            if isinstance(node, Leaf):
                feature.append(-1)
                threshold.append(0.0)
                right.append(-1)
                value.append(node.count_1 / (node.count_0 + node.count_1))
            else:
                feature.append(node.feature)
                threshold.append(node.threshold)
                right.append(position[id(node.right)])
                value.append(0.0)
    return FlatTrees(
        np.array(feature, dtype=np.intp),
        np.array(threshold, dtype=float),
        np.array(right, dtype=np.intp),
        np.array(value, dtype=float),
        np.array(roots, dtype=np.intp),
    )


def leaf_values(flat: FlatTrees, X: np.ndarray) -> np.ndarray:
    """The C-contiguous (rows, trees) matrix of the class-1 fraction of the
    leaf each row of ``X`` reaches in each tree.

    Every (row, tree) pair walks at once, one depth level per step, with
    pair r * n_trees + t in row-major order; a step advances only the
    pairs still at internal nodes. NaN compares false, so it goes right.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ParameterError(f"expected a 2-D feature matrix, got shape {X.shape}")
    n_rows, n_cols = X.shape
    n_trees = len(flat.roots)
    if flat.feature.max() >= n_cols:
        raise ParameterError(f"a tree splits on feature {flat.feature.max()} but X has {n_cols} columns")
    x = X.ravel()
    out = np.empty(n_rows * n_trees)
    pair = np.arange(n_rows * n_trees)
    offset = np.repeat(np.arange(n_rows) * n_cols, n_trees)  # row start in x
    node = np.tile(flat.roots, n_rows)
    while len(pair):
        feature = flat.feature.take(node)
        at_leaf = feature < 0
        if at_leaf.any():
            done = np.flatnonzero(at_leaf)
            out[pair.take(done)] = flat.value.take(node.take(done))
            keep = np.flatnonzero(~at_leaf)
            pair, offset, node, feature = (a.take(keep) for a in (pair, offset, node, feature))
        goes_left = x.take(offset + feature) <= flat.threshold.take(node)
        node = np.where(goes_left, node + 1, flat.right.take(node))
    return out.reshape(n_rows, n_trees)


def predict_proba(tree: TreeNode, X: np.ndarray) -> np.ndarray:
    """Class-1 fraction of the leaf each row of ``X`` reaches, as an (n,)
    array: the one-tree case of ``leaf_values``."""
    return leaf_values(flatten([tree]), X).ravel()


def tree_importances(tree: TreeNode) -> np.ndarray:
    """Total weighted impurity decrease per feature, from node counts alone,
    added in reverse pre-order so retraining and reloading give equal floats."""
    nodes = preorder(tree)
    root_total = sum(node.count_0 + node.count_1 for node in nodes if isinstance(node, Leaf))
    acc = np.zeros(len(FEATURE_COLUMNS))

    def split(node, left, right):
        (l0, l1), (r0, r1) = left, right
        c0, c1 = l0 + r0, l1 + r1
        n_node, n_left, n_right = c0 + c1, l0 + l1, r0 + r1
        child_impurity = (n_left * gini_impurity(l0, l1) + n_right * gini_impurity(r0, r1)) / n_node
        decrease = (n_node / root_total) * (gini_impurity(c0, c1) - child_impurity)
        # accepted splits decrease impurity exactly; the clamp only guards
        # float rounding of near-tie splits at extreme node sizes
        acc[node.feature] += max(0.0, decrease)
        return c0, c1

    _fold_up(nodes, lambda leaf: (leaf.count_0, leaf.count_1), split)
    return acc


def tree_to_json_dict(tree: TreeNode) -> dict:
    return _fold_up(
        preorder(tree),
        lambda leaf: {"count_0": leaf.count_0, "count_1": leaf.count_1},
        lambda node, left, right: {"feature": node.feature, "threshold": node.threshold, "left": left, "right": right},
    )


def tree_from_json_dict(doc: dict, path: str = "tree") -> TreeNode:
    """Read the tree document at ``path`` in its model file. The walk only
    checks each node's keys and lists the nodes in pre-order; values are
    read by the ``serialize`` rules and checked by ``Leaf`` and
    ``Internal``."""
    nodes: list = []
    stack = [doc]
    try:
        while stack:
            d = stack.pop()
            if not isinstance(d, dict):
                raise ModelFormatError(f"{path}: a tree node must be an object, got {type(d).__name__}")
            keys = set(d)
            if keys == {"count_0", "count_1"}:
                count_0 = from_json_value(int, d["count_0"], "count_0")
                nodes.append(Leaf(count_0, from_json_value(int, d["count_1"], "count_1")))
            elif keys == {"feature", "threshold", "left", "right"}:
                feature = from_json_value(int, d["feature"], "feature")
                nodes.append((feature, from_json_value(float, d["threshold"], "threshold")))
                stack.append(d["right"])
                stack.append(d["left"])
            else:
                raise ModelFormatError(f"{path}: unrecognized tree node fields {sorted(keys)}")
        return _assemble(nodes)
    except ParameterError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
