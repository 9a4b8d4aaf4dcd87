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

Growth is one path. ``grow_trees`` grows every tree of a forest in
lockstep: each step takes one splittable node from each of several trees,
every tree in its own pre-order, so each tree draws its feature subsets
in the order it would alone, and scores all of them in one exact
segmented search over per-column dense ranks computed once (one sort of
(node, feature, rank) keys, a segmented cumsum and a first argmax per
node). Two private budgets bound its memory: a step holds at most
``_STEP_BUDGET`` (row, candidate feature) elements and trees start only
while the growing ones hold fewer than ``_ROW_BUDGET`` rows; at least one
node and one tree always go ahead. ``grow_tree_arrays`` is its one-tree
case and ``best_split`` the one-node case of its search.

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
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

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


# The growth memory budgets of the module docstring: (row, candidate
# feature) elements per step, and rows of the trees growing at once.
_STEP_BUDGET = 2**12
_ROW_BUDGET = 2**17


def _dense_ranks(X: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of each column of ``X``, column after column (the rank
    of ``X[i, f]`` is at ``f * len(X) + i``), and one more than the
    largest. Equal values share a rank, so a rank change between sorted
    neighbours is the test ``v[i] < v[i+1]``."""
    ranks = np.empty(X.T.shape, dtype=np.int64)
    for f, col in enumerate(X.T):
        ranks[f] = np.unique(col, return_inverse=True)[1]
    return ranks.ravel(), int(ranks.max(initial=0)) + 1


def _best_splits(X, y, ranks, n_ranks, nodes) -> list:
    """The best split of each node, as (feature, threshold, S, left
    class-1 count), or None where no candidate strictly beats the parent.

    A node is (row ids, class-1 count, sorted candidate features), and
    every node holds the same number of candidates. All nodes are scored
    by one search: a segment is one (node, candidate) pair, one stable
    sort orders the elements by (segment, rank), and a boundary is a rank
    change inside a segment. Boundaries come out in (node, feature,
    threshold) order, so the first maximal S of a node is both the lowest
    threshold within a feature and the lowest feature across features.
    """
    sizes = [len(rows) for rows, _, _ in nodes]
    counts_1 = [c1 for _, c1, _ in nodes]
    features = np.array([f for _, _, f in nodes])
    rows = np.concatenate([rows for rows, _, _ in nodes])
    m, k = features.shape
    # element j * len(rows) + r: row rows[r] on its node's j-th candidate
    feature = np.repeat(features, sizes, axis=0).T
    segment = np.repeat(np.arange(m) * k, sizes) + np.arange(k)[:, None]
    key = (segment * n_ranks + ranks.take(feature * len(X) + rows)).ravel()
    # the element breaks ties, so sorting the values gives the stable
    # order; the product fits in int64 for nodes below two million rows
    key, element = np.divmod(np.sort(key * len(key) + np.arange(len(key))), len(key))
    row = rows.take(element % len(rows))
    left_1 = np.concatenate(([0], np.cumsum(y.take(row))))
    seg_size = np.repeat(sizes, k)
    seg_start = np.cumsum(seg_size) - seg_size
    segment = key // n_ranks
    b = np.flatnonzero((key[:-1] < key[1:]) & (segment[:-1] == segment[1:]))
    found = [None] * m
    if len(b) == 0:
        return found
    seg = segment.take(b)
    node = seg // k
    n_node = np.take(sizes, node)
    n_left = b + 1 - seg_start.take(seg)
    n_right = n_node - n_left
    c1_left = left_1.take(b + 1) - left_1.take(seg_start.take(seg))
    c0_left = n_left - c1_left
    c1_right = np.take(counts_1, node) - c1_left
    c0_right = n_right - c1_right
    T = (c0_left * c0_left + c1_left * c1_left) * n_right + (c0_right * c0_right + c1_right * c1_right) * n_left
    D = n_left * n_right
    S = T / D
    starts = np.concatenate(([True], node[1:] != node[:-1]))
    first, group = np.flatnonzero(starts), np.cumsum(starts) - 1
    hit = np.flatnonzero(S == np.maximum.reduceat(S, first)[group])
    win = hit[np.concatenate(([True], group[hit][1:] != group[hit][:-1]))]
    at = b.take(win)
    win_feature = feature.ravel().take(element.take(at))
    lo = X[row.take(at), win_feature]  # the values either side of the boundary
    hi = X[row.take(at + 1), win_feature]
    columns = (node.take(win), win_feature, lo, hi, S.take(win), T.take(win), D.take(win), c1_left.take(win))
    for i, f, lo, hi, s, t, d, c1 in zip(*(column.tolist() for column in columns)):
        n, n_1 = sizes[i], counts_1[i]
        if t * n <= ((n - n_1) ** 2 + n_1 * n_1) * d:  # exact: S <= parent impurity score
            continue
        threshold = (lo + hi) / 2.0
        if threshold == hi:
            # adjacent floats can round the midpoint up onto the right
            # value; fall back to the left value so routing by
            # x <= threshold reproduces the intended partition
            threshold = lo
        found[i] = (f, threshold, s, c1)
    return found


def best_split(
    X: np.ndarray, y: np.ndarray, candidate_features: Sequence[int]
) -> Optional[tuple[int, float, float]]:
    """Exhaustive search for the impurity-minimizing (feature, threshold):
    the one-node case of the search ``grow_trees`` runs per step.

    Returns (feature_index, threshold, weighted_child_impurity), or None if
    no candidate strictly beats the parent impurity. Candidates are the
    midpoints between consecutive distinct sorted values of each feature.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n == 0 or len(candidate_features) == 0:
        raise ParameterError("best_split needs rows and at least one candidate feature")
    features = np.array(sorted(int(f) for f in candidate_features))
    ranks, n_ranks = _dense_ranks(X)
    [found] = _best_splits(X, y, ranks, n_ranks, [(np.arange(n), int(y.sum()), features)])
    if found is None:
        return None
    feature, threshold, S, _ = found
    return feature, threshold, 1.0 - S / n


class _Growth:
    """One tree being grown: its pre-order node list (a Leaf, or a
    (feature, threshold) split each), a LIFO stack of (row ids, depth,
    class-1 count) still to grow, and ``node``, the splittable node it
    waits to have scored, with its sorted candidate features."""

    __slots__ = ("nodes", "stack", "rng", "n_rows", "node")

    def __init__(self, rows: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        self.nodes: list = []
        self.stack = [(rows, 0, int(y[rows].sum()))]
        self.rng = rng
        self.n_rows = len(rows)
        self.node = None

    def advance(self, params: TreeParams, d: int, k: int) -> bool:
        """Move to the next splittable node in pre-order, listing the leaves
        on the way and drawing the node's feature subset (skipped when the
        subset is all features, so full-subset growth consumes no
        randomness); False once the tree is done."""
        while self.stack:
            rows, depth, c1 = self.stack.pop()
            c0 = len(rows) - c1
            at_depth_limit = params.max_depth is not None and depth >= params.max_depth
            if c0 == 0 or c1 == 0 or len(rows) < params.min_samples_split or at_depth_limit:
                self.nodes.append(Leaf(c0, c1))
                continue
            features = np.sort(self.rng.choice(d, size=k, replace=False)) if k < d else np.arange(d)
            self.node = (rows, depth, c1, features)
            return True
        return False

    def split(self, X: np.ndarray, found) -> None:
        """Record the node as ``found`` by the search. The right
        child is pushed first, so the left is grown next (pre-order), and
        children keep their rows' order."""
        rows, depth, c1, _ = self.node
        if found is None:
            self.nodes.append(Leaf(len(rows) - c1, c1))
            return
        feature, threshold, _, c1_left = found
        self.nodes.append((feature, threshold))
        goes_left = X[rows, feature] <= threshold
        self.stack.append((rows[~goes_left], depth + 1, c1 - c1_left))
        self.stack.append((rows[goes_left], depth + 1, c1_left))


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    jobs: Iterable[tuple[np.ndarray, np.random.Generator]],
    params: TreeParams,
) -> list[TreeNode]:
    """Grow one tree per job, in job order. A job is (rows, rng): the tree
    grown on ``X[rows]``, ``y[rows]`` drawing its feature subsets from
    ``rng``.

    Per node: stop with a Leaf if the node is pure, smaller than
    min_samples_split, or at the depth limit; otherwise draw a fresh random
    feature subset and split, stopping if the search finds no strict
    improvement. The trees grow in lockstep: each step takes one waiting
    node from each of as many trees as the step budget admits (round
    robin), scores them all in one search, and moves each of those trees
    on to its next splittable node in its own pre-order. A tree's rng is
    therefore drawn in the order one-tree growth draws it, and jobs are
    taken from ``jobs`` only when the row budget lets a tree start.
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
    if np.isnan(X).any():
        raise ParameterError("feature values may not be NaN")
    k = params.resolve_features_per_split(d)
    ranks, n_ranks = _dense_ranks(X)

    trees: list[list] = []  # each job's pre-order node list
    waiting: deque[_Growth] = deque()
    held = 0  # rows of the trees growing
    jobs = iter(jobs)
    while True:
        while held < _ROW_BUDGET or not waiting:
            job = next(jobs, None)
            if job is None:
                break
            rows, rng = job
            if len(rows) == 0:
                raise ParameterError("cannot grow a tree on zero rows")
            tree = _Growth(np.asarray(rows, dtype=np.intp), y, rng)
            trees.append(tree.nodes)
            if tree.advance(params, d, k):
                waiting.append(tree)
                held += tree.n_rows
        if not waiting:
            break
        step, elements = [], 0
        while waiting and (not step or elements + len(waiting[0].node[0]) * k <= _STEP_BUDGET):
            elements += len(waiting[0].node[0]) * k
            step.append(waiting.popleft())
        found = _best_splits(X, y, ranks, n_ranks, [(rows, c1, f) for rows, _, c1, f in (t.node for t in step)])
        for tree, split in zip(step, found):
            tree.split(X, split)
            if tree.advance(params, d, k):
                waiting.append(tree)
            else:
                held -= tree.n_rows
    return [_assemble(nodes) for nodes in trees]


def grow_tree_arrays(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams,
    rng: np.random.Generator,
) -> TreeNode:
    """Grow a tree on a feature matrix and 0/1 label array: the one-tree
    case of ``grow_trees``."""
    X = np.asarray(X, dtype=float)
    return grow_trees(X, y, [(np.arange(len(X)), rng)], params)[0]


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
