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

A tree is five read-only pre-order node arrays, scikit-learn's ``Tree``
layout: node i splits on ``feature[i]`` at ``threshold[i]``, its left
child is i + 1 and its right child ``right[i]``. A leaf has feature -1
and holds the label tallies ``count_0[i]`` and ``count_1[i]`` of the
training rows that reached it; a split holds zero counts. Growth and the
JSON reader fill the arrays in pre-order, each recording a split's right
index when it reaches that child. The reader checks every value at once
when the walk is done, and growth rejects non-finite features up front,
so both build only valid trees. The JSON writer and ``tree_importances``
fold over the arrays in reverse pre-order, where both children of a
split are done before it. Prediction is one level-synchronous walk over
``join_trees``'s concatenation of the trees: ``leaf_values`` advances
every (row, tree) pair one depth level per step, dropping pairs as they
reach a leaf, and ``predict_proba`` is its one-tree case. No walk
recurses.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True, eq=False)
class Tree:
    """One tree as the pre-order node arrays of the module docstring,
    made read-only. Compared and hashed by identity."""

    feature: np.ndarray  # intp, -1 at a leaf
    threshold: np.ndarray  # float, 0.0 at a leaf
    right: np.ndarray  # intp, -1 at a leaf
    count_0: np.ndarray  # int64, 0 at a split
    count_1: np.ndarray  # int64, 0 at a split

    def __post_init__(self):
        for array in (self.feature, self.threshold, self.right, self.count_0, self.count_1):
            array.flags.writeable = False


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
    """One tree being grown: its pre-order nodes as [feature, threshold,
    right, count_0, count_1] rows, a LIFO stack of (row ids, depth,
    class-1 count, parent) still to grow, where parent is the split whose
    right child the entry is (-1 for a left child or the root), and
    ``node``, the splittable node it waits to have scored, with its sorted
    candidate features."""

    __slots__ = ("nodes", "stack", "rng", "n_rows", "node")

    def __init__(self, rows: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        self.nodes: list = []
        self.stack = [(rows, 0, int(y[rows].sum()), -1)]
        self.rng = rng
        self.n_rows = len(rows)
        self.node = None

    def advance(self, params: TreeParams, d: int, k: int) -> bool:
        """Move to the next splittable node in pre-order, listing the leaves
        on the way and drawing the node's feature subset (skipped when the
        subset is all features, so full-subset growth consumes no
        randomness); False once the tree is done. A node's index is the
        node count when it is popped, as nothing is listed before it."""
        while self.stack:
            rows, depth, c1, parent = self.stack.pop()
            if parent >= 0:
                self.nodes[parent][2] = len(self.nodes)
            c0 = len(rows) - c1
            at_depth_limit = params.max_depth is not None and depth >= params.max_depth
            if c0 == 0 or c1 == 0 or len(rows) < params.min_samples_split or at_depth_limit:
                self.nodes.append([-1, 0.0, -1, c0, c1])
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
            self.nodes.append([-1, 0.0, -1, len(rows) - c1, c1])
            return
        feature, threshold, _, c1_left = found
        goes_left = X[rows, feature] <= threshold
        self.stack.append((rows[~goes_left], depth + 1, c1 - c1_left, len(self.nodes)))
        self.stack.append((rows[goes_left], depth + 1, c1_left, -1))
        self.nodes.append([feature, threshold, -1, 0, 0])

    def tree(self) -> Tree:
        """The grown tree: one array per column of the node rows."""
        columns = zip(*self.nodes)
        return Tree(*(np.array(c, dtype=t) for c, t in zip(columns, (np.intp, float, np.intp, np.int64, np.int64))))


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    jobs: Iterable[tuple[np.ndarray, np.random.Generator]],
    params: TreeParams,
) -> list[Tree]:
    """Grow one tree per job, in job order. A job is (rows, rng): the tree
    grown on ``X[rows]``, ``y[rows]`` drawing its feature subsets from
    ``rng``.

    Per node: stop with a leaf if the node is pure, smaller than
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
    if not np.isfinite(X).all():  # a midpoint next to -inf would be -inf
        raise ParameterError("feature values may not be NaN or infinite")
    k = params.resolve_features_per_split(d)
    ranks, n_ranks = _dense_ranks(X)

    trees: list[_Growth] = []
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
            trees.append(tree)
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
                tree.node = None  # a finished tree holds no rows
    return [tree.tree() for tree in trees]


def grow_tree_arrays(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams,
    rng: np.random.Generator,
) -> Tree:
    """Grow a tree on a feature matrix and 0/1 label array: the one-tree
    case of ``grow_trees``."""
    X = np.asarray(X, dtype=float)
    return grow_trees(X, y, [(np.arange(len(X)), rng)], params)[0]


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """Trees concatenated into one node table in the ``Tree`` layout, with
    each leaf's class-1 fraction in ``value`` and tree t's root at
    ``roots[t]``."""

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray


def join_trees(trees: Sequence[Tree]) -> FlatTrees:
    """The node table of ``trees``, in order. A leaf's value is
    count_1 / (count_0 + count_1) rounded once, as Python divides ints."""
    sizes = [len(tree.feature) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, right, count_0, count_1 = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("feature", "threshold", "right", "count_0", "count_1")
    )
    right = np.where(feature < 0, -1, right + np.repeat(roots, sizes))
    n = count_0 + count_1  # 0 at splits
    value = count_1 / np.maximum(n, 1)
    for i in np.flatnonzero(n > 2**53).tolist():  # a float64 above 2**53 may have rounded
        value[i] = int(count_1[i]) / int(n[i])
    return FlatTrees(feature, threshold, right, value, roots)


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


def predict_proba(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Class-1 fraction of the leaf each row of ``X`` reaches, as an (n,)
    array: the one-tree case of ``leaf_values``."""
    return leaf_values(join_trees([tree]), X).ravel()


def tree_importances(tree: Tree) -> np.ndarray:
    """Total weighted impurity decrease per feature, from leaf counts alone,
    added in reverse pre-order so retraining and reloading give equal
    floats. Counts stay Python ints, so the expressions round as the
    grower's exact arithmetic would."""
    feature, right, count_0, count_1 = (a.tolist() for a in (tree.feature, tree.right, tree.count_0, tree.count_1))
    root_total = sum(count_0) + sum(count_1)
    acc = np.zeros(len(FEATURE_COLUMNS))
    for i in reversed(range(len(feature))):
        if feature[i] < 0:
            continue
        l0, l1, r0, r1 = count_0[i + 1], count_1[i + 1], count_0[right[i]], count_1[right[i]]
        c0, c1 = count_0[i], count_1[i] = l0 + r0, l1 + r1  # a split's counts become its subtree's
        n_node, n_left, n_right = c0 + c1, l0 + l1, r0 + r1
        child_impurity = (n_left * gini_impurity(l0, l1) + n_right * gini_impurity(r0, r1)) / n_node
        decrease = (n_node / root_total) * (gini_impurity(c0, c1) - child_impurity)
        # accepted splits decrease impurity exactly; the clamp only guards
        # float rounding of near-tie splits at extreme node sizes
        acc[feature[i]] += max(0.0, decrease)
    return acc


def tree_to_json_dict(tree: Tree) -> dict:
    """The nested document of ``tree``, built from the leaves up."""
    feature, threshold, right, count_0, count_1 = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.right, tree.count_0, tree.count_1)
    )
    docs: list = [None] * len(feature)
    for i in reversed(range(len(feature))):
        if feature[i] < 0:
            docs[i] = {"count_0": count_0[i], "count_1": count_1[i]}
        else:
            docs[i] = {"feature": feature[i], "threshold": threshold[i], "left": docs[i + 1], "right": docs[right[i]]}
    return docs[0]


_FLOAT_MAX = sys.float_info.max
_LEAF_KEYS = frozenset(("count_0", "count_1"))
_SPLIT_KEYS = frozenset(("feature", "threshold", "left", "right"))


def _column(values: list, nodes: list, name: str, tp: type, low, high) -> np.ndarray:
    """The field ``name`` of ``nodes``, read from ``values`` as an array;
    each value must be a JSON ``tp`` (by the ``serialize`` rules) in
    [low, high]. The values are checked all at once, and one by one only
    to name a bad one."""
    try:
        if set(map(type, values)) <= ({int} if tp is int else {int, float}):
            column = np.array(values, dtype=np.int64 if tp is int else float)
            if ((column >= low) & (column <= high)).all():  # NaN fails
                return column
    except OverflowError:  # an integer beyond int64 or float
        pass
    for node, value in zip(nodes, values):
        value = from_json_value(tp, value, f"node {node} {name}")
        if not low <= value <= high:
            raise ParameterError(f"node {node} {name} must be in [{low}, {high}], got {value!r}")
    return np.array(values, dtype=np.int64 if tp is int else float)


def tree_from_json_dict(doc: dict, path: str = "tree") -> Tree:
    """Read the tree document at ``path`` in its model file. The walk only
    checks each node's keys and lists the nodes in pre-order; then every
    value is checked: features are indices in [0, 6), thresholds finite,
    and leaf counts integers in [0, 2**53] (larger counts lose precision
    as floats), at least one row per leaf."""
    splits, features, thresholds, leaves, counts_0, counts_1 = [], [], [], [], [], []
    right: list = []
    stack = [(doc, -1)]
    try:
        while stack:
            d, parent = stack.pop()
            i = len(right)
            if parent >= 0:
                right[parent] = i
            right.append(-1)
            if not isinstance(d, dict):
                raise ModelFormatError(f"{path}: a tree node must be an object, got {type(d).__name__}")
            keys = d.keys()
            if keys == _LEAF_KEYS:
                leaves.append(i)
                counts_0.append(d["count_0"])
                counts_1.append(d["count_1"])
            elif keys == _SPLIT_KEYS:
                splits.append(i)
                features.append(d["feature"])
                thresholds.append(d["threshold"])
                stack.append((d["right"], i))
                stack.append((d["left"], -1))
            else:
                raise ModelFormatError(f"{path}: unrecognized tree node fields {sorted(keys)}")
        feature = np.full(len(right), -1, dtype=np.intp)
        feature[splits] = _column(features, splits, "feature", int, 0, len(FEATURE_COLUMNS) - 1)
        threshold = np.zeros(len(right))
        threshold[splits] = _column(thresholds, splits, "threshold", float, -_FLOAT_MAX, _FLOAT_MAX)
        count_0, count_1 = np.zeros(len(right), dtype=np.int64), np.zeros(len(right), dtype=np.int64)
        count_0[leaves] = _column(counts_0, leaves, "count_0", int, 0, 2**53)
        count_1[leaves] = _column(counts_1, leaves, "count_1", int, 0, 2**53)
        empty = np.flatnonzero(count_0[leaves] + count_1[leaves] < 1)
        if len(empty):
            raise ParameterError(f"node {leaves[empty[0]]} is a leaf with no rows")
        return Tree(feature, threshold, np.array(right, dtype=np.intp), count_0, count_1)
    except ParameterError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
