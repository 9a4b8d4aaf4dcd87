"""CART-style binary decision trees grown on the canonical feature matrix.

Conventions, fixed so independent reimplementations agree node for node:
gini impurity, candidate thresholds at midpoints between consecutive
distinct sorted values (lo / 2 + hi / 2 where lo + hi overflows, and lo
where the midpoint rounds onto hi), routing rule value <= threshold goes
left, ties broken by lowest feature index then lowest threshold, and a
split is accepted only when it strictly reduces the size-weighted mean
child impurity.

Split scoring is exact. With left counts (a, b) and right counts (c, d),
minimizing the weighted child gini is equivalent to maximizing

    S = (a^2 + b^2)/nL + (c^2 + d^2)/nR = T / D,
    T = (a^2 + b^2) * nR + (c^2 + d^2) * nL,   D = nL * nR,

where T and D are integers and T <= n^3 / 4 for a node of n rows. While
T < 2^53 (n up to 330,280 rows) T and D convert to float64 exactly, so
S is one correctly rounded division: a larger ratio never reads smaller,
though two distinct ratios may round to one double and then tie. T is
computed in int64, so ``grow_trees`` rejects a job of more than
3,329,021 rows, where it could overflow. The final strict-improvement
test against the parent is done in unbounded integers.

Growth is one path. ``grow_trees`` grows every tree of a forest breadth
first from one queue of open nodes, held as columns: each step takes the
queue's first nodes, a level of one or of many trees, draws their feature
subsets from their keys, and scores all of them in one exact segmented
search over per-column dense ranks computed once (one sort of int64
keys, a segmented cumsum and a first argmax per node). A sort key packs
three bit fields, high to low: the segment (node, candidate feature), the
element's rank on that feature and its row's place in the step, so
shifts and masks read each back and distinct keys sort in the stable
order. For m nodes on k candidates over R rows a key takes
bits(m k - 1) + bits(n_ranks - 1) + bits(R - 1) bits, and the search
refuses a step whose keys would need more than 63. One private
budget bounds its memory: a step holds at most ``_STEP_BUDGET`` (row,
candidate feature) elements, or one node, and a tree starts only while
the queued rows on k candidates each come to fewer, so while the queue
cannot fill a step. That sort is the step's only one: it lists each
winning feature's rows in rank order, so a split node's children are the
rows either side of its boundary. The search answers in columns: the
nodes that split, each with its feature, threshold and left counts, and
their children's rows, cut from that sort into one array. The step makes
all those children in one batch, with no Python per node. Nothing
depends on the order of a node's rows. ``grow_tree_arrays`` is its
one-tree case and ``best_split`` the one-node case of its search.

A node's random draws come from its key, a 64-bit integer hashed by
counter (``seeding.counter_hashes``, h(key, i) for counter i). A tree's
root key is the one its job names, an integer in [0, 2**64), so growth
holds no random generator. A split's children get the keys h(key, 0)
(left) and h(key, 1) (right), and a node's subset is the k features f
with the smallest h(key, 2 + f), ties to the lower f, sorted ascending.
So a tree is a pure function of its rows and its root key, whatever
order the nodes grow in, and a step draws the subsets of all its nodes
with one hash call and one stable argsort.

A forest is one node table, ``Trees``: the read-only node arrays of
every tree in level order, tree after tree, each tree depth by depth and
left to right within a depth. Node i splits on ``feature[i]`` at
``threshold[i]``; a leaf has feature -1 and threshold +inf, and holds the
label tallies ``count_0[i]`` and ``count_1[i]`` of the training rows that
reached it, and its class-1 fraction ``value[i]``; a split holds zero
counts. In level order the leaf flags alone fix the shape: the count of
subtrees still owed, 1 + sum(2 * is_split - 1), stays positive until a
tree's last node and reaches 0 there, and the j-th split of the tree
rooted at r has its children at r + 2j + 1 and r + 2j + 2. The table
derives its roots, each split's left child ``child[i]`` (a leaf is its
own child) and each depth's splits ``levels`` from those flags when it
is built, so no builder hands it a pointer to get wrong. Growth keeps
each node it makes, as a leaf with its tree, and each split by place,
the order nodes are made in, in batches applied once at the end. As the
queue is first in, first out, each tree's places come in level order,
and one stable sort on the tree column gives the table. Growth and
``best_split`` share one input check, which rejects non-finite features,
so growth builds only valid tables. ``tree_importances`` sweeps
``levels`` up for each split's subtree counts and down for each node's
pre-order place, and adds each tree's splits in reverse pre-order:
children before parents, in one fixed summing order. Its gini
expressions run on int64, which numpy divides as Python divides ints
while every tree's rows n have n^2 < 2**53, and past that on ints.

A model file stores the table as four columns in table order
(``trees_to_json``): ``feature`` of every node, ``threshold`` of every
split and ``count_0`` and ``count_1`` of every leaf. A file holds no
pointer, and a tree of any depth reads back; ``trees_from_json`` checks
every value of every tree at once.

Prediction is one level-synchronous walk over the table itself (the
predicated walk of Asadi, Lin & de Vries 2014): a split's two children
sit side by side and a leaf is its own child with threshold +inf, so a
level is the same three lookups for every (row, tree) pair, the left
child plus one where the value exceeds the threshold, and a pair that
reached its leaf stays there; ``leaf_values`` drops such pairs only every
few levels and stops at the forest's depth. No walk recurses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .dataset import FEATURE_COLUMNS
from .errors import ModelFormatError, ParameterError
from .seeding import counter_hashes
from .serialize import from_json_value


@dataclass(frozen=True, eq=False)
class Trees:
    """A forest's trees as the one node table of the module docstring,
    made read-only, from its four node columns; ``len()`` is the tree
    count, at least 1, every leaf holds a row, the last tree is whole, and
    a threshold is finite at a split and +inf at a leaf. Derived when
    built: ``roots[t]``, tree t's first node; ``child``; a leaf's
    ``value``, count_1 / (count_0 + count_1) rounded once, as Python
    divides ints (0 at a split); ``levels[d]``, the splits at depth d, up
    to ``depth``, the deepest leaf's, the levels a walk takes. Compared and
    hashed by identity."""

    feature: np.ndarray  # intp, -1 at a leaf
    threshold: np.ndarray  # float, +inf at a leaf
    count_0: np.ndarray  # int64, 0 at a split
    count_1: np.ndarray  # int64, 0 at a split
    roots: np.ndarray = field(init=False, repr=False)
    child: np.ndarray = field(init=False, repr=False)  # a split's left child; its right is child + 1
    value: np.ndarray = field(init=False, repr=False)
    levels: tuple = field(init=False, repr=False)
    depth: int = field(init=False, repr=False)

    def __post_init__(self):
        n, split = len(self.feature), self.feature >= 0
        for name in ("threshold", "count_0", "count_1"):
            if len(getattr(self, name)) != n:
                raise ParameterError(f"a forest table's {name} holds {len(getattr(self, name))} values for {n} nodes")
        roots, owed = _roots(split)
        if len(roots) == 0:
            raise ParameterError("a forest table needs at least one tree")
        empty = np.flatnonzero(~split & (self.count_0 + self.count_1 < 1))
        if len(empty):
            raise ParameterError(f"{_node_name(roots, empty[0])} is a leaf with no rows")
        if owed:
            raise ParameterError(f"trees[{len(roots) - 1}] is truncated: it lacks {owed} subtree(s)")
        if not np.where(split, np.isfinite(self.threshold), self.threshold == np.inf).all():
            raise ParameterError("a forest table's thresholds must be finite at splits and +inf at leaves")
        before = np.cumsum(split) - split  # splits ahead of each node: j + before[r]
        base = np.repeat(roots + 1 - 2 * before.take(roots), np.diff(roots, append=n))
        child = np.where(split, base + 2 * before, np.arange(n)).astype(np.intp)
        levels, level = [], roots
        while len(level):
            levels.append(level[split.take(level)])  # none at the last level
            left = child.take(levels[-1])
            level = np.concatenate((left, left + 1))
        total = self.count_0 + self.count_1  # 0 at splits
        value = self.count_1 / np.maximum(total, 1)
        for i in np.flatnonzero(total > 2**53).tolist():  # a float64 above 2**53 may have rounded
            value[i] = int(self.count_1[i]) / int(total[i])
        derived = {"roots": roots, "child": child, "value": value, "levels": tuple(levels), "depth": len(levels) - 1}
        for name, array in derived.items():
            object.__setattr__(self, name, array)
        for array in (self.feature, self.threshold, self.count_0, self.count_1, roots, child, value, *levels):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.roots)


def _roots(split: np.ndarray) -> tuple[np.ndarray, int]:
    """Each tree's first node in a level-order table, the last perhaps
    truncated, and the subtrees it owes: leaves minus splits so far first
    reach t + 1 where tree t ends."""
    closed = np.cumsum(np.where(split, -1, 1))
    end = closed > np.maximum.accumulate(np.concatenate(([0], closed))[:-1])
    roots = np.flatnonzero(np.concatenate(([True], end))[:-1])
    return roots, len(roots) - int(closed[-1]) if len(split) else 0


def _node_name(roots: np.ndarray, i: int) -> str:
    """Node ``i`` of a table named by its tree and its place there."""
    t = int(np.searchsorted(roots, i, side="right")) - 1
    return f"trees[{t}]: node {i - roots[t]}"


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


# The growth memory budget of the module docstring: (row, candidate
# feature) elements per step, which also paces the trees' starts. Small
# steps pay mostly fixed numpy cost: the default 100-tree fit on 1,000
# rows took 390, 197, 107, 58 and 35 steps at 2**12 to 2**16 elements,
# with medians of 124, 90, 74, 65 and 60 ms (15 alternating repeats,
# 2-core x86-64). Big steps hold many nodes, each with its own child
# rows: up to 40, 69, 124, 244 and 439, and traced peaks of 1.71, 1.69,
# 1.69, 1.91 and 3.34 MiB, against its training-memory test's 3.875 MiB.
# 2**16 stays untried through the benchmark, which also bounds the
# process's peak memory.
_STEP_BUDGET = 2**15
# the most rows a job may hold: the largest n with n^3 / 4 (the bound of
# a split's T) below 2**63
_MAX_ROWS = 3_329_021
# levels walked between drops of the pairs at leaves. Scoring a
# 10,000-row book, the default 100-tree model (depth 19) and a 20-tree
# zero-signal one (depth 32) walked fastest dropping every 4 or 5 levels,
# with 3 and 6 within 5%
_COMPACT_EVERY = 4


def _dense_ranks(X: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of each column of ``X``, column after column (the rank
    of ``X[i, f]`` is at ``f * len(X) + i``), and one more than the
    largest. Equal values share a rank, so a rank change between sorted
    neighbours is the test ``v[i] < v[i+1]``."""
    ranks = np.empty(X.T.shape, dtype=np.int64)
    for f, col in enumerate(X.T):
        ranks[f] = np.unique(col, return_inverse=True)[1]
    return ranks.ravel(), int(ranks.max(initial=0)) + 1


def _growth_inputs(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The one input check of ``grow_trees`` and ``best_split``; returns the
    float matrix, int64 labels and dense ranks of inputs that pass it."""
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ParameterError(f"feature matrix {X.shape} does not match labels {y.shape}")
    if X.shape[0] == 0:
        raise ParameterError("cannot grow a tree on zero rows")
    if X.shape[1] == 0:
        raise ParameterError("cannot grow a tree on zero feature columns")
    if not np.isin(y, (0, 1)).all():  # before the cast, which would truncate 0.5 to 0
        raise ParameterError("labels may contain only 0 and 1")
    if not np.isfinite(X).all():  # a midpoint next to -inf would be -inf
        raise ParameterError("feature values may not be NaN or infinite")
    return (X, y.astype(np.int64, copy=False), *_dense_ranks(X))


def _key_draws(keys: np.ndarray, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each node's child keys, as a uint64 row (left, right) of an (m, 2)
    matrix, and its k candidate features, as one sorted row of a matrix,
    from its uint64 key by the rules of the module docstring."""
    h = counter_hashes(keys, d + 2)
    return h[:, :2], np.sort(np.argsort(h[:, 2:], axis=1, kind="stable")[:, :k], axis=1)


def _best_splits(X, y, ranks, n_ranks, rows, sizes, counts_1, features) -> tuple:
    """The nodes that split, as the columns (node, feature, threshold, S,
    left class-1 count, left size), and one array of their children's
    rows: left, then right, node after node.

    Node i holds the next ``sizes[i]`` of the step's rows ``rows``,
    ``counts_1[i]`` of them of class 1, and row i of the matrix
    ``features`` holds its sorted candidates; it splits if one strictly
    beats the parent. All nodes are scored by one search: a segment is one
    (node, candidate) pair, one sort of distinct (segment, rank, row place)
    keys orders the elements by (segment, rank) stably, and a boundary is a
    rank change inside a segment. Boundaries come out in (node, feature,
    threshold) order, so the first maximal S of a node is both the lowest
    threshold within a feature and the lowest feature across features. A
    split node's children are its winning segment's rows in that sort,
    left of the boundary, then right. Past the sort, the search holds the
    row array and at most one other array over the elements, and a few
    over the boundaries, each built in place and dropped after its last
    use.
    """
    m, k = features.shape
    seg_size, seg_1 = np.repeat(sizes, k), np.repeat(counts_1, k)
    seg_start = np.cumsum(seg_size) - seg_size
    # the key of row rows[r] on its node's j-th candidate packs segment
    # node * k + j, the rank and r in bit fields, high to low. Keys are
    # distinct, so sorting them gives the stable order. int64 holds 63 bits
    rank_shift = (len(rows) - 1).bit_length()
    segment_shift = rank_shift + (n_ranks - 1).bit_length()
    if segment_shift + (m * k - 1).bit_length() > 63:
        raise ParameterError(f"{m * k} segments, {n_ranks} ranks and {len(rows)} rows need split keys past 63 bits")
    rank_at = np.repeat(features.T * len(X), sizes, axis=1)  # where _dense_ranks holds each rank
    rank_at += rows
    key = ranks.take(rank_at)
    del rank_at
    key <<= rank_shift
    key += np.repeat(np.arange(0, m * k, k) << segment_shift, sizes) | np.arange(len(rows))  # node, place
    key += (np.arange(k) << segment_shift)[:, None]  # candidate
    key = key.ravel()
    key.sort()
    row = rows.take(key & ((1 << rank_shift) - 1))
    key >>= rank_shift  # segment and rank
    boundary = key[:-1] < key[1:]
    boundary[seg_start[1:] - 1] = False  # a segment's last element
    b = np.flatnonzero(boundary)
    del boundary
    seg = key.take(b)
    seg >>= segment_shift - rank_shift
    del key
    c1_left = y.take(row)  # a running class-1 count within each segment
    c1_left[seg_start[1:]] -= seg_1[:-1]
    np.cumsum(c1_left, out=c1_left)
    c1_left = c1_left.take(b)
    n_left = b - seg_start.take(seg)
    n_left += 1
    del b
    # T and D of the module docstring, in place on two more buffers
    n_right, c1_right = seg_size.take(seg), seg_1.take(seg)
    n_right -= n_left
    c1_right -= c1_left
    T = n_left - c1_left  # c0_left, then (c0_left^2 + c1_left^2) * n_right
    T *= T
    sq = c1_left * c1_left
    T += sq
    T *= n_right
    np.subtract(n_right, c1_right, out=sq)  # c0_right, then (c0_right^2 + c1_right^2) * n_left
    sq *= sq
    c1_right *= c1_right
    sq += c1_right
    sq *= n_left
    T += sq
    del sq, c1_right
    D = n_right
    D *= n_left
    S = T / D
    edges = np.searchsorted(seg, np.arange(0, (m + 1) * k, k))  # each node's first boundary, and the end
    count = np.diff(edges)
    lo = edges[:-1][count > 0]
    best = np.maximum.reduceat(S, lo)
    hit = np.flatnonzero(S == np.repeat(best, count[count > 0]))
    win = hit[np.searchsorted(hit, lo)]  # each node's first hit
    node = seg.take(win) // k
    n, n_1 = sizes.take(node), counts_1.take(node)
    # exact, in Python ints: S = T / D beats the parent's (n_0^2 + n_1^2) / n
    win = win[T.take(win).astype(object) * n > ((n - n_1) ** 2 + n_1 * n_1).astype(object) * D.take(win)]
    seg, n_left = seg.take(win), n_left.take(win)
    at = seg_start.take(seg) + n_left - 1  # the boundary's place in the sort
    feature = features.ravel().take(seg)
    lo = X[row.take(at), feature]  # the values either side of the boundary
    hi = X[row.take(at + 1), feature]
    with np.errstate(over="ignore"):  # where lo + hi overflows, halving first is exact
        mid = np.where(np.isinf(lo + hi), lo / 2 + hi / 2, (lo + hi) / 2)
        # where the midpoint rounds up onto hi, lo routes the same rows left
        threshold = np.where(mid == hi, lo, mid)
    won = np.bincount(seg, minlength=m * k) > 0  # the winning segments, one per split node
    children = row[np.repeat(won, seg_size)]
    return seg // k, feature, threshold, S.take(win), c1_left.take(win), n_left, children


def best_split(
    X: np.ndarray, y: np.ndarray, candidate_features: Sequence[int]
) -> Optional[tuple[int, float, float]]:
    """Exhaustive search for the impurity-minimizing (feature, threshold):
    the one-node case of the search ``grow_trees`` runs per step.

    ``X`` and ``y`` as for ``grow_trees``, and one or more candidate
    features, integers (not bools) in [0, d). Returns (feature_index,
    threshold, weighted child impurity), or None if none strictly beats
    the parent impurity. Unused in the package; perfbench's tracer wraps
    it by name.
    """
    X, y, ranks, n_ranks = _growth_inputs(X, y)
    n, d = X.shape
    features = [f.item() if isinstance(f, np.generic) else f for f in candidate_features]
    if not features or not all(type(f) is int and 0 <= f < d for f in features):  # no float, str or bool
        raise ParameterError(f"best_split needs one or more candidate features in [0, {d}), got {features}")
    features = np.array(sorted(features))
    found = _best_splits(X, y, ranks, n_ranks, np.arange(n), np.array([n]), np.array([y.sum()]), features[None])
    if len(found[0]) == 0:
        return None
    feature, threshold, S = (column.item() for column in found[1:4])
    return feature, threshold, 1.0 - S / n


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    jobs: Iterable[tuple[np.ndarray, int]],
    params: TreeParams,
) -> Trees:
    """Grow one tree per job into one table, in job order, from a finite
    2-D matrix ``X`` of one or more rows and columns and one 0/1 label per
    row in ``y``. A job is (rows, key): the tree grown on ``X[rows]``,
    ``y[rows]`` from the root key ``key``, an integer in [0, 2**64), its
    rows integers in [0, len(X)).

    Per node: stop with a leaf if the node is pure, smaller than
    min_samples_split, or at the depth limit; otherwise draw the node's
    feature subset from its key and split, stopping if the search finds no
    strict improvement. Every tree grows breadth first from one queue of
    open nodes, first in, first out: the columns place, tree, depth, size,
    class-1 count and key, and the nodes' rows, node after node. Nodes are
    made in batches, a root when its job starts and a step's children all
    at once: one mask applies the stop rules, the batch is kept as leaves
    at the next places and its splittable nodes join the queue. Each pass
    of the loop starts a tree per job, in a ``for`` over ``jobs`` run only
    while the queue cannot fill a step and left once it can, then takes as
    many of the queue's first nodes as the step budget admits, draws their
    subsets with one ``_key_draws``, scores them in one search, keeps the
    splits and makes the children. The kept nodes and splits are applied
    once, at the end, and one stable sort on the tree column gives the table.
    """
    X, y, ranks, n_ranks = _growth_inputs(X, y)
    n, d = X.shape
    k = params.resolve_features_per_split(d)

    # one array per batch: the made nodes' (tree, size, class-1 count) in
    # 32-bit ints (_MAX_ROWS), the splits' (place, feature, threshold viewed
    # as int64)
    made, splits = [], [np.empty((3, 0), np.int64)]
    # the queue's columns and rows; nodes made since it last took some in wait
    queue = (*(np.empty(0, np.intp),) * 5, np.empty(0, np.uint64), np.empty(0, np.intp))
    waiting, n_made, queued = [], 0, 0  # queued: the open nodes' rows

    def make(tree, depth, size, c1, key, rows) -> None:
        """Keep new nodes as leaves at the next places; queue the splittable."""
        nonlocal n_made, queued
        made.append(np.array((tree, size, c1), dtype=np.int32))
        opens = (c1 > 0) & (c1 < size) & (size >= params.min_samples_split)
        opens &= params.max_depth is None or depth < params.max_depth
        place, rows = np.arange(n_made, n_made + len(size)), rows[np.repeat(opens, size)]
        waiting.append((*(column[opens] for column in (place, tree, depth, size, c1, key)), rows))
        n_made, queued = n_made + len(size), queued + len(rows)

    jobs = enumerate(jobs)
    while True:
        if queued * k < _STEP_BUDGET:  # the queue cannot fill a step: start trees until it can
            for j, (rows, key) in jobs:
                rows = np.asarray(rows)
                if rows.size > _MAX_ROWS:
                    raise ParameterError(f"job {j}: {rows.size} rows exceed the {_MAX_ROWS} a tree may hold")
                if rows.size == 0:
                    raise ParameterError(f"job {j}: cannot grow a tree on zero rows")
                if rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n:
                    raise ParameterError(f"job {j}: rows must be integers in [0, {n})")
                if type(key) is bool or not isinstance(key, (int, np.integer)) or not 0 <= key < 2**64:
                    raise ParameterError(f"job {j}: its root key must be an integer in [0, 2**64), got {key!r}")
                rows, key = rows.astype(np.intp, copy=False), np.array([key], dtype=np.uint64)
                make(np.full(1, j), np.zeros(1, int), np.full(1, rows.size), y.take(rows).sum(keepdims=True), key, rows)
                if queued * k >= _STEP_BUDGET:
                    break
        if not queued:  # every job taken and every tree done
            break
        if len(queue[-1]) * k <= _STEP_BUDGET:  # the queue alone cannot fill a step
            queue, waiting = tuple(np.concatenate(c) for c in zip(queue, *waiting)), []
        place, tree, depth, size, c1, key, rows = queue
        # the first nodes whose rows on k features fit the budget, and at least one
        m = max(1, int(np.searchsorted(np.cumsum(size[: _STEP_BUDGET // k]), _STEP_BUDGET // k, side="right")))
        step_rows = int(size[:m].sum())
        queue, queued = (*(c[m:] for c in queue[:-1]), rows[step_rows:]), queued - step_rows
        child_keys, features = _key_draws(key[:m], d, k)
        found = _best_splits(X, y, ranks, n_ranks, rows[:step_rows], size[:m], c1[:m], features)
        node, f, thr, _, c1_left, n_left, children = found
        splits.append(np.array((place.take(node), f, thr.view(np.int64))))
        tree, depth, size, c1 = (column.take(node) for column in (tree, depth, size, c1))
        sizes, counts_1 = np.column_stack((n_left, size - n_left)), np.column_stack((c1_left, c1 - c1_left))
        make(tree.repeat(2), depth.repeat(2) + 1, sizes.ravel(), counts_1.ravel(), child_keys[node].ravel(), children)
    if not made:
        raise ParameterError("grow_trees needs at least one job")
    tree, size, c1 = np.concatenate(made, axis=1)
    place, f, thr = np.concatenate(splits, axis=1)
    del made[:], splits[:]
    feature, threshold = np.full(len(tree), -1, np.intp), np.full(len(tree), np.inf)
    feature[place], threshold[place], size[place], c1[place] = f, thr.view(float), 0, 0
    order = np.argsort(tree, kind="stable")
    columns = ((feature, np.intp), (threshold, float), (size - c1, np.int64), (c1, np.int64))
    columns = [column.take(order).astype(tp, copy=False) for column, tp in columns]
    del tree, size, c1, place, f, thr, feature, threshold, order  # freed before the table derives its arrays
    return Trees(*columns)


def grow_tree_arrays(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams,
    rng: np.random.Generator,
) -> Trees:
    """Grow a tree on a feature matrix and 0/1 label array from a root key
    drawn from ``rng``: the one-tree case of ``grow_trees``. Unused in the
    package; perfbench wraps it."""
    return grow_trees(X, y, [(np.arange(len(X)), rng.integers(2**64, dtype=np.uint64))], params)


def leaf_values(trees: Trees, X: np.ndarray) -> np.ndarray:
    """The C-contiguous (rows, trees) matrix of the class-1 fraction of the
    leaf each row of ``X`` reaches in each tree.

    Every (row, tree) pair walks the table at once, pair r * n_trees + t
    in row-major order, one depth level per step: the pair's node becomes
    its child, plus one if its value exceeds the threshold.
    NaN is read as +inf, so it goes right at a split, as NaN <= t being
    false sends it, and stays at a leaf. A pair at a leaf loops there, so
    finished pairs are dropped only every ``_COMPACT_EVERY`` levels, and
    the walk ends at the forest's depth.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ParameterError(f"expected a 2-D feature matrix, got shape {X.shape}")
    n_rows, n_cols = X.shape
    n_trees = len(trees)
    if trees.feature.max() >= n_cols:
        raise ParameterError(f"a tree splits on feature {trees.feature.max()} but X has {n_cols} columns")
    child, feature, threshold, value = trees.child, trees.feature, trees.threshold, trees.value
    x = np.where(np.isnan(X), np.inf, X).ravel()
    out = np.empty(n_rows * n_trees)
    pair = np.arange(n_rows * n_trees)
    offset = np.repeat(np.arange(n_rows) * n_cols, n_trees)  # row start in x
    node = np.tile(trees.roots, n_rows)
    for level in range(1, trees.depth + 1):
        # at a leaf, feature -1 reads x at offset - 1, an index numpy's take
        # wraps into range, and the +inf threshold never sends the pair on
        at = feature.take(node)
        at += offset
        goes_right = x.take(at) > threshold.take(node)
        node = child.take(node)
        node += goes_right
        if level % _COMPACT_EVERY == 0 and level < trees.depth:
            keep = np.flatnonzero(child.take(node) != node)
            if len(keep) < len(node):
                out[pair] = value.take(node)  # pairs kept are written again later
                pair, offset, node = (a.take(keep) for a in (pair, offset, node))
    out[pair] = value.take(node)
    return out.reshape(n_rows, n_trees)


def tree_importances(trees: Trees, n_features: int) -> np.ndarray:
    """Each tree's total weighted impurity decrease per feature, as an
    (n_trees, n_features) array for a table grown on ``n_features``
    columns, from leaf counts alone by the level sweep of the module
    docstring, so retraining and reloading give equal floats."""
    split, child, roots = trees.feature >= 0, trees.child, trees.roots
    rows = np.add.reduceat(trees.count_0 + trees.count_1.astype(float), roots)  # an int64 sum may wrap
    up = np.column_stack((trees.count_0, trees.count_1, ~split)).astype(np.int64 if rows.max() ** 2 < 2**53 else object)
    for level in reversed(trees.levels):  # a split's counts and leaf count become its subtree's
        up[level] = up[child.take(level)] + up[child.take(level) + 1]
    pre, leaves = np.arange(len(split)), up[:, 2].astype(np.intp)  # pre-order on a tree's rows: a root's is its row
    for level in trees.levels:  # a left subtree of L leaves holds 2L - 1 nodes
        left = child.take(level)
        pre[left] = pre.take(level) + 1
        pre[left + 1] = pre.take(level) + 2 * leaves.take(left)
    node = np.flatnonzero(split)[np.argsort(-pre[split])]  # the splits in reverse pre-order
    (c0, c1, _), (l0, l1, _), (r0, r1, _) = up[node].T, up[child.take(node)].T, up[child.take(node) + 1].T
    n_node, n_left, n_right = c0 + c1, l0 + l1, r0 + r1
    gini_left = 1.0 - (l0 * l0 + l1 * l1) / (n_left * n_left)
    gini_right = 1.0 - (r0 * r0 + r1 * r1) / (n_right * n_right)
    gini_node = 1.0 - (c0 * c0 + c1 * c1) / (n_node * n_node)
    tree = np.searchsorted(roots, node, side="right") - 1
    root_total = (up[roots, 0] + up[roots, 1]).take(tree)
    decrease = (n_node / root_total) * (gini_node - (n_left * gini_left + n_right * gini_right) / n_node)
    # accepted splits decrease impurity exactly; the clamp only guards
    # float rounding of near-tie splits at extreme node sizes
    acc = np.zeros((len(trees), n_features))
    np.add.at(acc, (tree, trees.feature.take(node)), np.where(decrease > 0.0, decrease, 0.0).astype(float))
    return acc


def trees_to_json(trees: Trees) -> dict[str, list]:
    """The model-file columns of a table, as JSON-ready lists."""
    split = trees.feature >= 0
    return {
        "feature": trees.feature.tolist(),
        "threshold": trees.threshold[split].tolist(),
        "count_0": trees.count_0[~split].tolist(),
        "count_1": trees.count_1[~split].tolist(),
    }


_FLOAT_MAX = sys.float_info.max
_COLUMNS = ("count_0", "count_1", "feature", "threshold")


def _column(values: list, nodes: Sequence[int], roots: np.ndarray, name: str, tp: type, low, high) -> np.ndarray:
    """The field ``name`` of ``nodes``, read from ``values`` as an array;
    each value must be a JSON ``tp`` (by the ``serialize`` rules) in
    [low, high]. The values are checked all at once, and one by one only
    to name a bad one, by its tree of ``roots`` and its place there."""
    try:
        if set(map(type, values)) <= ({int} if tp is int else {int, float}):
            column = np.array(values, dtype=np.int64 if tp is int else float)
            if ((column >= low) & (column <= high)).all():  # NaN fails
                return column
    except OverflowError:  # an integer beyond int64 or float
        pass
    for node, value in zip(nodes, values):
        value = from_json_value(tp, value, f"{_node_name(roots, node)} {name}")
        if not low <= value <= high:
            raise ParameterError(f"{_node_name(roots, node)} {name} must be in [{low}, {high}], got {value!r}")
    return np.array(values, dtype=np.int64 if tp is int else float)


def trees_from_json(doc: dict) -> Trees:
    """Read the columns of ``trees_to_json`` into one table. Every value of
    every tree is checked: features are indices in [0, 6) or -1,
    thresholds finite, and leaf counts integers in [0, 2**53] (larger
    counts lose precision as floats), and each column holds one value per
    node it describes; ``Trees`` then checks the rows and the shape. An
    error names ``trees[t]`` and the node's index in tree t."""
    if not isinstance(doc, dict) or doc.keys() != set(_COLUMNS):
        raise ModelFormatError(f"trees must be an object of exactly the arrays {', '.join(_COLUMNS)}")
    for name in _COLUMNS:
        if not isinstance(doc[name], list):
            raise ModelFormatError(f"trees.{name} must be a JSON array")
    features = doc["feature"]
    n = len(features)
    split = np.array([f != -1 for f in features], dtype=bool)
    roots, _ = _roots(split)
    splits, leaves = np.flatnonzero(split), np.flatnonzero(~split)
    try:
        feature = _column(features, range(n), roots, "feature", int, -1, len(FEATURE_COLUMNS) - 1).astype(np.intp)
        threshold, count_0, count_1 = np.full(n, np.inf), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        for column, name, nodes, kind, tp, low, high in (
            (threshold, "threshold", splits, "splits", float, -_FLOAT_MAX, _FLOAT_MAX),
            (count_0, "count_0", leaves, "leaves", int, 0, 2**53),
            (count_1, "count_1", leaves, "leaves", int, 0, 2**53),
        ):
            if len(doc[name]) != len(nodes):
                raise ModelFormatError(f"trees.{name} holds {len(doc[name])} values for {len(nodes)} {kind}")
            column[nodes] = _column(doc[name], nodes, roots, name, tp, low, high)
        return Trees(feature, threshold, count_0, count_1)
    except ParameterError as exc:
        raise ModelFormatError(str(exc)) from None
