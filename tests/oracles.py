"""Independent reference implementations the tests check against.

The tree oracle re-derives greedy CART growth from scratch: it enumerates
every (feature, midpoint-threshold) candidate at every node and scores it
in exact Fraction arithmetic, so there is no shared code (and no shared
rounding) with the package's vectorized integer-score search. Given a
root key and a subset size, it draws each node's feature subset and its
children's keys one pure-Python ``splitmix64`` hash at a time, sharing
nothing with the package's matrix of counter hashes. Trees are
compared in the oracle's nested-tuple shape, which ``tree_as_tuple``
reads off one tree of the package's node table and ``trees_from_tuples``
turns back into a table through the model-file reader, from the node
columns ``tuples_to_columns`` lists. The prediction oracle walks
those tuples one row at a time in plain Python, sharing nothing with the
package's flat (row, tree) walk. The metrics
oracle likewise works in rational arithmetic end to end. Finite
differences for the gradient live in the logit tests themselves.
``node_columns_sha256`` is no oracle: it digests a whole table, so a
test can pin a large fit that no oracle can grow.
"""

import hashlib
import math
from collections import deque
from fractions import Fraction

import numpy as np

from smerisk.cart import trees_from_json
from smerisk.seeding import splitmix64


def oracle_gini(labels) -> Fraction:
    c1 = sum(labels)
    c0 = len(labels) - c1
    t = len(labels)
    return 1 - Fraction(c0 * c0 + c1 * c1, t * t)


def oracle_best_split(rows, labels, features):
    """Exhaustive exact-arithmetic split search.

    Same conventions the package promises: midpoints between consecutive
    distinct sorted values (summing halves where the sum overflows, and
    falling back to the left value if the float midpoint rounds up onto
    the right one), minimize size-weighted child
    gini, strict improvement required, ties to the lowest feature index
    then the lowest threshold.
    """
    n = len(rows)
    parent = oracle_gini(labels)
    best = None
    for f in sorted(features):
        values = sorted(set(r[f] for r in rows))
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2.0
            if math.isinf(threshold):
                threshold = a / 2 + b / 2
            if threshold == b:
                threshold = a
            left = [lab for r, lab in zip(rows, labels) if r[f] <= threshold]
            right = [lab for r, lab in zip(rows, labels) if r[f] > threshold]
            weighted = (
                Fraction(len(left), n) * oracle_gini(left)
                + Fraction(len(right), n) * oracle_gini(right)
            )
            if best is None or weighted < best[0]:
                best = (weighted, f, threshold)
    if best is None or not best[0] < parent:
        return None
    return best[1], best[2]


def oracle_hash(key, i):
    """Counter ``i`` of a node key."""
    return splitmix64((key + i * 0x9E3779B97F4A7C15) % 2**64)


def oracle_grow(rows, labels, depth=0, max_depth=None, min_samples_split=2, key=None, k=None):
    """Recursive greedy growth; returns nested tuples ("leaf", count_0,
    count_1) / ("node", feature, threshold, left, right). Without a root
    ``key`` every node searches all features; with one, a node searches
    the k features f with the smallest hash 2 + f of its key, ties to the
    lower f, and a split's children take its hashes 0 and 1 as keys."""
    c1 = sum(labels)
    c0 = len(labels) - c1
    at_limit = max_depth is not None and depth >= max_depth
    if c0 == 0 or c1 == 0 or len(labels) < min_samples_split or at_limit:
        return ("leaf", c0, c1)
    features = range(len(rows[0]))
    if key is not None:
        features = sorted(features, key=lambda f: (oracle_hash(key, 2 + f), f))[:k]
    found = oracle_best_split(rows, labels, features)
    if found is None:
        return ("leaf", c0, c1)
    f, threshold = found
    left = [(r, lab) for r, lab in zip(rows, labels) if r[f] <= threshold]
    right = [(r, lab) for r, lab in zip(rows, labels) if r[f] > threshold]
    keys = (None, None) if key is None else (oracle_hash(key, 0), oracle_hash(key, 1))
    children = [
        oracle_grow([r for r, _ in part], [lab for _, lab in part], depth + 1, max_depth, min_samples_split, child, k)
        for part, child in zip((left, right), keys)
    ]
    return ("node", f, threshold, *children)


def span(trees, t):
    """The table rows [start, stop) of tree ``t``."""
    stop = trees.roots[t + 1] if t + 1 < len(trees) else len(trees.feature)
    return int(trees.roots[t]), int(stop)


def tree_as_tuple(trees, t=0):
    """Tree ``t`` of a package table -> the oracle's tuple shape, for
    structural equality. Built from the leaves up, as every child lies
    after its parent: split i's children are ``child[i]`` and
    ``child[i] + 1``, and a leaf has feature -1."""
    start, stop = span(trees, t)
    feature, threshold, count_0, count_1 = (
        a[start:stop].tolist() for a in (trees.feature, trees.threshold, trees.count_0, trees.count_1)
    )
    child = (trees.child[start:stop] - start).tolist()
    done = [None] * len(feature)
    for i in reversed(range(len(feature))):
        if feature[i] < 0:
            done[i] = ("leaf", count_0[i], count_1[i])
        else:
            done[i] = ("node", feature[i], threshold[i], done[child[i]], done[child[i] + 1])
    return done[0]


def node_columns_sha256(trees):
    """The sha256 of a table's ``feature``, ``threshold``, ``count_0`` and
    ``count_1`` columns, in that order, each as its ``tobytes()``."""
    digest = hashlib.sha256()
    for column in (trees.feature, trees.threshold, trees.count_0, trees.count_1):
        digest.update(column.tobytes())
    return digest.hexdigest()


def trees_as_tuples(trees):
    return [tree_as_tuple(trees, t) for t in range(len(trees))]


def tuples_to_columns(shapes):
    """The oracle's tuple shapes -> the model file's four node columns,
    listing each tree's nodes in level order with a queue."""
    columns = {"feature": [], "threshold": [], "count_0": [], "count_1": []}
    for shape in shapes:
        queue = deque([shape])
        while queue:
            node = queue.popleft()
            if node[0] == "leaf":
                columns["feature"].append(-1)
                columns["count_0"].append(node[1])
                columns["count_1"].append(node[2])
            else:
                _, feature, threshold, left, right = node
                columns["feature"].append(feature)
                columns["threshold"].append(threshold)
                queue += [left, right]
    return columns


def trees_from_tuples(shapes):
    """The oracle's tuple shapes -> one package table, read as a model
    file's node columns, so every value is checked as a loaded one is."""
    return trees_from_json(tuples_to_columns(shapes))


def tree_from_tuple(shape):
    return trees_from_tuples([shape])


def leaf(count_0, count_1):
    return ("leaf", count_0, count_1)


def split(feature, threshold, left, right):
    return ("node", feature, threshold, left, right)


def oracle_leaf_fraction(tree, row):
    """Class-1 fraction of the leaf ``row`` (a list of floats) reaches in
    ``tree`` (tuple shape), walking down from the root one node at a time.
    NaN compares false and goes right."""
    node = tree
    while node[0] == "node":
        node = node[3] if row[node[1]] <= node[2] else node[4]
    return node[2] / (node[1] + node[2])


def oracle_soft_vote(trees, X):
    """Per row of ``X``, ``np.mean`` of the leaf fractions of the trees of
    the table ``trees``."""
    shapes = trees_as_tuples(trees)
    return [float(np.mean([oracle_leaf_fraction(tree, row) for tree in shapes])) for row in np.asarray(X).tolist()]


def oracle_metrics(tp, fp, tn, fn):
    """Exact rational metrics; undefined entries are None."""
    total = tp + fp + tn + fn
    precision = None if tp + fp == 0 else Fraction(tp, tp + fp)
    recall = None if tp + fn == 0 else Fraction(tp, tp + fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return {
        "accuracy": Fraction(tp + tn, total),
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }
