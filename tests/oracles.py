"""Independent reference implementations the tests check against.

The tree oracle re-derives greedy CART growth from scratch: it enumerates
every (feature, midpoint-threshold) candidate at every node and scores it
in exact Fraction arithmetic, so there is no shared code (and no shared
rounding) with the package's vectorized integer-score search. Trees are
compared in the oracle's nested-tuple shape, which ``tree_as_tuple``
reads off the package's node arrays and ``tree_from_tuple`` turns back
into them through the model-file reader. The prediction oracle walks
those tuples one row at a time in plain Python, sharing nothing with the
package's flat (row, tree) walk. The metrics
oracle likewise works in rational arithmetic end to end. Finite
differences for the gradient live in the logit tests themselves.
"""

from fractions import Fraction

import numpy as np

from smerisk.cart import tree_from_json_dict


def oracle_gini(labels) -> Fraction:
    c1 = sum(labels)
    c0 = len(labels) - c1
    t = len(labels)
    return 1 - Fraction(c0 * c0 + c1 * c1, t * t)


def oracle_best_split(rows, labels, features):
    """Exhaustive exact-arithmetic split search.

    Same conventions the package promises: midpoints between consecutive
    distinct sorted values (falling back to the left value if the float
    midpoint rounds up onto the right one), minimize size-weighted child
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


def oracle_grow(rows, labels, depth=0, max_depth=None, min_samples_split=2):
    """Recursive greedy growth over all features; returns nested tuples
    ("leaf", count_0, count_1) / ("node", feature, threshold, left, right)."""
    c1 = sum(labels)
    c0 = len(labels) - c1
    at_limit = max_depth is not None and depth >= max_depth
    if c0 == 0 or c1 == 0 or len(labels) < min_samples_split or at_limit:
        return ("leaf", c0, c1)
    found = oracle_best_split(rows, labels, range(len(rows[0])))
    if found is None:
        return ("leaf", c0, c1)
    f, threshold = found
    left = [(r, lab) for r, lab in zip(rows, labels) if r[f] <= threshold]
    right = [(r, lab) for r, lab in zip(rows, labels) if r[f] > threshold]
    return (
        "node",
        f,
        threshold,
        oracle_grow([r for r, _ in left], [lab for _, lab in left], depth + 1, max_depth, min_samples_split),
        oracle_grow([r for r, _ in right], [lab for _, lab in right], depth + 1, max_depth, min_samples_split),
    )


def tree_as_tuple(tree):
    """Package tree -> the oracle's tuple shape, for structural equality.
    Built from the leaves up: node i's left child is i + 1, its right
    child ``right[i]``, and a leaf has feature -1."""
    feature, threshold, right, count_0, count_1 = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.right, tree.count_0, tree.count_1)
    )
    done = [None] * len(feature)
    for i in reversed(range(len(feature))):
        if feature[i] < 0:
            done[i] = ("leaf", count_0[i], count_1[i])
        else:
            done[i] = ("node", feature[i], threshold[i], done[i + 1], done[right[i]])
    return done[0]


def tree_from_tuple(node):
    """The oracle's tuple shape -> a package tree, read as a model file's
    tree document, so every value is checked as a loaded one is."""

    def doc(node):
        if node[0] == "leaf":
            return {"count_0": node[1], "count_1": node[2]}
        _, feature, threshold, left, right = node
        return {"feature": feature, "threshold": threshold, "left": doc(left), "right": doc(right)}

    return tree_from_json_dict(doc(node))


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
    """Per row of ``X``, ``np.mean`` of its trees' leaf fractions."""
    shapes = [tree_as_tuple(tree) for tree in trees]
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
