"""Independent reference implementations the tests check against.

The tree oracle re-derives greedy CART growth from scratch: it enumerates
every (feature, midpoint-threshold) candidate at every node and scores it
in exact Fraction arithmetic, so there is no shared code (and no shared
rounding) with the package's vectorized integer-score search. The
prediction oracle walks node objects one row at a time in plain Python,
sharing nothing with the package's flat (row, tree) walk. The metrics
oracle likewise works in rational arithmetic end to end. Finite
differences for the gradient live in the logit tests themselves.
"""

from fractions import Fraction

import numpy as np

from smerisk.cart import Internal, Leaf


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


def tree_as_tuple(node):
    """Package tree -> the oracle's tuple shape, for structural equality."""
    if isinstance(node, Leaf):
        return ("leaf", node.count_0, node.count_1)
    assert isinstance(node, Internal)
    return ("node", node.feature, node.threshold, tree_as_tuple(node.left), tree_as_tuple(node.right))


def oracle_leaf_fraction(tree, row):
    """Class-1 fraction of the leaf ``row`` (a list of floats) reaches,
    walking down from the root one node at a time. NaN compares false and
    goes right."""
    node = tree
    while isinstance(node, Internal):
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.count_1 / (node.count_0 + node.count_1)


def oracle_soft_vote(trees, X):
    """Per row of ``X``, ``np.mean`` of its trees' leaf fractions."""
    return [float(np.mean([oracle_leaf_fraction(tree, row) for tree in trees])) for row in np.asarray(X).tolist()]


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
