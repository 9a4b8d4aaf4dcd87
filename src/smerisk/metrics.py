"""Binary classification metrics from integer confusion counts.

Every ratio is computed as a single division of two exact integers, so each
reported value is the correctly rounded float of the underlying rational
number. F-1 in particular is evaluated as 2*tp / (2*tp + fp + fn), which is
algebraically the harmonic mean of precision and recall but avoids the
intermediate rounding of computing those two first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, ParameterError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts for the positive class (default = 1)."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
                raise ParameterError(f"{name} must be a non-negative integer, got {v!r}")
        if self.total == 0:
            raise EmptyInputError("confusion matrix holds no observations")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """Count agreement between 0/1 label arrays of equal length."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.ndim != 1 or p.ndim != 1:
        raise ParameterError("label arrays must be one-dimensional")
    if len(t) != len(p):
        raise ParameterError(f"label arrays differ in length: {len(t)} vs {len(p)}")
    if len(t) == 0:
        raise EmptyInputError("cannot score an empty prediction set")
    for arr, name in ((t, "y_true"), (p, "y_pred")):
        if not np.isin(arr, (0, 1)).all():
            raise ParameterError(f"{name} may contain only 0 and 1")
    t = t.astype(np.int64)
    p = p.astype(np.int64)
    return ConfusionMatrix(
        tp=int(np.sum((t == 1) & (p == 1))),
        fp=int(np.sum((t == 0) & (p == 1))),
        tn=int(np.sum((t == 0) & (p == 0))),
        fn=int(np.sum((t == 1) & (p == 0))),
    )


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy, precision, recall and F-1 with degeneracy flags.

    An undefined metric (zero denominator) is reported as 0.0 with its flag
    set, so downstream comparisons stay total without silently inventing a
    score.
    """

    accuracy: float
    precision: float
    recall: float
    f1: float
    precision_undefined: bool = False
    recall_undefined: bool = False
    f1_undefined: bool = False


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Derive the four headline metrics from a confusion matrix.

    precision is undefined when nothing was predicted positive, recall when
    no positives exist, F-1 when precision + recall is zero (which happens
    exactly when tp == 0).
    """
    accuracy = (cm.tp + cm.tn) / cm.total

    precision_undefined = (cm.tp + cm.fp) == 0
    precision = 0.0 if precision_undefined else cm.tp / (cm.tp + cm.fp)

    recall_undefined = (cm.tp + cm.fn) == 0
    recall = 0.0 if recall_undefined else cm.tp / (cm.tp + cm.fn)

    f1_undefined = cm.tp == 0
    f1 = 0.0 if f1_undefined else (2 * cm.tp) / (2 * cm.tp + cm.fp + cm.fn)

    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        precision_undefined=precision_undefined,
        recall_undefined=recall_undefined,
        f1_undefined=f1_undefined,
    )


def score_predictions(y_true: Sequence[int], y_pred: Sequence[int]) -> MetricsReport:
    return compute_metrics(confusion_matrix(y_true, y_pred))


def two_decimals(value: float) -> str:
    """Render a metric the way the comparison table does."""
    return f"{value:.2f}"
