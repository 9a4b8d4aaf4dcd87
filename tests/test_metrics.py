"""Classification metrics tests, checked against an exact rational
arithmetic oracle."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import oracle_metrics
from smerisk.errors import EmptyInputError, ParameterError
from smerisk.metrics import (
    ConfusionMatrix,
    MetricsReport,
    compute_metrics,
    confusion_matrix,
    score_predictions,
    two_decimals,
)
from smerisk.serialize import from_json_dict, to_json_dict


def test_confusion_matrix_from_arrays():
    y_true = np.array([1, 1, 0, 0, 1, 0])
    y_pred = np.array([1, 0, 0, 1, 1, 0])
    cm = confusion_matrix(y_true, y_pred)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)


def test_confusion_matrix_validation():
    with pytest.raises(ParameterError):
        confusion_matrix(np.array([0, 1]), np.array([0, 1, 1]))
    with pytest.raises(ParameterError):
        confusion_matrix(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(EmptyInputError):
        confusion_matrix(np.array([], dtype=int), np.array([], dtype=int))


def test_counts_must_be_nonnegative_ints():
    with pytest.raises(ParameterError):
        ConfusionMatrix(tp=-1, fp=0, tn=1, fn=0)
    with pytest.raises(ParameterError):
        ConfusionMatrix(tp=True, fp=0, tn=1, fn=0)
    with pytest.raises(EmptyInputError):
        ConfusionMatrix(tp=0, fp=0, tn=0, fn=0)


def test_perfect_and_inverted_predictions():
    perfect = compute_metrics(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0))
    assert (perfect.accuracy, perfect.precision, perfect.recall, perfect.f1) == (1.0, 1.0, 1.0, 1.0)
    inverted = compute_metrics(ConfusionMatrix(tp=0, fp=5, tn=0, fn=5))
    assert inverted.accuracy == 0.0
    assert inverted.f1 == 0.0
    assert inverted.f1_undefined


def test_degenerate_no_positive_predictions():
    # tp + fp == 0: precision undefined, reported as 0.0 with the flag.
    m = compute_metrics(ConfusionMatrix(tp=0, fp=0, tn=8, fn=2))
    assert m.precision == 0.0 and m.precision_undefined
    assert m.recall == 0.0 and not m.recall_undefined
    assert m.f1 == 0.0 and m.f1_undefined
    assert m.accuracy == 0.8


def test_degenerate_no_actual_positives():
    # tp + fn == 0: recall undefined.
    m = compute_metrics(ConfusionMatrix(tp=0, fp=3, tn=7, fn=0))
    assert m.recall == 0.0 and m.recall_undefined
    assert m.precision == 0.0 and not m.precision_undefined
    assert m.f1 == 0.0 and m.f1_undefined


@pytest.mark.parametrize(
    "tp, fp, tn, fn",
    [
        (2, 1, 2, 1),
        (10, 0, 5, 5),
        (1, 1, 1, 1),
        (7, 3, 80, 10),
        (0, 0, 9, 1),
        (0, 4, 6, 0),
        (50, 25, 20, 5),
        (3, 9, 1, 2),
        (1, 0, 0, 99),
        (13, 17, 19, 23),
        (0, 0, 1, 0),
        (6, 2, 90, 2),
    ],
)
def test_matches_rational_oracle(tp, fp, tn, fn):
    m = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
    exact = oracle_metrics(tp, fp, tn, fn)
    assert m.accuracy == float(exact["accuracy"])
    assert m.precision == (float(exact["precision"]) if exact["precision"] is not None else 0.0)
    assert m.precision_undefined == (exact["precision"] is None)
    assert m.recall == (float(exact["recall"]) if exact["recall"] is not None else 0.0)
    assert m.recall_undefined == (exact["recall"] is None)
    if exact["f1"] is not None:
        # The implementation's single-division form vs the harmonic mean.
        assert m.f1 == pytest.approx(float(exact["f1"]), abs=1e-12)
        assert not m.f1_undefined


def test_f1_harmonic_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, size=4))
        if tp == 0:
            tp = 1
        m = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
        harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
        assert abs(m.f1 - harmonic) <= 1e-12


def test_swapping_classes_swaps_nothing_for_accuracy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        y_true = rng.integers(0, 2, size=30)
        y_pred = rng.integers(0, 2, size=30)
        a = score_predictions(y_true, y_pred)
        b = score_predictions(1 - y_true, 1 - y_pred)
        assert a.accuracy == b.accuracy


def test_report_json_round_trip():
    m = compute_metrics(ConfusionMatrix(tp=0, fp=0, tn=8, fn=2))
    back = from_json_dict(MetricsReport, to_json_dict(m))
    assert back == m


def test_two_decimal_rendering():
    assert two_decimals(0.8325) == "0.83"
    assert two_decimals(0.6875) == "0.69"
    assert two_decimals(1.0) == "1.00"
    assert two_decimals(0.005) == "0.01"
