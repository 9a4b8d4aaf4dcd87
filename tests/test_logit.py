"""Logistic model tests: the sigmoid, the loss/gradient pair (checked by
central finite differences), training behaviour, prediction semantics,
and serialization."""

import math

import numpy as np
import pytest

from smerisk.dataset import Dataset, apply_standardizer, split_train_test
from smerisk.errors import DegenerateLabelsError, ModelFormatError, ParameterError
from smerisk.experiment import model_from_json_document, model_to_json_document
from smerisk.logit import (
    LogisticModel,
    LogitHyperparams,
    loss_and_gradient,
    predict_proba_dataset,
    sigmoid,
    to_labels,
    train_logistic,
)
from smerisk.serialize import from_json_dict, to_json_dict
from smerisk.synthgen import GeneratorConfig, generate


def cluster_dataset(n_per_class=20, gap=0.08, seed=1):
    """Two jittered clusters separated along revenue growth."""
    rng = np.random.default_rng(seed)
    rows = []
    for label in (0, 1):
        center = -gap if label == 0 else gap
        for _ in range(n_per_class):
            rows.append([
                center + float(rng.uniform(-0.01, 0.01)),
                0.3 + float(rng.uniform(-0.05, 0.05)),
                1.5 + float(rng.uniform(-0.2, 0.2)),
                0.12 + float(rng.uniform(-0.02, 0.02)),
                0.8 + float(rng.uniform(-0.1, 0.1)),
                int(rng.integers(0, 2)),
            ])
    return Dataset(rows, [0] * n_per_class + [1] * n_per_class)


# sigmoid


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(math.log(3.0)) - 0.75) <= 1e-15
    assert abs(sigmoid(-math.log(3.0)) - 0.25) <= 1e-15


def test_sigmoid_extremes_no_overflow():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    assert sigmoid(500.0) + sigmoid(-500.0) == 1.0


def test_sigmoid_vectorized_symmetry():
    z = np.linspace(-30.0, 30.0, 201)
    p = sigmoid(z)
    q = sigmoid(-z)
    assert np.all(np.abs(p + q - 1.0) <= 1e-15)
    assert np.all((p > 0.0) & (p < 1.0))


# loss and gradient


def test_loss_at_zero_weights_is_ln2():
    X = np.random.default_rng(0).normal(size=(10, 6))
    y = np.array([0, 1] * 5, dtype=np.int64)
    loss, _ = loss_and_gradient(np.zeros(6), 0.0, X, y, 0.0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def test_bias_gradient_at_zero_is_half_minus_rate():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 6))
    y = (rng.random(40) < 0.3).astype(np.int64)
    _, grad = loss_and_gradient(np.zeros(6), 0.0, X, y, 0.0)
    assert abs(grad[6] - (0.5 - y.mean())) <= 1e-15


def test_l2_term_affects_loss_and_gradient():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 6))
    y = rng.integers(0, 2, size=20).astype(np.int64)
    w = rng.normal(size=6)
    base_loss, base_grad = loss_and_gradient(w, 0.1, X, y, 0.0)
    reg_loss, reg_grad = loss_and_gradient(w, 0.1, X, y, 0.5)
    assert reg_loss == pytest.approx(base_loss + 0.25 * float(w @ w), rel=1e-12)
    assert np.allclose(reg_grad[:6] - base_grad[:6], 0.5 * w, atol=1e-12)
    assert reg_grad[6] == base_grad[6]  # bias is not penalized


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-5
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(5, 40))
        X = rng.normal(size=(n, 6))
        y = rng.integers(0, 2, size=n).astype(np.int64)
        w = rng.normal(scale=1.5, size=6)
        b = float(rng.normal(scale=1.5))
        lam = float(rng.uniform(0.0, 0.1))
        _, grad = loss_and_gradient(w, b, X, y, lam)
        for k in range(7):
            wp, bp = w.copy(), b
            wm, bm = w.copy(), b
            if k < 6:
                wp[k] += step
                wm[k] -= step
            else:
                bp += step
                bm -= step
            lp, _ = loss_and_gradient(wp, bp, X, y, lam)
            lm, _ = loss_and_gradient(wm, bm, X, y, lam)
            fd = (lp - lm) / (2.0 * step)
            rel = abs(fd - grad[k]) / max(1.0, abs(grad[k]))
            worst = max(worst, rel)
    assert worst <= 1e-6


# training


def test_train_learns_separable_clusters():
    data = cluster_dataset()
    model = train_logistic(data)
    assert np.array_equal(to_labels(predict_proba_dataset(model, data)), data.labels())


def test_train_zero_iterations_gives_null_model():
    data = cluster_dataset()
    model = train_logistic(data, LogitHyperparams(max_iterations=0))
    assert np.all(model.weights == 0.0)
    assert model.bias == 0.0
    assert model.training_meta["iterations"] == 0
    probs = predict_proba_dataset(model, data)
    assert np.all(probs == 0.5)
    assert np.all(to_labels(probs) == 1)  # ties go to the default class


def test_final_loss_non_increasing_in_iteration_budget():
    data = cluster_dataset(n_per_class=15)
    losses = []
    for k in (0, 1, 2, 5, 10, 25, 60, 150):
        model = train_logistic(data, LogitHyperparams(max_iterations=k))
        assert model.training_meta["iterations"] <= k
        losses.append(model.training_meta["final_loss"])
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-15


def test_train_deterministic(strong_split):
    train, _ = strong_split
    a = train_logistic(train)
    b = train_logistic(train)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.training_meta == b.training_meta


def test_leverage_weight_positive_on_generated_data(default_split):
    train, _ = default_split
    model = train_logistic(train)
    # Debt to equity is the strongest risk driver in the generator.
    assert model.weights[2] > 0.0


@pytest.mark.parametrize("seed", [*range(10), 42])
def test_fit_is_stationary_in_few_steps(seed):
    # A certificate that the fit reached the optimum of its own objective:
    # the gradient recomputed at the returned model vanishes. The step
    # count guards against a return to slow first-order fitting.
    train, _ = split_train_test(generate(GeneratorConfig(seed=seed)), 0.3, seed)
    hyper = LogitHyperparams()
    model = train_logistic(train, hyper)
    X = apply_standardizer(model.standardization, train)
    _, grad = loss_and_gradient(model.weights, model.bias, X, train.labels(), hyper.l2_lambda)
    assert float(np.abs(grad).max()) <= 1e-8
    assert model.training_meta["iterations"] <= 20


def test_train_singular_hessian_without_penalty(strong_data):
    # With l2_lambda = 0, a constant feature (standardized to a zero
    # column) and a constant sector column (a copy of the bias column) make
    # the Newton system singular; the fit must still reach a stationary
    # point deterministically.
    X = strong_data.X.copy()
    X[:, 0] = 0.0
    X[:, 5] = 1.0
    data = Dataset(X, strong_data.labels())
    hyper = LogitHyperparams(l2_lambda=0.0)
    model = train_logistic(data, hyper)
    Z = apply_standardizer(model.standardization, data)
    assert np.linalg.matrix_rank(np.column_stack([Z, np.ones(len(Z))])) == 5
    _, grad = loss_and_gradient(model.weights, model.bias, Z, data.labels(), 0.0)
    assert float(np.abs(grad).max()) <= 1e-8
    assert model.training_meta["iterations"] <= 20
    again = train_logistic(data, hyper)
    assert np.array_equal(again.weights, model.weights) and again.bias == model.bias


def test_train_rejects_single_class():
    rows = [[0.01 * i, 0.3, 1.5, 0.12, 0.8, 0] for i in range(10)]
    with pytest.raises(DegenerateLabelsError):
        train_logistic(Dataset(rows, [0] * 10))


def test_hyperparams_validation():
    with pytest.raises(ParameterError):
        LogitHyperparams(learning_rate=0.0)
    with pytest.raises(ParameterError):
        LogitHyperparams(l2_lambda=-0.1)
    with pytest.raises(ParameterError):
        LogitHyperparams(l2_lambda=float("nan"))
    with pytest.raises(ParameterError):
        LogitHyperparams(max_iterations=-1)
    with pytest.raises(ParameterError):
        LogitHyperparams(max_iterations=True)
    with pytest.raises(ParameterError):
        LogitHyperparams(tolerance=0.0)
    assert LogitHyperparams(max_iterations=0).max_iterations == 0


def test_hyperparams_json_round_trip():
    h = LogitHyperparams(learning_rate=0.2, l2_lambda=0.01, max_iterations=100, tolerance=1e-6)
    assert from_json_dict(LogitHyperparams, to_json_dict(h)) == h


# prediction


def test_predict_matches_hand_formula(strong_split):
    train, test = strong_split
    model = train_logistic(train)
    Z = apply_standardizer(model.standardization, test)
    probs = predict_proba_dataset(model, test)
    for row, p in zip(Z[:20], probs):
        by_hand = 1.0 / (1.0 + math.exp(-(float(row @ np.asarray(model.weights)) + model.bias)))
        assert p == pytest.approx(by_hand, abs=1e-12)


def test_negating_parameters_flips_probability(strong_split):
    train, test = strong_split
    model = train_logistic(train)
    flipped = LogisticModel(
        weights=tuple(-w for w in model.weights),
        bias=-model.bias,
        standardization=model.standardization,
        training_meta=model.training_meta,
    )
    p = predict_proba_dataset(model, test)
    q = predict_proba_dataset(flipped, test)
    assert np.all(np.abs(p + q - 1.0) <= 1e-12)


def test_predict_proba_dataset_matches_scalar(strong_split):
    # Each row scored alone gives the same probability as the batch.
    train, test = strong_split
    model = train_logistic(train)
    probs = predict_proba_dataset(model, test)
    for i in range(20):
        alone = predict_proba_dataset(model, test.subset([i]))
        assert alone.shape == (1,)
        assert probs[i] == pytest.approx(alone[0], abs=1e-12)


def test_threshold_semantics(strong_split):
    train, test = strong_split
    model = train_logistic(train)
    p = float(predict_proba_dataset(model, test)[0])
    assert to_labels([p], threshold=p)[0] == 1  # boundary is a default
    tiny = np.nextafter(p, 1.0)
    if 0.0 < tiny < 1.0:
        assert to_labels([p], threshold=float(tiny))[0] == 0


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
def test_threshold_bounds(strong_split, threshold):
    train, test = strong_split
    model = train_logistic(train)
    with pytest.raises(ParameterError):
        to_labels(predict_proba_dataset(model, test), threshold=threshold)


# serialization


def test_logistic_json_round_trip(strong_split):
    train, test = strong_split
    model = train_logistic(train)
    doc = model_to_json_document(model)
    assert doc["model_type"] == "logistic"
    back = model_from_json_document(doc)
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    assert back.standardization == model.standardization
    assert np.array_equal(predict_proba_dataset(back, test), predict_proba_dataset(model, test))


@pytest.mark.parametrize(
    "meta",
    [
        {"iterations": 3},
        {"iterations": 3, "final_loss": 0.5, "converged": True},
        {"iterations": -5, "final_loss": 0.5},
        {"iterations": 3.0, "final_loss": 0.5},
        {"iterations": 3, "final_loss": "0.5"},
        {"iterations": 3, "final_loss": math.nan},
        [3, 0.5],
    ],
)
def test_training_meta_validation(strong_split, meta):
    model = train_logistic(strong_split[0])
    with pytest.raises(ParameterError, match="training_meta"):
        LogisticModel(model.weights, model.bias, model.standardization, meta)
    back = LogisticModel(model.weights, model.bias, model.standardization, {"iterations": 0, "final_loss": 1})
    assert back.training_meta == {"iterations": 0, "final_loss": 1.0}
    assert type(back.training_meta["final_loss"]) is float


def test_logistic_json_rejects_bad_documents(strong_split):
    train, _ = strong_split
    doc = model_to_json_document(train_logistic(train))
    stale = dict(doc, format_version="999")
    with pytest.raises(ModelFormatError):
        model_from_json_document(stale)
    wrong = dict(doc, model_type="random_forest")
    with pytest.raises(ModelFormatError):
        model_from_json_document(wrong)
    broken = dict(doc)
    del broken["weights"]
    with pytest.raises(ModelFormatError):
        model_from_json_document(broken)
