"""Logistic regression baseline trained by Newton's method (IRLS).

The objective is mean cross-entropy plus an L2 penalty (lambda/2)*||w||^2
on the weights only; the bias is unpenalized. Training standardizes the
continuous features first, starts from all-zero parameters, and takes
safeguarded Newton steps (Hastie, Tibshirani & Friedman, ESL 4.4.1): each
step solves the 7x7 system (Z'WZ/n + diag(lambda, ..., lambda, 0)) d = grad
with Z = [X, 1] and W = p(1 - p), starts at length 1 and is halved while
the loss would rise, so the loss sequence is non-increasing by
construction. With lambda > 0 the objective is strictly convex and the
whole procedure is deterministic, so retraining reproduces the model bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .dataset import (
    Dataset,
    FEATURE_COLUMNS,
    StandardizationParams,
    apply_standardizer,
    fit_standardizer,
)
from .errors import DegenerateLabelsError, ParameterError
from .serialize import from_json_value

_PROB_CLAMP = 1e-12
_MAX_HALVINGS = 60


def sigmoid(z: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """1/(1 + e^-z), overflow-safe for any finite argument.

    The two algebraically equal branches each exponentiate only a
    non-positive number, so extreme z underflows harmlessly to 0 or 1
    instead of overflowing.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))  # e^-z where z >= 0, e^z elsewhere
    out = np.where(z >= 0, 1.0, e)
    e += 1.0  # in place: no array beyond e and out is held
    out /= e
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LogitHyperparams:
    # No effect: a Newton step has no learning rate. Still parsed, validated
    # and echoed so that existing config files keep loading; it is removed
    # together with the next benchmark revision, whose config still sends it.
    learning_rate: float = 0.1
    l2_lambda: float = 1e-3
    max_iterations: int = 5000  # cap on Newton steps
    tolerance: float = 1e-8  # an accepted step lowering the loss by less stops the fit

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        if not self.l2_lambda >= 0:  # also rejects NaN
            raise ParameterError(f"l2_lambda must be >= 0, got {self.l2_lambda!r}")
        if type(self.max_iterations) is not int or self.max_iterations < 0:
            raise ParameterError(f"max_iterations must be a non-negative integer, got {self.max_iterations!r}")
        if not self.tolerance > 0:
            raise ParameterError(f"tolerance must be > 0, got {self.tolerance!r}")


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Trained coefficients plus the standardizer they were fitted under.

    ``weights`` has one slot per canonical feature (sector encoded 0/1 and
    unstandardized); predictions standardize the continuous features with
    the stored parameters before applying the linear form. ``training_meta``
    holds exactly ``iterations`` (the accepted Newton steps) and
    ``final_loss``. The model file body is this dataclass through the
    ``serialize`` codec, so its keys and values are checked like any
    config's.
    """

    weights: np.ndarray
    bias: float
    standardization: StandardizationParams
    training_meta: dict

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(FEATURE_COLUMNS),):
            raise ParameterError(f"weights must have shape ({len(FEATURE_COLUMNS)},), got {w.shape}")
        if not (np.isfinite(w).all() and np.isfinite(self.bias)):
            raise ParameterError("model parameters must be finite")
        meta = self.training_meta
        if not isinstance(meta, dict) or set(meta) != {"iterations", "final_loss"}:
            raise ParameterError("training_meta must hold exactly the keys final_loss and iterations")
        if from_json_value(int, meta["iterations"], "training_meta.iterations") < 0:
            raise ParameterError(f"training_meta.iterations must be >= 0, got {meta['iterations']}")
        final_loss = from_json_value(float, meta["final_loss"], "training_meta.final_loss")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "training_meta", dict(meta, final_loss=final_loss))


def loss_and_gradient(
    weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, l2_lambda: float
) -> tuple[float, np.ndarray]:
    """Regularized cross-entropy and its analytic gradient.

    The gradient vector carries the weight slots first and the bias slot
    last. Probabilities are clamped to [1e-12, 1 - 1e-12] inside the
    logarithms only; the gradient uses the raw probabilities, which is the
    exact derivative everywhere the clamp is inactive.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n == 0:
        raise ParameterError("loss needs a nonempty batch")
    z = X @ weights + bias
    p = sigmoid(z)
    # 1 - p computed as sigmoid(-z): algebraically identical, but avoids the
    # cancellation that makes log(1 - p) lose digits when p is close to 1
    pc = np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    qc = np.clip(sigmoid(-z), _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    cross_entropy = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(qc)))
    loss = cross_entropy + 0.5 * l2_lambda * float(weights @ weights)
    residual = p - y
    grad_w = X.T @ residual / n + l2_lambda * weights
    grad_b = float(np.mean(residual))
    return loss, np.concatenate([grad_w, [grad_b]])


def train_logistic(train: Dataset, hyper: LogitHyperparams = LogitHyperparams()) -> LogisticModel:
    """Fit the baseline on a labeled dataset.

    Stops on the first accepted step whose loss decrease falls below
    hyper.tolerance, or after hyper.max_iterations steps. The Newton system
    is solved by minimum-norm least squares, so a singular Hessian (with
    l2_lambda = 0, a constant column or an all-equal sector is collinear
    with the bias) still gives a defined, deterministic step.
    """
    y = train.labels().astype(float)
    if len(y) == 0 or y.min() == y.max():
        raise DegenerateLabelsError("training set contains a single class; the baseline needs both")
    standardization = fit_standardizer(train)
    X = apply_standardizer(standardization, train)
    Z = np.column_stack([X, np.ones(len(y))])
    ridge = np.diag([hyper.l2_lambda] * X.shape[1] + [0.0])  # the bias is unpenalized

    weights = np.zeros(len(FEATURE_COLUMNS))
    bias = 0.0
    loss, grad = loss_and_gradient(weights, bias, X, y, hyper.l2_lambda)
    iterations = 0
    for _ in range(hyper.max_iterations):
        p = sigmoid(X @ weights + bias)
        hessian = (Z.T * (p * (1.0 - p))) @ Z / len(y) + ridge
        direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):  # step lengths 1, 1/2, ..., 2**-_MAX_HALVINGS
            new_w = weights - step * direction[:-1]
            new_b = bias - step * direction[-1]
            new_loss, new_grad = loss_and_gradient(new_w, new_b, X, y, hyper.l2_lambda)
            if new_loss <= loss:
                break
            step /= 2.0
        else:
            # no step this small can decrease the loss; we are at the optimum
            # to within float resolution
            break
        decrease = loss - new_loss
        weights, bias, loss, grad = new_w, new_b, new_loss, new_grad
        iterations += 1
        if decrease < hyper.tolerance:
            break

    return LogisticModel(
        weights=weights,
        bias=bias,
        standardization=standardization,
        training_meta={"iterations": iterations, "final_loss": loss},
    )


def predict_proba_dataset(model: LogisticModel, dataset: Dataset) -> np.ndarray:
    """sigmoid(w . standardize(x) + b) for every row of ``dataset``."""
    X = apply_standardizer(model.standardization, dataset)
    return np.asarray(sigmoid(X @ model.weights + model.bias))


def to_labels(probs: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """1 where a probability is >= threshold, else 0 (ties go to the
    default class, the conservative call in credit screening)."""
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"threshold must lie in (0, 1), got {threshold}")
    return (np.asarray(probs) >= threshold).astype(np.int64)
