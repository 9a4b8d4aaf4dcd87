"""Credit default scoring for SME loan books.

A from-scratch random forest compared against a logistic-regression
baseline (the "Delphi proxy") on synthetic loan data with a controllable
feature-to-default signal. Everything is deterministic given the seeds in
the configs: datasets, trained models, reports.
"""

from .cart import TreeParams, grow_tree_arrays
from .dataset import Dataset, load_csv, split_train_test, write_csv
from .experiment import (
    ComparisonReport,
    ExperimentConfig,
    default_experiment_config,
    load_model,
    render_report,
    run_comparison,
    save_model,
)
from .forest import ForestModel, ForestParams, feature_importances, predict_forest_dataset, train_forest
from .logit import LogisticModel, LogitHyperparams, predict_proba_dataset, to_labels, train_logistic
from .metrics import ConfusionMatrix, MetricsReport, compute_metrics, confusion_matrix
from .synthgen import GeneratorConfig, generate, latent_default_probability

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConfusionMatrix",
    "Dataset",
    "ExperimentConfig",
    "ForestModel",
    "ForestParams",
    "GeneratorConfig",
    "LogisticModel",
    "LogitHyperparams",
    "MetricsReport",
    "TreeParams",
    "compute_metrics",
    "confusion_matrix",
    "default_experiment_config",
    "feature_importances",
    "generate",
    "grow_tree_arrays",
    "latent_default_probability",
    "load_csv",
    "load_model",
    "predict_forest_dataset",
    "predict_proba_dataset",
    "render_report",
    "run_comparison",
    "save_model",
    "split_train_test",
    "to_labels",
    "train_forest",
    "train_logistic",
    "write_csv",
    "__version__",
]
