"""End-to-end model comparison: one dataset, one split, two models.

Both models are trained on the identical training partition and scored on
the identical held-out partition at threshold 0.5. The text rendering
reproduces the comparison-table layout (metric rows, one column per
model); the JSON rendering carries full precision and round-trips to an
equal report, byte for byte when re-rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from . import serialize
from .dataset import Dataset, load_csv, split_train_test
from .errors import DataError, DegenerateLabelsError, ModelFormatError, ParameterError
from .forest import (
    ForestModel,
    ForestParams,
    feature_importances,
    forest_from_json_document,
    forest_to_json_text,
    predict_forest_dataset,
    train_forest,
)
from .logit import (
    LogisticModel,
    LogitHyperparams,
    predict_proba_dataset,
    to_labels,
    train_logistic,
)
from .metrics import MetricsReport, score_predictions, two_decimals
from .serialize import dumps_deterministic, parse_json_file
from .synthgen import GeneratorConfig, generate

DECISION_THRESHOLD = 0.5

DELPHI_COLUMN = "Delphi model"
FOREST_COLUMN = "Random forest (AI model)"


@dataclass(frozen=True)
class ExperimentConfig:
    """Comparison recipe: exactly one data source plus split and model
    settings."""

    generator: GeneratorConfig | None = None
    csv_path: str | None = None
    test_fraction: float = 0.3
    split_seed: int = 42
    logit_hyper: LogitHyperparams = field(default_factory=LogitHyperparams)
    forest_params: ForestParams = field(default_factory=ForestParams)

    def __post_init__(self):
        if (self.generator is None) == (self.csv_path is None):
            raise ParameterError("configure exactly one data source: generator or csv_path")
        if not 0.0 < self.test_fraction < 1.0:
            raise ParameterError(f"test_fraction must lie in (0, 1), got {self.test_fraction!r}")
        if type(self.split_seed) is not int or self.split_seed < 0:
            raise ParameterError(f"split_seed must be a non-negative integer, got {self.split_seed!r}")

    def to_json_dict(self) -> dict:
        """The codec's fields, with the data source under ``data_source``."""
        doc = serialize.to_json_dict(self)
        generator, csv_path = doc.pop("generator"), doc.pop("csv_path")
        doc["data_source"] = {"generator": generator} if generator is not None else {"csv_path": csv_path}
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        """An absent ``data_source`` means the default generator."""
        if not isinstance(doc, dict):
            raise ParameterError(f"an experiment config must be a JSON object, got {type(doc).__name__}")
        source = doc.get("data_source", {"generator": {}})
        if not isinstance(source, dict) or len(source) != 1 or not {"generator", "csv_path"} >= set(source):
            raise ParameterError("data_source must hold exactly one of: generator, csv_path")
        [(key, value)] = source.items()
        given = {"generator": None, "csv_path": None}
        given[key] = serialize.from_json_value(
            GeneratorConfig if key == "generator" else str, value, f"data_source.{key}"
        )
        rest = {k: v for k, v in doc.items() if k != "data_source"}
        return serialize.from_json_dict(cls, rest, **given)


def default_experiment_config() -> ExperimentConfig:
    return ExperimentConfig(generator=GeneratorConfig())


@dataclass(frozen=True)
class FeatureImportances:
    """The forest's normalized impurity decrease per feature; ``degenerate``
    is set (and every value 0) when no split reduced impurity."""

    names: tuple[str, ...]
    values: tuple[float, ...]
    degenerate: bool


@dataclass(frozen=True)
class ComparisonReport:
    """The comparison's result; the ``serialize`` codec writes its JSON."""

    delphi_metrics: MetricsReport
    forest_metrics: MetricsReport
    feature_importances: FeatureImportances
    dataset_summary: dict
    config_echo: dict

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ComparisonReport":  # unused here: perfbench's report check calls it
        return serialize.from_json_dict(cls, doc)


def _load_source(config: ExperimentConfig) -> tuple[Dataset, str]:
    if config.generator is not None:
        g = config.generator
        return generate(g), f"generator(n={g.n_samples}, seed={g.seed}, signal={g.signal_strength})"
    data = load_csv(config.csv_path)
    if not data.labeled:
        raise DataError(f"{config.csv_path} has no Default_Status column; comparison needs labels")
    return data, f"csv({config.csv_path})"


def run_comparison(config: ExperimentConfig) -> ComparisonReport:
    """Train both models on one shared split and score the held-out part."""
    data, source = _load_source(config)
    train, test = split_train_test(data, config.test_fraction, config.split_seed)
    labels = train.labels()
    if len(labels) == 0 or labels.min() == labels.max():
        raise DegenerateLabelsError(
            f"training split under split_seed {config.split_seed} contains a single class"
        )

    delphi = train_logistic(train, config.logit_hyper)
    forest = train_forest(train, config.forest_params)

    y_test = test.labels()
    delphi_pred = to_labels(predict_proba_dataset(delphi, test), DECISION_THRESHOLD)
    forest_pred = to_labels(predict_forest_dataset(forest, test), DECISION_THRESHOLD)

    importance_values, degenerate = feature_importances(forest)
    return ComparisonReport(
        delphi_metrics=score_predictions(y_test, delphi_pred),
        forest_metrics=score_predictions(y_test, forest_pred),
        feature_importances=FeatureImportances(forest.feature_names, tuple(importance_values.tolist()), degenerate),
        dataset_summary={
            "n_records": len(data),
            "default_rate": data.default_rate,
            "source": source,
        },
        config_echo=config.to_json_dict(),
    )


def _metric_rows(report: ComparisonReport) -> list[tuple[str, float, float, bool, bool]]:
    d, f = report.delphi_metrics, report.forest_metrics
    return [
        ("Accuracy", d.accuracy, f.accuracy, False, False),
        ("Precision", d.precision, f.precision, d.precision_undefined, f.precision_undefined),
        ("Recall", d.recall, f.recall, d.recall_undefined, f.recall_undefined),
        ("F-1", d.f1, f.f1, d.f1_undefined, f.f1_undefined),
    ]


def render_report(report: ComparisonReport, format: str = "text") -> str:
    """Render to 'text' (two-decimal comparison table) or 'json' (full
    precision, deterministic key order)."""
    if format == "json":
        return dumps_deterministic(serialize.to_json_dict(report))
    if format != "text":
        raise ParameterError(f"unknown report format {format!r}; use 'text' or 'json'")

    summary = report.dataset_summary
    lines = [
        f"Data: {summary['source']}, {summary['n_records']} records, "
        f"default rate {summary['default_rate']:.3f}",
        "",
        f"{'Performance metric':<20}{DELPHI_COLUMN:<16}{FOREST_COLUMN}",
    ]
    notes = []
    for name, dv, fv, d_flag, f_flag in _metric_rows(report):
        lines.append(f"{name:<20}{two_decimals(dv):<16}{two_decimals(fv)}")
        if d_flag:
            notes.append(f"note: Delphi {name.lower()} undefined (zero denominator), shown as 0.00")
        if f_flag:
            notes.append(f"note: forest {name.lower()} undefined (zero denominator), shown as 0.00")
    lines.extend(notes)
    lines.append("")
    importances = report.feature_importances
    if importances.degenerate:
        lines.append("Feature importances: degenerate (no split reduced impurity)")
    else:
        lines.append("Feature importances (impurity decrease, normalized):")
        for name, value in sorted(zip(importances.names, importances.values), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<28}{value:.4f}")
    return "\n".join(lines) + "\n"


MODEL_FORMAT_VERSION = 3

# model_type -> (model class, file writer, body reader); the writer
# renders the envelope it is given and the model's body as one text
_MODEL_CODECS = {
    "logistic": (
        LogisticModel,
        lambda model, envelope: dumps_deterministic({**envelope, **serialize.to_json_dict(model)}),
        lambda body: serialize.from_json_dict(LogisticModel, body),
    ),
    "random_forest": (ForestModel, forest_to_json_text, forest_from_json_document),
}


def model_to_json_text(model: Union[LogisticModel, ForestModel]) -> str:
    """A model file's text: the format envelope, then the model's body."""
    for model_type, (cls, write, _) in _MODEL_CODECS.items():
        if isinstance(model, cls):
            return write(model, {"format_version": MODEL_FORMAT_VERSION, "model_type": model_type})
    raise ParameterError(f"cannot serialize {type(model).__name__}")


def model_from_json_document(doc: dict) -> Union[LogisticModel, ForestModel]:
    """Read a model document by its model_type; raises ModelFormatError,
    whose message names the model type for any error in the body. An
    unknown key in the body (every key but these two) is an error."""
    version, model_type = doc.get("format_version"), doc.get("model_type")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version!r}; this build reads version {MODEL_FORMAT_VERSION}"
        )
    if not (isinstance(model_type, str) and model_type in _MODEL_CODECS):  # an array or object is unhashable
        raise ModelFormatError(f"unknown model_type {model_type!r}")
    body = {key: value for key, value in doc.items() if key not in ("format_version", "model_type")}
    try:
        return _MODEL_CODECS[model_type][2](body)
    except (ParameterError, ModelFormatError) as exc:
        raise ModelFormatError(f"malformed {model_type} document: {exc}") from None


def save_model(model: Union[LogisticModel, ForestModel], path: str | Path) -> None:
    """Write a model as a versioned JSON document."""
    Path(path).write_text(model_to_json_text(model), encoding="utf-8")


def load_model(path: str | Path) -> Union[LogisticModel, ForestModel]:
    """Read back a model written by save_model."""
    return model_from_json_document(parse_json_file(path))
