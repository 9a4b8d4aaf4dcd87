"""Comparison pipeline tests: config plumbing, the shared-split guarantee,
report round trips, text rendering, and model save/load dispatch."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzing import key_paths, mutate_one_value
from smerisk.cart import tree_from_json_dict
from smerisk.dataset import Dataset, split_train_test, write_csv
from smerisk.errors import (
    DataError,
    DegenerateLabelsError,
    ModelFormatError,
    ParameterError,
    ParseError,
)
from smerisk.experiment import (
    ComparisonReport,
    ExperimentConfig,
    FeatureImportances,
    default_experiment_config,
    load_model,
    model_from_json_document,
    model_to_json_document,
    render_report,
    run_comparison,
    save_model,
)
from smerisk.forest import ForestModel, ForestParams, predict_forest_dataset, train_forest, feature_importances
from smerisk.logit import LogisticModel, LogitHyperparams, predict_proba_dataset, train_logistic
from smerisk.metrics import MetricsReport, score_predictions
from smerisk.synthgen import GeneratorConfig, generate

SMALL_CONFIG = ExperimentConfig(
    generator=GeneratorConfig(n_samples=240, seed=8, signal_strength=2.0),
    logit_hyper=LogitHyperparams(max_iterations=800),
    forest_params=ForestParams(n_trees=10, seed=5),
)


def ten_row_dataset():
    """Nine non-defaults and one default in the last row."""
    rows = [[0.01 * i, 0.3, 1.0 + 0.1 * i, 0.12, 0.8, i % 2] for i in range(9)]
    rows.append([-0.1, 0.45, 2.8, 0.06, 0.95, 1])
    return Dataset(rows, [0] * 9 + [1])


def paper_style_report():
    return ComparisonReport(
        delphi_metrics=MetricsReport(accuracy=0.69, precision=0.65, recall=0.56, f1=0.58),
        forest_metrics=MetricsReport(accuracy=0.83, precision=0.81, recall=0.77, f1=0.79),
        feature_importances=FeatureImportances(names=("A", "B"), values=(0.25, 0.75), degenerate=False),
        dataset_summary={"n_records": 1000, "default_rate": 0.2, "source": "generator"},
        config_echo={},
    )


# config


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ParameterError):
        ExperimentConfig()
    with pytest.raises(ParameterError):
        ExperimentConfig(generator=GeneratorConfig(), csv_path=str(tmp_path / "x.csv"))


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(generator=GeneratorConfig(), test_fraction=0.0)
    with pytest.raises(ParameterError):
        ExperimentConfig(generator=GeneratorConfig(), test_fraction=1.0)
    with pytest.raises(ParameterError):
        ExperimentConfig(generator=GeneratorConfig(), split_seed=-2)
    with pytest.raises(ParameterError):
        ExperimentConfig(generator=GeneratorConfig(), split_seed=True)


def test_default_config():
    cfg = default_experiment_config()
    assert cfg.generator == GeneratorConfig()
    assert cfg.csv_path is None
    assert cfg.test_fraction == 0.3
    assert cfg.split_seed == 42
    assert cfg.forest_params.n_trees == 100


def test_config_json_round_trip():
    back = ExperimentConfig.from_json_dict(SMALL_CONFIG.to_json_dict())
    assert back == SMALL_CONFIG
    csv_cfg = ExperimentConfig(csv_path="some/file.csv", split_seed=3)
    assert ExperimentConfig.from_json_dict(csv_cfg.to_json_dict()) == csv_cfg


def test_config_json_defaults_to_generator():
    cfg = ExperimentConfig.from_json_dict({})
    assert cfg.generator == GeneratorConfig()


def test_config_json_rejects_unknown_keys():
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json_dict({"n_trees": 10})
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json_dict(
            {"data_source": {"generator": {}, "csv_path": "x.csv"}}
        )
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json_dict({"data_source": {"bogus": 1}})


# The README config, with signal_strength 0 so that building its generator
# needs no intercept calibration (about 0.2 s each), and the generator's
# ranges and coefficients written out so they are fuzzed too. The same
# config with a csv_path source fuzzes the other sections at no
# calibration cost.
FUZZ_BASE = {
    "data_source": {"generator": {
        "n_samples": 1000, "seed": 42, "base_default_rate": 0.2, "signal_strength": 0.0,
        "ranges": {"revenue_growth": [-0.2, 0.2], "debt_equity_ratio": [0.2, 3.0]},
        "coefficients": {"debt_equity_ratio": 1.2, "covenant_breach": 4.0},
    }},
    "test_fraction": 0.3,
    "split_seed": 42,
    "logit_hyper": {"learning_rate": 0.1, "l2_lambda": 0.001, "max_iterations": 5000, "tolerance": 1e-08},
    "forest_params": {"n_trees": 100, "bootstrap": True, "seed": 42,
                      "tree_params": {"max_depth": None, "min_samples_split": 2, "features_per_split": None}},
}


FUZZ_BASES = [FUZZ_BASE, dict(FUZZ_BASE, data_source={"csv_path": "book.csv"})]
FUZZ_PATHS = [(base, path) for base in range(len(FUZZ_BASES)) for path in key_paths(FUZZ_BASES[base])]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_config_parsing_fuzz(data):
    """Replace, drop or add one value anywhere in a valid config: parsing
    returns a config or raises ParameterError, nothing else."""
    base, path = data.draw(st.sampled_from(FUZZ_PATHS))
    doc = mutate_one_value(data, FUZZ_BASES[base], path)
    try:
        config = ExperimentConfig.from_json_dict(doc)
    except ParameterError:
        return
    assert ExperimentConfig.from_json_dict(config.to_json_dict()) == config


# pipeline


def test_run_comparison_equals_manual_pipeline():
    report = run_comparison(SMALL_CONFIG)

    data = generate(SMALL_CONFIG.generator)
    train, test = split_train_test(data, SMALL_CONFIG.test_fraction, SMALL_CONFIG.split_seed)
    delphi = train_logistic(train, SMALL_CONFIG.logit_hyper)
    forest = train_forest(train, SMALL_CONFIG.forest_params)
    y = test.labels()
    delphi_pred = (predict_proba_dataset(delphi, test) >= 0.5).astype(np.int64)
    forest_pred = (predict_forest_dataset(forest, test) >= 0.5).astype(np.int64)
    values, degenerate = feature_importances(forest)

    assert report.delphi_metrics == score_predictions(y, delphi_pred)
    assert report.forest_metrics == score_predictions(y, forest_pred)
    assert report.feature_importances == FeatureImportances(
        forest.feature_names, tuple(float(v) for v in values), degenerate
    )
    assert report.dataset_summary["n_records"] == 240
    assert report.dataset_summary["default_rate"] == data.default_rate
    assert "generator" in report.dataset_summary["source"]
    assert report.config_echo == SMALL_CONFIG.to_json_dict()


def test_comparison_json_round_trip_and_determinism():
    report = run_comparison(SMALL_CONFIG)
    rendered = render_report(report, format="json")
    again = render_report(run_comparison(SMALL_CONFIG), format="json")
    assert rendered == again  # byte-identical rerun
    back = ComparisonReport.from_json_dict(json.loads(rendered))
    assert back == report


def test_comparison_from_csv_source(tmp_path):
    data = generate(GeneratorConfig(n_samples=120, seed=4, signal_strength=2.0))
    path = tmp_path / "input.csv"
    write_csv(data, path)
    cfg = ExperimentConfig(
        csv_path=str(path),
        forest_params=ForestParams(n_trees=5),
        logit_hyper=LogitHyperparams(max_iterations=300),
    )
    report = run_comparison(cfg)
    assert report.dataset_summary["n_records"] == 120
    assert report.dataset_summary["source"] == f"csv({path})"


def test_comparison_rejects_unlabeled_csv(tmp_path):
    data = generate(GeneratorConfig(n_samples=30, seed=4))
    bare = Dataset(data.X)
    path = tmp_path / "bare.csv"
    write_csv(bare, path)
    with pytest.raises(DataError):
        run_comparison(ExperimentConfig(csv_path=str(path)))


def test_single_class_training_split_raises(tmp_path):
    # Under split seed 3 the lone default lands in the test partition,
    # leaving a single-class training set; seed 0 keeps it in training.
    path = tmp_path / "ten.csv"
    write_csv(ten_row_dataset(), path)
    cfg = ExperimentConfig(
        csv_path=str(path),
        split_seed=3,
        forest_params=ForestParams(n_trees=2),
        logit_hyper=LogitHyperparams(max_iterations=50),
    )
    with pytest.raises(DegenerateLabelsError) as err:
        run_comparison(cfg)
    assert "3" in str(err.value)

    fine = dataclasses.replace(cfg, split_seed=0)
    report = run_comparison(fine)
    assert report.dataset_summary["n_records"] == 10


# rendering


def test_text_rendering_table_rows():
    text = render_report(paper_style_report(), format="text")
    rows = [line.split() for line in text.splitlines()]
    assert ["Accuracy", "0.69", "0.83"] in rows
    assert ["Precision", "0.65", "0.81"] in rows
    assert ["Recall", "0.56", "0.77"] in rows
    assert ["F-1", "0.58", "0.79"] in rows
    header = next(line for line in text.splitlines() if line.startswith("Performance metric"))
    assert "Delphi model" in header
    assert "Random forest (AI model)" in header


def test_text_rendering_importances_sorted():
    text = render_report(paper_style_report(), format="text")
    rows = [line.split() for line in text.splitlines()]
    b_at = rows.index(["B", "0.7500"])
    a_at = rows.index(["A", "0.2500"])
    assert b_at < a_at


def test_text_rendering_undefined_note():
    report = dataclasses.replace(
        paper_style_report(),
        delphi_metrics=MetricsReport(
            accuracy=0.8, precision=0.0, recall=0.0, f1=0.0,
            precision_undefined=True, f1_undefined=True,
        ),
    )
    text = render_report(report, format="text")
    rows = [line.split() for line in text.splitlines()]
    assert ["Precision", "0.00", "0.81"] in rows
    assert "undefined" in text


def test_text_rendering_degenerate_importances():
    report = dataclasses.replace(
        paper_style_report(),
        feature_importances=FeatureImportances(names=("A", "B"), values=(0.0, 0.0), degenerate=True),
    )
    text = render_report(report, format="text")
    assert "degenerate" in text


def test_render_rejects_unknown_format():
    with pytest.raises(ParameterError):
        render_report(paper_style_report(), format="xml")


# save/load dispatch


def test_save_load_both_model_kinds(tmp_path, strong_split):
    train, test = strong_split
    logit = train_logistic(train, LogitHyperparams(max_iterations=400))
    forest = train_forest(train, ForestParams(n_trees=4, seed=6))

    lp = tmp_path / "logit.json"
    fp = tmp_path / "forest.json"
    save_model(logit, lp)
    save_model(forest, fp)

    logit_back = load_model(lp)
    forest_back = load_model(fp)
    assert np.array_equal(logit_back.weights, logit.weights)
    assert isinstance(forest_back, ForestModel)
    assert np.array_equal(predict_forest_dataset(forest, test), predict_forest_dataset(forest_back, test))


def test_save_model_rejects_a_tree_too_deep_to_write(tmp_path):
    # a 1,500-level chain reads and predicts, but the nested document is
    # too deep for the JSON writer
    doc = {"count_0": 1, "count_1": 0}
    for depth in range(1500):
        doc = {"feature": 0, "threshold": float(depth), "left": {"count_0": 1, "count_1": 0}, "right": doc}
    tree = tree_from_json_dict(doc)
    path = tmp_path / "deep.json"
    with pytest.raises(ModelFormatError, match="too deeply") as info:
        save_model(ForestModel((tree,), ForestParams(n_trees=1)), path)
    assert "\n" not in str(info.value)
    assert not path.exists()


def test_save_model_rejects_other_objects(tmp_path):
    with pytest.raises(ParameterError):
        save_model(object(), tmp_path / "x.json")


def test_load_model_rejects_tampered_version(tmp_path, strong_split):
    train, _ = strong_split
    path = tmp_path / "logit.json"
    save_model(train_logistic(train, LogitHyperparams(max_iterations=50)), path)
    doc = path.read_text()
    path.write_text(doc.replace('"format_version": 1', '"format_version": "999"'))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_model_envelope_check(model_fuzz_bases):
    docs = model_fuzz_bases[0]
    assert isinstance(model_from_json_document(docs["logistic"]), LogisticModel)
    assert isinstance(model_from_json_document(docs["forest"]), ForestModel)
    bad_envelopes = [
        {"format_version": "999", "model_type": "logistic"},
        {"format_version": 2, "model_type": "logistic"},
        {"format_version": 1, "model_type": "gradient_boosting"},
        {"model_type": "logistic"},
    ]
    # equal to 1 in Python, but not the JSON integer 1
    bad_envelopes += [{"format_version": version, "model_type": "logistic"} for version in (True, 1.0, "1")]
    for envelope in bad_envelopes:
        doc = {k: v for k, v in docs["logistic"].items() if k not in ("format_version", "model_type")}
        with pytest.raises(ModelFormatError, match="format_version|model_type"):
            model_from_json_document(dict(doc, **envelope))


def test_load_model_rejects_corrupt_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_model(path)
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ParseError):
        load_model(path)


@pytest.fixture(scope="module")
def model_fuzz_bases(tmp_path_factory):
    """The saved documents of a 3-tree forest and a logistic model, every
    key path into each, and a directory for the mutated files."""
    data = generate(GeneratorConfig(n_samples=60, seed=4, signal_strength=2.0))
    docs = {
        "forest": model_to_json_document(train_forest(data, ForestParams(n_trees=3, seed=1))),
        "logistic": model_to_json_document(train_logistic(data, LogitHyperparams(max_iterations=50))),
    }
    paths = {kind: list(key_paths(doc)) for kind, doc in docs.items()}
    return docs, paths, tmp_path_factory.mktemp("model_fuzz")


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_load_model_fuzz(model_fuzz_bases, data):
    """Replace, drop or add one value anywhere in a saved model file, tree
    nodes included: loading returns a model or raises DataError, nothing
    else, and a model that loads saves and loads again."""
    docs, paths, workdir = model_fuzz_bases
    kind = data.draw(st.sampled_from(sorted(docs)))
    doc = mutate_one_value(data, docs[kind], data.draw(st.sampled_from(paths[kind])))
    path = workdir / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        model = load_model(path)
    except DataError:
        return
    save_model(model, path)
    assert type(load_model(path)) is type(model)
