"""Command-line interface tests, driven through main(argv) so exit codes
and stdout/stderr can be asserted without spawning subprocesses; one
test runs a fresh interpreter to see which modules a run imports."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smerisk
from smerisk.cli import main
from smerisk.dataset import ALL_COLUMNS, Dataset, load_csv, write_csv
from smerisk.experiment import ExperimentConfig, model_to_json_text
from smerisk.forest import ForestParams, train_forest
from smerisk.logit import LogitHyperparams, train_logistic
from smerisk.serialize import dumps_deterministic, to_json_dict
from smerisk.synthgen import MAX_SAMPLES, GeneratorConfig, generate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_csv(tmp_path):
    data = generate(GeneratorConfig(n_samples=120, seed=4, signal_strength=2.0))
    path = tmp_path / "book.csv"
    write_csv(data, path)
    return path


@pytest.fixture()
def small_config_file(tmp_path):
    cfg = ExperimentConfig(
        generator=GeneratorConfig(n_samples=150, seed=6, signal_strength=2.0),
        logit_hyper=LogitHyperparams(max_iterations=400),
        forest_params=ForestParams(n_trees=8, seed=2),
    )
    path = tmp_path / "experiment.json"
    path.write_text(dumps_deterministic(cfg.to_json_dict()), encoding="utf-8")
    return path


# generate


def test_generate_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, stdout, _ = run_cli(capsys, "generate", "--n", "80", "--seed", "3", "--out", str(out))
    assert code == 0
    assert "80" in stdout
    data = load_csv(out)
    assert len(data) == 80
    assert data.labeled


def test_generate_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(capsys, "generate", "--n", "60", "--out", str(a))[0] == 0
    assert run_cli(capsys, "generate", "--n", "60", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_bad_params(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "generate", "--n", "0", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert stderr.startswith("error:")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--seed", str(2**64)), "seed must be an integer in [0, 2**64 - 1], got 18446744073709551616"),
        (("--signal", "1e308"), "signal_strength 1e+308 is so large the risk score overflows"),
    ],
)
def test_generate_rejects_a_seed_or_signal_past_its_range(flags, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, stdout, stderr = run_cli(capsys, "generate", "--n", "50", *flags, "--out", str(out))
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("n", [MAX_SAMPLES + 1, 10**20])
def test_generate_rejects_n_above_cap(n, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, stdout, stderr = run_cli(capsys, "generate", "--n", str(n), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "n_samples" in stderr
    assert not out.exists()


# compare


def test_compare_data_prints_table(small_csv, capsys):
    code, stdout, _ = run_cli(capsys, "compare", "--data", str(small_csv), "--trees", "8")
    assert code == 0
    rows = [line.split() for line in stdout.splitlines()]
    names = [r[0] for r in rows if r]
    for metric in ("Accuracy", "Precision", "Recall", "F-1"):
        assert metric in names


def test_compare_json_report_round_trips(small_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "compare", "--data", str(small_csv), "--trees", "8", "--json", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "delphi_metrics",
        "forest_metrics",
        "feature_importances",
        "dataset_summary",
        "config_echo",
    }
    assert doc["dataset_summary"]["n_records"] == 120


def test_compare_data_takes_config_defaults(small_csv, tmp_path, capsys, monkeypatch):
    # unset --data flags mean the same run as a config naming only the CSV
    monkeypatch.chdir(small_csv.parent)
    (tmp_path / "only_csv.json").write_text(json.dumps({"data_source": {"csv_path": small_csv.name}}))
    from_flags = run_cli(capsys, "compare", "--data", small_csv.name, "--json", "a.json")
    from_config = run_cli(capsys, "compare", "--config", str(tmp_path / "only_csv.json"), "--json", "b.json")
    assert from_flags[0] == from_config[0] == 0
    assert from_flags[1] == from_config[1]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_compare_config_file_runs(small_config_file, capsys):
    code, stdout, _ = run_cli(capsys, "compare", "--config", str(small_config_file))
    assert code == 0
    assert "Performance metric" in stdout


def test_compare_does_not_import_numpy_ma(small_config_file):
    # np.unique's first call imports numpy.ma, which costs a fresh run
    # about 13 ms; the label checks compare the minimum and maximum instead
    script = (
        "import sys\n"
        "from smerisk.cli import main\n"
        f"assert main(['compare', '--config', {str(small_config_file)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = [str(Path(smerisk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_compare_reruns_byte_identical(small_config_file, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out_a = run_cli(capsys, "compare", "--config", str(small_config_file), "--json", str(a))
    out_b = run_cli(capsys, "compare", "--config", str(small_config_file), "--json", str(b))
    assert out_a[0] == out_b[0] == 0
    assert out_a[1] == out_b[1]
    assert a.read_bytes() == b.read_bytes()


def test_compare_config_refuses_override_flags(small_config_file, capsys):
    code, _, stderr = run_cli(
        capsys, "compare", "--config", str(small_config_file), "--trees", "5"
    )
    assert code == 2
    assert "--trees" in stderr or "config" in stderr


def test_compare_corrupt_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, stderr = run_cli(capsys, "compare", "--config", str(path))
    assert code == 2
    assert stderr.startswith("error:")


def test_compare_config_rejects_nan(tmp_path, capsys):
    # json.loads would accept the NaN token; the config reader must not.
    path = tmp_path / "nan.json"
    for l2_lambda in ("NaN", '"nan"'):
        path.write_text('{"logit_hyper": {"learning_rate": 0.1, "l2_lambda": %s, '
                        '"max_iterations": 10, "tolerance": 1e-8}}' % l2_lambda)
        code, _, stderr = run_cli(capsys, "compare", "--config", str(path))
        assert code == 2
        assert "nan" in stderr.lower()


def test_compare_config_rejects_deep_nesting(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, _, stderr = run_cli(capsys, "compare", "--config", str(path))
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


@pytest.mark.parametrize(
    "forest_params",
    [
        {"bootstrap": "false"},
        {"n_trees": 2.9},
        {"n_trees": True},
        {"seed": "3"},
        {"tree_params": {"max_depth": 2.9, "min_samples_split": 2, "features_per_split": None}},
        {"tree_params": {"max_depth": None, "min_samples_split": True, "features_per_split": None}},
        {"tree_params": {"max_depth": None, "min_samples_split": 2, "features_per_split": 1.0}},
    ],
)
def test_compare_config_rejects_mistyped_forest_params(forest_params, small_config_file, tmp_path, capsys):
    doc = json.loads(small_config_file.read_text())
    doc["forest_params"].update(forest_params)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run_cli(capsys, "compare", "--config", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def _generator(doc):
    return doc["data_source"]["generator"]


def _repeat_key(key):
    """An edit returning the document's text with ``key`` given twice, first
    as 7: json.loads alone would keep the last value and accept it."""
    return lambda doc: json.dumps(doc).replace(f'"{key}": ', f'"{key}": 7, "{key}": ', 1)


def _write_edited(path, mutate, doc):
    """Write ``doc`` after an in-place edit, or the text an edit returns."""
    text = mutate(doc)
    path.write_text(text if isinstance(text, str) else json.dumps(doc))  # json.dumps writes NaN and Infinity tokens


# name -> (in-place edit of the config document or one returning its text,
# JSON path the error must name)
CONFIG_MUTATIONS = {
    "forest_params_array": (lambda doc: doc.update(forest_params=[1]), "forest_params"),
    "short_range": (
        lambda doc: _generator(doc)["ranges"].update(revenue_growth=[0.1]),
        "data_source.generator.ranges.revenue_growth",
    ),
    "fractional_split_seed": (lambda doc: doc.update(split_seed=2.5), "split_seed"),
    "string_test_fraction": (lambda doc: doc.update(test_fraction="0.3"), "test_fraction"),
    "boolean_generator_seed": (lambda doc: _generator(doc).update(seed=True), "data_source.generator.seed"),
    "fractional_n_samples": (lambda doc: _generator(doc).update(n_samples=200.7), "data_source.generator.n_samples"),
    "string_coefficient": (
        lambda doc: _generator(doc)["coefficients"].update(covenant_breach="4"),
        "data_source.generator.coefficients.covenant_breach",
    ),
    "boolean_max_iterations": (
        lambda doc: doc["logit_hyper"].update(max_iterations=True),
        "logit_hyper.max_iterations",
    ),
    "string_learning_rate": (lambda doc: doc["logit_hyper"].update(learning_rate="0.1"), "logit_hyper.learning_rate"),
    "typo_forest_key": (lambda doc: doc["forest_params"].update(n_treez=5), "forest_params.n_treez"),
    # never allocated: the cap is checked before the generator draws anything
    "n_samples_over_cap": (lambda doc: _generator(doc).update(n_samples=MAX_SAMPLES + 1), "data_source.generator"),
    "huge_n_samples": (lambda doc: _generator(doc).update(n_samples=10**20), "data_source.generator"),
    # seeds are mixed as 64-bit integers: 2**64 would draw what seed 0 draws
    "generator_seed_past_64_bits": (lambda doc: _generator(doc).update(seed=2**64), "data_source.generator"),
    "forest_seed_past_64_bits": (lambda doc: doc["forest_params"].update(seed=2**64 + 7), "forest_params"),
    "signal_past_the_float_range": (lambda doc: _generator(doc).update(signal_strength=1e308), "data_source.generator"),
    "repeated_forest_key": (_repeat_key("n_trees"), '"n_trees"'),
}


@pytest.mark.parametrize("mutation", sorted(CONFIG_MUTATIONS))
def test_compare_config_rejects_malformed_value(mutation, small_config_file, tmp_path, capsys):
    mutate, json_path = CONFIG_MUTATIONS[mutation]
    path = tmp_path / "bad.json"
    _write_edited(path, mutate, json.loads(small_config_file.read_text()))
    code, stdout, stderr = run_cli(capsys, "compare", "--config", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert json_path in stderr


@pytest.mark.parametrize(
    "section, partial, defaults",
    [
        ("forest_params", {"n_trees": 5}, ForestParams(n_trees=5)),
        ("logit_hyper", {"learning_rate": 0.2}, LogitHyperparams(learning_rate=0.2)),
    ],
)
def test_compare_config_partial_section_takes_defaults(section, partial, defaults, small_config_file, tmp_path, capsys):
    doc = json.loads(small_config_file.read_text())
    doc[section] = partial
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    code, _, stderr = run_cli(capsys, "compare", "--config", str(path), "--json", str(report))
    assert code == 0, stderr
    assert json.loads(report.read_text())["config_echo"][section] == to_json_dict(defaults)


def test_compare_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "weird.json"
    path.write_text('{"depth": 3}\n')
    assert run_cli(capsys, "compare", "--config", str(path))[0] == 2


def test_compare_missing_data_file(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "compare", "--data", str(tmp_path / "absent.csv"))
    assert code == 3
    assert "error:" in stderr


def test_compare_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(ALL_COLUMNS) + "\n1,2\n")
    assert run_cli(capsys, "compare", "--data", str(path))[0] == 3


def test_compare_degenerate_split(tmp_path, capsys):
    # Lone default lands in the held-out partition under this seed.
    from test_experiment import ten_row_dataset

    path = tmp_path / "ten.csv"
    write_csv(ten_row_dataset(), path)
    code, _, stderr = run_cli(
        capsys, "compare", "--data", str(path), "--seed", "3", "--trees", "2"
    )
    assert code == 4
    assert "single class" in stderr


def test_compare_requires_a_source(capsys):
    with pytest.raises(SystemExit):
        main(["compare"])


# train / score / importance


def test_train_score_round_trip(small_csv, tmp_path, capsys):
    model_path = tmp_path / "forest.json"
    code, _, _ = run_cli(
        capsys, "train", "--model", "forest", "--data", str(small_csv), "--out", str(model_path)
    )
    assert code == 0

    scores = tmp_path / "scores.csv"
    code, _, _ = run_cli(
        capsys, "score", "--model", str(model_path), "--data", str(small_csv), "--out", str(scores)
    )
    assert code == 0
    lines = scores.read_text().splitlines()
    assert lines[0] == "Predicted_Prob,Predicted_Label"
    assert len(lines) == 121
    for line in lines[1:]:
        prob, label = line.split(",")
        assert 0.0 <= float(prob) <= 1.0
        assert label in ("0", "1")


def test_train_logistic_and_score_unlabeled(small_csv, tmp_path, capsys):
    model_path = tmp_path / "logit.json"
    assert run_cli(
        capsys, "train", "--model", "logistic", "--data", str(small_csv), "--out", str(model_path)
    )[0] == 0

    data = load_csv(small_csv)
    bare = Dataset(data.X)
    bare_path = tmp_path / "bare.csv"
    write_csv(bare, bare_path)

    scores = tmp_path / "scores.csv"
    code, _, _ = run_cli(
        capsys, "score", "--model", str(model_path), "--data", str(bare_path), "--out", str(scores)
    )
    assert code == 0
    assert len(scores.read_text().splitlines()) == 121


def test_train_rejects_unlabeled(small_csv, tmp_path, capsys):
    data = load_csv(small_csv)
    bare = Dataset(data.X)
    bare_path = tmp_path / "bare.csv"
    write_csv(bare, bare_path)
    code, _, stderr = run_cli(
        capsys, "train", "--model", "forest", "--data", str(bare_path), "--out", str(tmp_path / "m.json")
    )
    assert code == 3
    assert "label" in stderr.lower()


def test_train_single_class_exit_code(tmp_path, capsys):
    from test_experiment import ten_row_dataset

    ten = ten_row_dataset()
    flat = Dataset(ten.X, [0] * len(ten))
    path = tmp_path / "flat.csv"
    write_csv(flat, path)
    code, _, _ = run_cli(
        capsys, "train", "--model", "logistic", "--data", str(path), "--out", str(tmp_path / "m.json")
    )
    assert code == 4


def test_importance_lists_features(small_csv, tmp_path, capsys):
    model_path = tmp_path / "forest.json"
    run_cli(capsys, "train", "--model", "forest", "--data", str(small_csv), "--out", str(model_path))
    code, stdout, _ = run_cli(capsys, "importance", "--model", str(model_path))
    assert code == 0
    lines = [l for l in stdout.splitlines() if l.strip()]
    assert len(lines) == 6
    assert lines[0].startswith("Revenue_Growth")


def test_importance_rejects_logistic(small_csv, tmp_path, capsys):
    model_path = tmp_path / "logit.json"
    run_cli(capsys, "train", "--model", "logistic", "--data", str(small_csv), "--out", str(model_path))
    code, _, stderr = run_cli(capsys, "importance", "--model", str(model_path))
    assert code == 2
    assert "random_forest" in stderr


@pytest.fixture(scope="module")
def model_documents():
    data = generate(GeneratorConfig(n_samples=120, seed=4, signal_strength=2.0))
    return {
        "forest": json.loads(model_to_json_text(train_forest(data, ForestParams(n_trees=3, seed=1)))),
        "logistic": json.loads(model_to_json_text(train_logistic(data))),
    }


def _first_split(doc, feature):
    """Set the feature of a forest document's first split."""
    column = doc["trees"]["feature"]
    column[next(i for i, f in enumerate(column) if f >= 0)] = feature


def _set(column, value, i=0):
    """An edit setting entry ``i`` of a forest document's node column."""
    return lambda doc: doc["trees"][column].__setitem__(i, value)


def _split_to_leaf(doc):
    """Make the first tree's root a leaf, its threshold gone and its counts
    listed, so that every column still holds one value per node it
    describes while its subtrees become trees of their own."""
    trees = doc["trees"]
    trees["feature"][0] = -1
    del trees["threshold"][0]
    trees["count_0"].insert(0, 1)
    trees["count_1"].insert(0, 1)


def _truncate_last_tree(doc):
    for column in ("feature", "count_0", "count_1"):  # the last node is a leaf
        doc["trees"][column].pop()


def _add_trailing_leaf(doc):
    for column, value in (("feature", -1), ("count_0", 1), ("count_1", 0)):
        doc["trees"][column].append(value)


# name -> (model kind, in-place edit of its JSON document or one returning its text)
MODEL_MUTATIONS = {
    "feature_99": ("forest", lambda doc: _first_split(doc, 99)),
    "feature_minus_1": ("forest", lambda doc: _first_split(doc, -1)),  # a leaf where a split is needed
    "fractional_feature": ("forest", lambda doc: _first_split(doc, 2.5)),
    "nan_threshold": ("forest", _set("threshold", float("nan"))),
    "string_threshold": ("forest", _set("threshold", "0.5")),
    "huge_integer_threshold": ("forest", _set("threshold", 10**400)),
    "fractional_leaf_count": ("forest", _set("count_0", 2.7)),
    "boolean_leaf_count": ("forest", _set("count_1", True)),
    "huge_integer_leaf_count": ("forest", _set("count_0", 10**400)),
    "leaf_count_above_2_53": ("forest", _set("count_1", 2**53 + 1)),
    "negative_leaf_count": ("forest", _set("count_0", -1)),
    "empty_leaf": ("forest", lambda doc: (_set("count_0", 0)(doc), _set("count_1", 0)(doc))),
    "feature_6": ("forest", lambda doc: _first_split(doc, 6)),
    "boolean_feature": ("forest", lambda doc: _first_split(doc, True)),
    "string_bootstrap": ("forest", lambda doc: doc["params"].update(bootstrap="false")),
    "fractional_max_depth": ("forest", lambda doc: doc["params"]["tree_params"].update(max_depth=2.9)),
    "huge_integer_weight": ("logistic", lambda doc: doc["weights"].__setitem__(0, 10**400)),
    "infinite_threshold": ("forest", _set("threshold", float("inf"))),
    "three_feature_names": ("forest", lambda doc: doc.update(feature_names=doc["feature_names"][:3])),
    "n_trees_mismatch": ("forest", lambda doc: doc["params"].update(n_trees=4)),
    "nan_mean": ("logistic", lambda doc: doc["standardization"]["means"].__setitem__(0, float("nan"))),
    "string_bias": ("logistic", lambda doc: doc.update(bias="0.5")),
    "boolean_weight": ("logistic", lambda doc: doc["weights"].__setitem__(0, True)),
    "fractional_iterations": ("logistic", lambda doc: doc["training_meta"].update(iterations=12.7)),
    "string_mean": ("logistic", lambda doc: doc["standardization"]["means"].__setitem__(0, "0.5")),
    "logistic_unknown_key": ("logistic", lambda doc: doc.update(extra=1)),
    "extra_training_meta_key": ("logistic", lambda doc: doc["training_meta"].update(converged=True)),
    "negative_iterations": ("logistic", lambda doc: doc["training_meta"].update(iterations=-5)),
    "string_final_loss": ("logistic", lambda doc: doc["training_meta"].update(final_loss="0.5")),
    "forest_unknown_key": ("forest", lambda doc: doc.update(extra=1)),
    # the node columns fix the shape: each of these breaks it
    "truncated_last_tree": ("forest", _truncate_last_tree),
    "extra_trailing_node": ("forest", _add_trailing_leaf),
    "leaf_where_a_split_is_needed": ("forest", _split_to_leaf),
    "threshold_one_short": ("forest", lambda doc: doc["trees"]["threshold"].pop()),
    "count_0_one_long": ("forest", lambda doc: doc["trees"]["count_0"].append(1)),
    "missing_trees_key": ("forest", lambda doc: doc["trees"].pop("count_1")),
    "extra_trees_key": ("forest", lambda doc: doc["trees"].update(right=[-1] * len(doc["trees"]["feature"]))),
    "trees_not_an_object": ("forest", lambda doc: doc.update(trees=[doc["trees"]])),
    # format 1 stored importances; they are recomputed, so any such key is unknown
    "string_importances": ("forest", lambda doc: doc.update(importances="junk")),
    "three_importances": ("forest", lambda doc: doc.update(importances=[1 / 3] * 3)),
    "version_1_forest": ("forest", lambda doc: doc.update(format_version=1)),
    "version_1_logistic": ("logistic", lambda doc: doc.update(format_version=1)),
    "repeated_forest_key": ("forest", _repeat_key("n_trees")),
}


@pytest.mark.parametrize("mutation", sorted(MODEL_MUTATIONS))
def test_score_rejects_malformed_model(mutation, model_documents, small_csv, tmp_path, capsys):
    kind, mutate = MODEL_MUTATIONS[mutation]
    model_path = tmp_path / "model.json"
    _write_edited(model_path, mutate, copy.deepcopy(model_documents[kind]))
    code, _, stderr = run_cli(
        capsys, "score", "--model", str(model_path), "--data", str(small_csv), "--out", str(tmp_path / "s.csv")
    )
    assert code == 3
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr


@pytest.mark.parametrize("entries", [3, 6])
@pytest.mark.parametrize("command", ["score", "importance"])
def test_logistic_standardization_of_the_wrong_width_exits_3_at_load(
    command, entries, model_documents, small_csv, tmp_path, capsys
):
    # the model standardizes 5 continuous features; any other width is a
    # malformed file, refused where it is read rather than where it is used
    doc = copy.deepcopy(model_documents["logistic"])
    for name, extra in (("means", 0.0), ("sds", 1.0), ("constant_flags", False)):
        doc["standardization"][name] = (doc["standardization"][name] + [extra])[:entries]
    model_path = tmp_path / "logit.json"
    model_path.write_text(json.dumps(doc))
    scores = tmp_path / "s.csv"
    args = ["--data", str(small_csv), "--out", str(scores)] if command == "score" else []
    code, _, stderr = run_cli(capsys, command, "--model", str(model_path), *args)
    assert code == 3
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert f"standardization lists need 5 entries each, got ({entries}, {entries}, {entries})" in stderr
    assert not scores.exists()


def test_score_rejects_deeply_nested_model(small_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text("[" * 200_000)
    code, _, stderr = run_cli(
        capsys, "score", "--model", str(model_path), "--data", str(small_csv), "--out", str(tmp_path / "s.csv")
    )
    assert code == 3
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_score_tampered_model_version(small_csv, tmp_path, capsys):
    model_path = tmp_path / "logit.json"
    run_cli(capsys, "train", "--model", "logistic", "--data", str(small_csv), "--out", str(model_path))
    text = model_path.read_text().replace('"format_version": 3', '"format_version": "999"')
    model_path.write_text(text)
    code, _, stderr = run_cli(
        capsys, "score", "--model", str(model_path), "--data", str(small_csv), "--out", str(tmp_path / "s.csv")
    )
    assert code == 3
    assert "error:" in stderr


@pytest.mark.parametrize("kind", ["forest", "logistic"])
def test_a_version_1_model_file_exits_3(kind, model_documents, small_csv, tmp_path, capsys):
    # no reader of formats 1 and 2 is kept: retraining rebuilds the model
    # exactly. A format 2 forest lists its nodes in pre-order, which would
    # read as other trees in level order, so it must not be read at all
    model_path = tmp_path / "model.json"
    for version in (1, 2):
        model_path.write_text(json.dumps(dict(model_documents[kind], format_version=version)))
        code, _, stderr = run_cli(
            capsys, "score", "--model", str(model_path), "--data", str(small_csv), "--out", str(tmp_path / "s.csv")
        )
        assert code == 3
        assert stderr == f"error: unsupported format_version {version}; this build reads version 3\n"


# name -> (in-place edit of a forest document, the error after the prefix)
FOREST_BODY_ERRORS = {
    # {leaf}, filled in by the test, is the first leaf of tree 0
    "negative_count": (_set("count_0", -1), "trees[0]: node {leaf} count_0 must be in [0, 9007199254740992], got -1\n"),
    "truncated_tree": (
        lambda doc: [doc["trees"][name].append(value) for name, value in (("feature", 0), ("threshold", 0.5))],
        "trees[3] is truncated: it lacks 2 subtree(s)\n",
    ),
    "no_trees": (lambda doc: doc["params"].update(n_trees=0), "params: n_trees must be a positive integer, got 0\n"),
}


@pytest.mark.parametrize("error", sorted(FOREST_BODY_ERRORS))
def test_every_forest_body_error_names_the_document(error, model_documents, small_csv, tmp_path, capsys):
    mutate, message = FOREST_BODY_ERRORS[error]
    doc = copy.deepcopy(model_documents["forest"])
    message = message.format(leaf=doc["trees"]["feature"].index(-1))  # count_0's first entry is this leaf's
    mutate(doc)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    code, _, stderr = run_cli(
        capsys, "score", "--model", str(model_path), "--data", str(small_csv), "--out", str(tmp_path / "s.csv")
    )
    assert code == 3
    assert stderr == "error: malformed random_forest document: " + message


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
