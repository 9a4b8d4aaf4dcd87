"""The benchmark's two workloads, as CLI commands plus output checks.

Every workload is driven through ``smerisk.cli.main`` with argument lists,
exactly as a user would type them. A plan is a pure function of
(workload name, seed, sizes): the same seed gives the same inputs and,
since smerisk is deterministic, byte-identical outputs.

Why these two:

* ``compare_default`` is the paper's headline run (README default config).
  Its time goes to tree growth, the logistic fit and the generator's
  intercept calibration.
* ``score_book`` is the read path: model JSON load, CSV read and forest
  prediction over a 10,000-row book, with no training at all. Its set-up
  is the write path: it trains and saves both models and writes the
  10,000-row book, most of which is the quadratic ``write_csv`` at this
  commit.

Checks import smerisk lazily, so importing this module costs nothing.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

NAMES = ("compare_default", "score_book")


@dataclass(frozen=True)
class Sizes:
    """Input sizes. ``FULL`` is what the benchmark measures; the smoke test
    runs the same plans at ``TINY``."""

    compare_rows: int = 1000
    compare_trees: int = 100
    train_rows: int = 1000
    book_rows: int = 10000


FULL = Sizes()
TINY = Sizes(compare_rows=200, compare_trees=5, train_rows=200, book_rows=300)


@dataclass(frozen=True)
class Plan:
    """One workload at one seed.

    ``files`` and ``setup`` are the untimed preparation (files written, then
    CLI commands run); ``timed`` is one measured pass. ``setup_outputs`` and
    ``outputs`` are the files each phase leaves, hashed to prove that
    repeats agree byte for byte. ``rows`` is the input rows of one pass.
    """

    name: str
    seed: int
    sizes: Sizes
    files: dict
    setup: tuple
    setup_outputs: tuple
    timed: tuple
    outputs: tuple
    rows: int


def default_config_json(seed: int, sizes: Sizes) -> str:
    """The README's default experiment config, with the generator, split and
    forest seeds all set to the workload seed."""
    config = {
        "data_source": {"generator": {
            "n_samples": sizes.compare_rows,
            "seed": seed,
            "base_default_rate": 0.2,
            "signal_strength": 1.0,
        }},
        "test_fraction": 0.3,
        "split_seed": seed,
        "logit_hyper": {"learning_rate": 0.1, "l2_lambda": 0.001, "max_iterations": 5000, "tolerance": 1e-08},
        "forest_params": {
            "n_trees": sizes.compare_trees,
            "bootstrap": True,
            "seed": seed,
            "tree_params": {"max_depth": None, "min_samples_split": 2, "features_per_split": None},
        },
    }
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


def plan(name: str, seed: int, sizes: Sizes = FULL) -> Plan:
    s = str(seed)
    if name == "compare_default":
        return Plan(
            name=name, seed=seed, sizes=sizes,
            files={"cfg.json": default_config_json(seed, sizes)},
            setup=(),
            setup_outputs=("cfg.json",),
            timed=(("compare", "--config", "cfg.json", "--json", "report.json"),),
            outputs=("report.json",),
            rows=sizes.compare_rows,
        )
    if name == "score_book":
        return Plan(
            name=name, seed=seed, sizes=sizes,
            files={},
            setup=(
                ("generate", "--n", str(sizes.train_rows), "--seed", s, "--out", "train.csv"),
                ("train", "--model", "forest", "--data", "train.csv", "--out", "forest.json"),
                ("train", "--model", "logistic", "--data", "train.csv", "--out", "logit.json"),
                ("generate", "--n", str(sizes.book_rows), "--seed", str(seed + 1), "--out", "book.csv"),
            ),
            setup_outputs=("train.csv", "forest.json", "logit.json", "book.csv"),
            timed=(
                ("score", "--model", "forest.json", "--data", "book.csv", "--out", "scores_forest.csv"),
                ("score", "--model", "logit.json", "--data", "book.csv", "--out", "scores_logit.csv"),
            ),
            outputs=("scores_forest.csv", "scores_logit.csv"),
            rows=2 * sizes.book_rows,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def check_outputs(p: Plan) -> list[str]:
    """Correctness problems in the outputs of one pass, in the current
    directory; an empty list means every check passed."""
    if p.name == "compare_default":
        return check_report("report.json", p.sizes.compare_rows)
    return check_scores("scores_forest.csv", p.sizes.book_rows) + check_scores(
        "scores_logit.csv", p.sizes.book_rows
    )


def check_setup(p: Plan) -> list[str]:
    """Correctness problems in the files a set-up wrote: the scoring book
    must reload to exactly the records the generator draws."""
    if p.name != "score_book":
        return []
    from smerisk.dataset import load_csv
    from smerisk.synthgen import GeneratorConfig, generate

    expected = generate(GeneratorConfig(n_samples=p.sizes.book_rows, seed=p.seed + 1))
    if load_csv("book.csv").records != expected.records:
        return ["book.csv: reloaded records differ from the generated book"]
    return []


def check_report(path: str, n_records: int) -> list[str]:
    """The JSON report re-renders byte-identically and every metric lies in
    [0, 1]."""
    from smerisk.experiment import ComparisonReport, render_report

    text = Path(path).read_text(encoding="utf-8")
    report = ComparisonReport.from_json_dict(json.loads(text))
    errors = []
    if render_report(report, "json") != text:
        errors.append(f"{path}: report does not re-render byte-identically")
    if report.dataset_summary["n_records"] != n_records:
        errors.append(f"{path}: {report.dataset_summary['n_records']} records, expected {n_records}")
    for model, metrics in (("delphi", report.delphi_metrics), ("forest", report.forest_metrics)):
        for metric in ("accuracy", "precision", "recall", "f1"):
            value = getattr(metrics, metric)
            if not 0.0 <= value <= 1.0:
                errors.append(f"{path}: {model} {metric} {value!r} outside [0, 1]")
    return errors


def check_scores(path: str, n_rows: int) -> list[str]:
    """One row per input row, each probability finite in [0, 1], each label
    equal to p >= 0.5."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["Predicted_Prob", "Predicted_Label"]:
        return [f"{path}: unexpected header"]
    body = rows[1:]
    if len(body) != n_rows:
        return [f"{path}: {len(body)} scored rows, expected {n_rows}"]
    for i, row in enumerate(body):
        try:
            p, label = float(row[0]), int(row[1])
        except (IndexError, ValueError):
            return [f"{path}: row {i} is malformed: {row!r}"]
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            return [f"{path}: row {i} probability {p!r} outside [0, 1]"]
        if label != int(p >= 0.5):
            return [f"{path}: row {i} label {label} disagrees with p = {p!r}"]
    return []
