"""Span tracing of smerisk, installed from outside the package.

``Tracer.install`` replaces each attribute in ``WRAP_POINTS`` with a
wrapper that records a span (name, start, end, parent span). The
attributes are the ones callers look up at call time: ``forest.py``
imports ``grow_tree_arrays`` by name, so the span sits at
``smerisk.forest.grow_tree_arrays``, not at ``smerisk.cart``. Nothing in
``src/`` changes.

Spans are kept in memory and turned into per-layer metrics after the
pass. Counts that need a call's arguments or result (rows, tree nodes,
iterations) are deferred until then too, so counting adds nothing to any
span's time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# (module, attribute, span name). Per-row and per-tree prediction helpers
# are left out on purpose: a span per call would cost more than the call.
WRAP_POINTS = (
    ("smerisk.cli", "main", "cli.main"),
    ("smerisk.synthgen", "GeneratorConfig.__post_init__", "synthgen.calibrate"),
    ("smerisk.cli", "generate", "synthgen.generate"),
    ("smerisk.experiment", "generate", "synthgen.generate"),
    ("smerisk.cli", "write_csv", "dataset.write_csv"),
    ("smerisk.cli", "load_csv", "dataset.load_csv"),
    ("smerisk.experiment", "load_csv", "dataset.load_csv"),
    ("smerisk.experiment", "split_train_test", "dataset.split"),
    ("smerisk.logit", "fit_standardizer", "dataset.standardize"),
    ("smerisk.logit", "apply_standardizer", "dataset.standardize"),
    ("smerisk.dataset", "Dataset.feature_matrix", "dataset.feature_matrix"),
    ("smerisk.cli", "train_logistic", "logit.fit"),
    ("smerisk.experiment", "train_logistic", "logit.fit"),
    ("smerisk.logit", "loss_and_gradient", "logit.loss_eval"),
    ("smerisk.cli", "predict_proba_dataset", "logit.predict"),
    ("smerisk.experiment", "predict_proba_dataset", "logit.predict"),
    ("smerisk.cli", "train_forest", "forest.fit"),
    ("smerisk.experiment", "train_forest", "forest.fit"),
    ("smerisk.forest", "grow_tree_arrays", "cart.grow"),
    ("smerisk.cart", "best_split", "cart.best_split"),
    ("smerisk.cli", "predict_forest_dataset", "forest.predict"),
    ("smerisk.experiment", "predict_forest_dataset", "forest.predict"),
    ("smerisk.cli", "run_comparison", "experiment.run_comparison"),
    ("smerisk.cli", "render_report", "experiment.render_report"),
    ("smerisk.cli", "load_model", "experiment.load_model"),
    ("smerisk.cli", "save_model", "experiment.save_model"),
    ("smerisk.experiment", "score_predictions", "metrics.score"),
)

# Every per-layer metric, with its unit, in the order it is printed.
LAYER_UNITS = {
    "synthgen.calibrate_s": "s",
    "synthgen.generate_s": "s",
    "dataset.write_csv_s": "s",
    "dataset.write_csv_rows_per_s": "rows/s",
    "dataset.load_csv_s": "s",
    "dataset.load_csv_rows_per_s": "rows/s",
    "dataset.split_s": "s",
    "dataset.standardize_s": "s",
    "dataset.feature_matrix_calls": "count",
    "dataset.feature_matrix_s": "s",
    "logit.fit_s": "s",
    "logit.iterations": "count",
    "logit.loss_evals": "count",
    "logit.step_accept_ratio": "ratio",
    "logit.predict_s": "s",
    "cart.grow_s": "s",
    "cart.trees": "count",
    "cart.nodes": "count",
    "cart.nodes_per_s": "1/s",
    "cart.max_depth": "count",
    "cart.best_split_calls": "count",
    "cart.best_split_s": "s",
    "cart.split_found_ratio": "ratio",
    "forest.fit_self_s": "s",
    "forest.predict_s": "s",
    "forest.row_trees_per_s": "1/s",
    "experiment.load_model_s": "s",
    "experiment.save_model_s": "s",
    "serialize.model_bytes": "bytes",
    "experiment.render_report_s": "s",
    "metrics.score_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _tree_shape(tree) -> tuple[int, int]:
    from smerisk.cart import Internal

    nodes = depth = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if isinstance(node, Internal):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return nodes, depth


def _count_tree(counts, args, tree):
    nodes, depth = _tree_shape(tree)
    counts["cart.trees"] += 1
    counts["cart.nodes"] += nodes
    counts["cart.max_depth"] = max(counts["cart.max_depth"], depth)


def _count_rows_written(counts, args, result):
    counts["dataset.write_csv_rows"] += len(args[0])


def _count_rows_read(counts, args, dataset):
    counts["dataset.load_csv_rows"] += len(dataset)


def _count_iterations(counts, args, model):
    counts["logit.iterations"] += model.training_meta["iterations"]


def _count_split_found(counts, args, found):
    counts["cart.splits_found"] += found is not None


def _count_row_trees(counts, args, result):
    model, dataset = args
    counts["forest.row_trees"] += len(dataset) * len(model.trees)


def _count_model_bytes(counts, args, model):
    counts["serialize.model_bytes"] += os.path.getsize(args[0])


# Deferred counters: span name -> fn(counts, call args, call result).
COUNTERS = {
    "dataset.write_csv": _count_rows_written,
    "dataset.load_csv": _count_rows_read,
    "logit.fit": _count_iterations,
    "cart.grow": _count_tree,
    "cart.best_split": _count_split_found,
    "forest.predict": _count_row_trees,
    "experiment.load_model": _count_model_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._deferred: list[tuple] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                self._deferred.append((count, args, result))
            return result

        return traced

    def install(self) -> None:
        for module, attribute, name in WRAP_POINTS:
            owner = importlib.import_module(module)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def counts(self) -> dict:
        counts = defaultdict(int)
        for count, args, result in self._deferred:
            count(counts, args, result)
        return counts

    def write(self, path) -> None:
        """Write the spans and counts as JSON; times are perf_counter
        seconds, parents are indices into the span list."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts()}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, except
        ``trace.overhead_ratio``, which needs an untraced pass."""
        total = defaultdict(float)
        calls = defaultdict(int)
        covered = defaultdict(float)  # time of a span covered by its children
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                covered[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - covered[i]
        c = self.counts()

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "synthgen.calibrate_s": total["synthgen.calibrate"],
            "synthgen.generate_s": total["synthgen.generate"],
            "dataset.write_csv_s": total["dataset.write_csv"],
            "dataset.write_csv_rows_per_s": ratio(c["dataset.write_csv_rows"], total["dataset.write_csv"]),
            "dataset.load_csv_s": total["dataset.load_csv"],
            "dataset.load_csv_rows_per_s": ratio(c["dataset.load_csv_rows"], total["dataset.load_csv"]),
            "dataset.split_s": total["dataset.split"],
            "dataset.standardize_s": total["dataset.standardize"],
            "dataset.feature_matrix_calls": calls["dataset.feature_matrix"],
            "dataset.feature_matrix_s": total["dataset.feature_matrix"],
            "logit.fit_s": total["logit.fit"],
            "logit.iterations": c["logit.iterations"],
            "logit.loss_evals": calls["logit.loss_eval"],
            "logit.step_accept_ratio": ratio(c["logit.iterations"], calls["logit.loss_eval"]),
            "logit.predict_s": total["logit.predict"],
            "cart.grow_s": total["cart.grow"],
            "cart.trees": c["cart.trees"],
            "cart.nodes": c["cart.nodes"],
            "cart.nodes_per_s": ratio(c["cart.nodes"], total["cart.grow"]),
            "cart.max_depth": c["cart.max_depth"],
            "cart.best_split_calls": calls["cart.best_split"],
            "cart.best_split_s": total["cart.best_split"],
            "cart.split_found_ratio": ratio(c["cart.splits_found"], calls["cart.best_split"]),
            "forest.fit_self_s": self_time["forest.fit"],
            "forest.predict_s": total["forest.predict"],
            "forest.row_trees_per_s": ratio(c["forest.row_trees"], total["forest.predict"]),
            "experiment.load_model_s": total["experiment.load_model"],
            "experiment.save_model_s": total["experiment.save_model"],
            "serialize.model_bytes": c["serialize.model_bytes"],
            "experiment.render_report_s": total["experiment.render_report"],
            "metrics.score_s": total["metrics.score"],
            "cli.self_s": self_time["cli.main"],
        }
