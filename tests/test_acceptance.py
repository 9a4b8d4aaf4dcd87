"""Acceptance gate.

One test per contract criterion. Each prints a single [PASS]/[FAIL]
verdict line with the measured numbers (echoed again in the terminal
summary via the conftest hook) and then asserts, so a red criterion is
both visible and fails the suite.
"""

import time

import numpy as np
import pytest

from oracles import oracle_grow, oracle_metrics, tree_as_tuple
from smerisk.cart import TreeParams, grow_tree_arrays, predict_proba
from smerisk.dataset import split_train_test
from smerisk.experiment import (
    ExperimentConfig,
    default_experiment_config,
    load_model,
    render_report,
    run_comparison,
    save_model,
)
from smerisk.forest import (
    ForestParams,
    bootstrap_indices,
    feature_importances,
    predict_forest_dataset,
    train_forest,
)
from smerisk.logit import loss_and_gradient, predict_proba_dataset, to_labels, train_logistic
from smerisk.metrics import ConfusionMatrix, compute_metrics
from smerisk.seeding import substream
from smerisk.synthgen import GeneratorConfig, SignalCoefficients, generate

VERDICTS = []


def _verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    VERDICTS.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module")
def default_run():
    config = default_experiment_config()
    started = time.perf_counter()
    report = run_comparison(config)
    elapsed = time.perf_counter() - started
    return config, report, elapsed


def test_criterion_1_forest_outperforms_logit_on_default_run(default_run):
    _, report, elapsed = default_run
    d, f = report.delphi_metrics, report.forest_metrics
    pairs = [
        ("accuracy", d.accuracy, f.accuracy),
        ("precision", d.precision, f.precision),
        ("recall", d.recall, f.recall),
        ("f1", d.f1, f.f1),
    ]
    dominates = all(fv >= dv for _, dv, fv in pairs)
    acc_margin = f.accuracy - d.accuracy
    f1_margin = f.f1 - d.f1
    ok = dominates and acc_margin >= 0.03 and f1_margin >= 0.03 and elapsed < 10.0
    detail = (
        "default run (n=1000, seed 42, 70/30, 100 trees): "
        + ", ".join(f"{name} logit {dv:.3f} vs forest {fv:.3f}" for name, dv, fv in pairs)
        + f"; accuracy margin {acc_margin:+.3f}, f1 margin {f1_margin:+.3f} (need >= +0.030 each)"
        + f"; wall time {elapsed:.2f}s (need < 10s)"
    )
    assert _verdict(1, ok, detail), detail


def test_criterion_2_zero_signal_models_match_majority_rate():
    logit_accs, forest_accs, majorities = [], [], []
    for seed in range(10):
        config = ExperimentConfig(
            generator=GeneratorConfig(seed=seed, signal_strength=0.0)
        )
        report = run_comparison(config)
        data = generate(config.generator)
        _, test = split_train_test(data, config.test_fraction, config.split_seed)
        rate = float(test.labels().mean())
        majorities.append(max(rate, 1.0 - rate))
        logit_accs.append(report.delphi_metrics.accuracy)
        forest_accs.append(report.forest_metrics.accuracy)
    majority = float(np.mean(majorities))
    logit_gap = abs(float(np.mean(logit_accs)) - majority)
    forest_gap = abs(float(np.mean(forest_accs)) - majority)
    ok = logit_gap <= 0.05 and forest_gap <= 0.05
    detail = (
        f"zero signal over seeds 0..9: mean majority rate {majority:.4f}, "
        f"mean logit accuracy {np.mean(logit_accs):.4f} (gap {logit_gap:.4f}), "
        f"mean forest accuracy {np.mean(forest_accs):.4f} (gap {forest_gap:.4f}), tolerance 0.05"
    )
    assert _verdict(2, ok, detail), detail


def _oracle_predict(node, row):
    while node[0] == "node":
        node = node[3] if row[node[1]] <= node[2] else node[4]
    _, c0, c1 = node
    p = c1 / (c0 + c1)
    return (1 if p >= 0.5 else 0, p)


def test_criterion_3_tree_matches_bruteforce_oracle():
    rng = np.random.default_rng(2024)
    trials = 100
    mismatches = 0
    for trial in range(trials):
        n = int(rng.integers(4, 51))
        X = rng.uniform(-2.0, 2.0, size=(n, 4))
        if trial % 2 == 1:
            X = np.round(X, 1)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        node = grow_tree_arrays(X, y, TreeParams(features_per_split=4), substream(0, trial))
        expected = oracle_grow([tuple(r) for r in X], [int(v) for v in y])
        if tree_as_tuple(node) != expected:
            mismatches += 1
            continue
        probs = predict_proba(node, X)
        predicted = zip(to_labels(probs).tolist(), probs.tolist())
        if any(pair != _oracle_predict(expected, row) for pair, row in zip(predicted, X)):
            mismatches += 1
    ok = mismatches == 0
    detail = (
        f"{trials} random instances (n <= 50, 4 features, full subset): "
        f"{trials - mismatches}/{trials} exact structure+prediction matches vs exhaustive oracle"
    )
    assert _verdict(3, ok, detail), detail


def test_criterion_4_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-5
    worst = 0.0
    trials = 100
    for _ in range(trials):
        n = int(rng.integers(5, 40))
        X = rng.normal(size=(n, 6))
        y = rng.integers(0, 2, size=n).astype(np.int64)
        w = rng.normal(scale=1.5, size=6)
        b = float(rng.normal(scale=1.5))
        lam = float(rng.uniform(0.0, 0.1))
        _, grad = loss_and_gradient(w, b, X, y, lam)
        for k in range(7):
            wp, bp, wm, bm = w.copy(), b, w.copy(), b
            if k < 6:
                wp[k] += step
                wm[k] -= step
            else:
                bp += step
                bm -= step
            lp, _ = loss_and_gradient(wp, bp, X, y, lam)
            lm, _ = loss_and_gradient(wm, bm, X, y, lam)
            fd = (lp - lm) / (2.0 * step)
            worst = max(worst, abs(fd - grad[k]) / max(1.0, abs(grad[k])))
    ok = worst <= 1e-6
    detail = (
        f"{trials} random instances, central differences with step 1e-5: "
        f"worst per-coordinate relative error {worst:.3e} (tolerance 1e-6)"
    )
    assert _verdict(4, ok, detail), detail


def test_criterion_5_metrics_match_rational_oracle():
    cases = [
        (2, 1, 2, 1),
        (10, 0, 5, 5),
        (1, 1, 1, 1),
        (7, 3, 80, 10),
        (50, 25, 20, 5),
        (3, 9, 1, 2),
        (1, 0, 0, 99),
        (13, 17, 19, 23),
        (6, 2, 90, 2),
        (25, 5, 60, 10),
        (0, 0, 8, 2),  # no positive predictions: precision undefined
        (0, 3, 7, 0),  # no actual positives: recall undefined
        (0, 0, 9, 0),  # both undefined at once
    ]
    exact_failures = 0
    worst_identity = 0.0
    for tp, fp, tn, fn in cases:
        m = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
        e = oracle_metrics(tp, fp, tn, fn)
        checks = [
            m.accuracy == float(e["accuracy"]),
            m.precision == (0.0 if e["precision"] is None else float(e["precision"])),
            m.precision_undefined == (e["precision"] is None),
            m.recall == (0.0 if e["recall"] is None else float(e["recall"])),
            m.recall_undefined == (e["recall"] is None),
            m.f1_undefined == (tp == 0),
        ]
        if not all(checks):
            exact_failures += 1
        if not m.f1_undefined and not m.precision_undefined and not m.recall_undefined:
            harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
            worst_identity = max(worst_identity, abs(m.f1 - harmonic))
    ok = exact_failures == 0 and worst_identity <= 1e-12
    detail = (
        f"{len(cases)} rational-arithmetic matrices (both zero-denominator cases included): "
        f"{len(cases) - exact_failures}/{len(cases)} exact; "
        f"worst F-1 harmonic-identity deviation {worst_identity:.2e} (tolerance 1e-12)"
    )
    assert _verdict(5, ok, detail), detail


def test_criterion_6_ensemble_of_one_equals_bare_tree(default_data):
    params = ForestParams(
        n_trees=1,
        bootstrap=False,
        seed=42,
        tree_params=TreeParams(features_per_split=6),
    )
    forest = train_forest(default_data, params)
    bare = grow_tree_arrays(
        default_data.feature_matrix(),
        default_data.labels(),
        params.tree_params,
        substream(42, 0),
    )
    forest_probs = predict_forest_dataset(forest, default_data)
    bare_probs = predict_proba(bare, default_data.feature_matrix())
    mismatches = int(
        ((forest_probs != bare_probs) | (to_labels(forest_probs) != to_labels(bare_probs))).sum()
    )
    ok = mismatches == 0
    detail = (
        "single-tree forest (bootstrap off, all features) vs bare tree on 1000 records: "
        f"{mismatches} prediction mismatches (label and probability compared)"
    )
    assert _verdict(6, ok, detail), detail


def test_criterion_7_reports_and_models_reproducible(default_run, default_data, tmp_path):
    config, report, _ = default_run
    first = render_report(report, format="json")
    second = render_report(run_comparison(config), format="json")
    byte_identical = first == second

    train, test = split_train_test(default_data, 0.3, 42)
    logit = train_logistic(train)
    forest = train_forest(train, ForestParams(n_trees=25, seed=9))
    save_model(logit, tmp_path / "logit.json")
    save_model(forest, tmp_path / "forest.json")
    logit_back = load_model(tmp_path / "logit.json")
    forest_back = load_model(tmp_path / "forest.json")
    logit_exact = np.array_equal(
        predict_proba_dataset(logit, test), predict_proba_dataset(logit_back, test)
    )
    forest_exact = np.array_equal(predict_forest_dataset(forest, test), predict_forest_dataset(forest_back, test))

    ok = byte_identical and logit_exact and forest_exact
    detail = (
        f"repeated default comparison byte-identical: {byte_identical}; "
        f"logistic save/load predictions exact: {logit_exact}; "
        f"forest save/load predictions exact: {forest_exact}"
    )
    assert _verdict(7, ok, detail), detail


def test_criterion_8_bootstrap_unique_fraction():
    draws = 1000
    fractions = [
        len(np.unique(bootstrap_indices(1000, substream(5, t)))) / 1000.0
        for t in range(draws)
    ]
    mean = float(np.mean(fractions))
    ok = abs(mean - 0.632) <= 0.02
    detail = (
        f"mean unique fraction over {draws} bootstrap draws of n=1000: "
        f"{mean:.4f} (need 0.632 +/- 0.02)"
    )
    assert _verdict(8, ok, detail), detail


def test_criterion_9_importances_normalized_and_ranked(default_data):
    train, _ = split_train_test(default_data, 0.3, 42)
    model = train_forest(train, ForestParams(n_trees=100, seed=42))
    values, degenerate = feature_importances(model)
    nonneg = bool(np.all(values >= 0.0))
    total = float(values.sum())
    normalized = abs(total - 1.0) <= 1e-9

    single = GeneratorConfig(
        n_samples=600,
        seed=5,
        signal_strength=2.0,
        coefficients=SignalCoefficients(
            debt_equity_ratio=1.2,
            cash_flow_variability=0.0,
            revenue_growth=0.0,
            profit_margin=0.0,
            commodity_sector=0.0,
            high_leverage_step=1.0,
            covenant_breach=0.0,
        ),
    )
    single_model = train_forest(generate(single), ForestParams(n_trees=50, seed=1))
    single_values, single_degenerate = feature_importances(single_model)
    ranked = sorted(
        zip(single_model.feature_names, single_values), key=lambda kv: -kv[1]
    )
    top_is_signal = not single_degenerate and ranked[0][0] == "Debt_Equity_Ratio"

    ok = nonneg and normalized and not degenerate and top_is_signal
    detail = (
        f"default forest: min importance {float(values.min()):.4f} (need >= 0), "
        f"sum {total:.12f} (need 1 +/- 1e-9); "
        f"single-signal config top feature {ranked[0][0]} at {ranked[0][1]:.3f} "
        f"(next {ranked[1][0]} at {ranked[1][1]:.3f})"
    )
    assert _verdict(9, ok, detail), detail
