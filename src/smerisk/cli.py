"""Command-line entry point.

Subcommands: generate (synthetic loan book to CSV), compare (train both
models on one split and print the comparison table), train, score,
importance. Exit codes: 0 success, 2 configuration error, 3 data error,
4 training degeneracy. All randomness comes from the seeds in the
arguments or config file; nothing reads the clock or the environment.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataset import load_csv, write_csv, write_csv_table
from .errors import DataError, DegenerateLabelsError, ParameterError, ParseError
from .experiment import (
    ExperimentConfig,
    load_model,
    render_report,
    run_comparison,
    save_model,
)
from .forest import ForestModel, ForestParams, feature_importances, predict_forest_dataset, train_forest
from .logit import predict_proba_dataset, to_labels, train_logistic
from .serialize import parse_json_file
from .synthgen import GeneratorConfig, generate


def _cmd_generate(args) -> None:
    config = GeneratorConfig(
        n_samples=args.n,
        seed=args.seed,
        base_default_rate=args.base_rate,
        signal_strength=args.signal,
    )
    data = generate(config)
    write_csv(data, args.out)
    print(f"wrote {len(data)} records to {args.out}")


def _given(**flags) -> dict:
    """The flags that were set; the others keep their dataclass defaults."""
    return {name: value for name, value in flags.items() if value is not None}


def _cmd_compare(args) -> None:
    if args.config is not None:
        if args.test_fraction is not None or args.seed is not None or args.trees is not None:
            raise ParameterError(
                "--test-fraction/--seed/--trees apply to --data runs; with --config, set them in the file"
            )
        try:
            config = ExperimentConfig.from_json_dict(parse_json_file(args.config))
        except ParseError as exc:
            raise ParameterError(f"config file error: {exc}") from None
    else:
        config = ExperimentConfig(
            csv_path=args.data,
            forest_params=ForestParams(**_given(n_trees=args.trees)),
            **_given(test_fraction=args.test_fraction, split_seed=args.seed),
        )
    report = run_comparison(config)
    sys.stdout.write(render_report(report, "text"))
    if args.json is not None:
        Path(args.json).write_text(render_report(report, "json"), encoding="utf-8")


def _labeled_csv(path: str):
    data = load_csv(path)
    if not data.labeled:
        raise DataError(f"{path} has no Default_Status column; training needs labels")
    return data


def _cmd_train(args) -> None:
    data = _labeled_csv(args.data)
    model = train_logistic(data) if args.model == "logistic" else train_forest(data, ForestParams())
    save_model(model, args.out)
    print(f"trained {args.model} on {len(data)} records, saved to {args.out}")


def _cmd_score(args) -> None:
    model = load_model(args.model)
    data = load_csv(args.data)
    predict = predict_forest_dataset if isinstance(model, ForestModel) else predict_proba_dataset
    probs = predict(model, data)
    rows = zip(map(repr, probs.tolist()), map(str, to_labels(probs).tolist()))
    write_csv_table(args.out, ("Predicted_Prob", "Predicted_Label"), rows)
    print(f"scored {len(data)} records to {args.out}")


def _cmd_importance(args) -> None:
    model = load_model(args.model)
    if not isinstance(model, ForestModel):
        raise ParameterError("feature importances need a random_forest model")
    values, degenerate = feature_importances(model)
    if degenerate:
        print("importances degenerate: no split reduced impurity")
        return
    for name, value in zip(model.feature_names, values):
        print(f"{name:<28}{value:.6f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smerisk",
        description="Credit default scoring for SME loan books: logistic baseline vs random forest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labeled loan book as CSV")
    p.add_argument("--n", type=int, default=1000, help="number of records (default 1000)")
    p.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    p.add_argument("--signal", type=float, default=1.0, help="feature-to-default signal strength (default 1.0)")
    p.add_argument("--base-rate", type=float, default=0.2, help="marginal default rate (default 0.2)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compare", help="train both models on one split and print the comparison table")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="experiment config JSON file")
    source.add_argument("--data", help="labeled CSV to compare on")
    p.add_argument("--test-fraction", type=float, help=f"held-out fraction (default {ExperimentConfig.test_fraction})")
    p.add_argument("--seed", type=int, help=f"split seed (default {ExperimentConfig.split_seed})")
    p.add_argument("--trees", type=int, help=f"forest size (default {ForestParams.n_trees})")
    p.add_argument("--json", default=None, help="also write the full-precision JSON report here")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("train", help="train one model on a full labeled CSV")
    p.add_argument("--model", choices=("logistic", "forest"), required=True)
    p.add_argument("--data", required=True, help="labeled CSV path")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score a CSV with a saved model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="CSV to score (label column optional)")
    p.add_argument("--out", required=True, help="output CSV of probabilities and labels")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("importance", help="print a saved forest's feature importances")
    p.add_argument("--model", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_importance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateLabelsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    sys.exit(main())
