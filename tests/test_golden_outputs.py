"""Golden outputs: the CLI's files and stdout must not change by a byte.

Every subcommand runs once at small sizes, in a temporary directory with
relative paths so that no path leaks into a hash, and each output's
sha256 is compared against the value recorded before a refactor. A
refactor leaves these hashes alone. A change that alters outputs on
purpose (a new generator term, a new report field) records new hashes in
the same commit and says why.

The hashes were recorded with Python 3.11 and numpy 2.4 on x86-64. The
logistic fit's matrix products go through BLAS, so another platform may
round differently in the last bits.
"""

import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest

from smerisk.cli import main

CONFIG = """{
  "data_source": {"generator": {"n_samples": 300, "seed": 42}},
  "split_seed": 7,
  "forest_params": {"n_trees": 20, "bootstrap": true, "seed": 42,
                    "tree_params": {"max_depth": null, "min_samples_split": 2,
                                    "features_per_split": null}}
}
"""

# the README's default config with every seed 42, as the benchmark's
# compare_default workload writes it at seed 42: the 100-tree forest on
# 700 training rows grows through many multi-node steps
DEFAULT_CONFIG = """{
  "data_source": {
    "generator": {
      "base_default_rate": 0.2,
      "n_samples": 1000,
      "seed": 42,
      "signal_strength": 1.0
    }
  },
  "forest_params": {
    "bootstrap": true,
    "n_trees": 100,
    "seed": 42,
    "tree_params": {
      "features_per_split": null,
      "max_depth": null,
      "min_samples_split": 2
    }
  },
  "logit_hyper": {
    "l2_lambda": 0.001,
    "learning_rate": 0.1,
    "max_iterations": 5000,
    "tolerance": 1e-08
  },
  "split_seed": 42,
  "test_fraction": 0.3
}
"""
CONFIGS = {"cfg.json": CONFIG, "default_cfg.json": DEFAULT_CONFIG}

# (name of the stdout capture, argv); files written by a command are
# hashed under their own names
COMMANDS = (
    ("generate_train.out", ("generate", "--n", "400", "--seed", "42", "--out", "train.csv")),
    ("generate_book.out", ("generate", "--n", "500", "--seed", "9", "--signal", "1.5", "--out", "book.csv")),
    ("compare_config.out", ("compare", "--config", "cfg.json", "--json", "report.json")),
    ("compare_default.out", ("compare", "--config", "default_cfg.json", "--json", "default_report.json")),
    ("compare_data.out", ("compare", "--data", "train.csv", "--trees", "15", "--seed", "3")),
    ("train_forest.out", ("train", "--model", "forest", "--data", "train.csv", "--out", "forest.json")),
    ("train_logistic.out", ("train", "--model", "logistic", "--data", "train.csv", "--out", "logit.json")),
    ("score_forest.out", ("score", "--model", "forest.json", "--data", "book.csv", "--out", "scores_forest.csv")),
    ("score_logistic.out", ("score", "--model", "logit.json", "--data", "book.csv", "--out", "scores_logit.csv")),
    ("importance.out", ("importance", "--model", "forest.json")),
    # zero signal grows the deepest trees: 21,486 nodes, depth 31
    ("generate_zero.out", ("generate", "--n", "600", "--seed", "5", "--signal", "0.0", "--out", "zero.csv")),
    ("train_zero.out", ("train", "--model", "forest", "--data", "zero.csv", "--out", "zero_forest.json")),
    ("score_zero.out", ("score", "--model", "zero_forest.json", "--data", "book.csv", "--out", "scores_zero.csv")),
    ("importance_zero.out", ("importance", "--model", "zero_forest.json")),
)

GOLDEN_SHA256 = {
    "book.csv": "2ea45811cdb99740e5a64a5d94a7602a01e53db32d2216799ba5b03578b70691",
    "compare_config.out": "2e58f178057749f231fe72295769a4d18ae42da244d57315a8ddddc9c0c719e4",
    "compare_data.out": "bbdf9ab7b47d905d61c4a2d7ed8e99c200f7773fc2b678a1485596c546648002",
    "compare_default.out": "5f33ba69c54615491297f57fe5a7a8ca7eba957b5ddf385179106ca1fc6abcea",
    "default_report.json": "a8fc4ca0751b39cbf7548d193276093050f497a8cf5d693db488f253fc7afa0b",
    "forest.json": "babb897067960b1284cd3a980ccabd51d6c739ca6db586510a6c6cccf8623123",
    "generate_book.out": "848e30f5398bee6203b80a011c353c53aaf25b9619dfcdfbd3f470922271e0ca",
    "generate_train.out": "420e521396554261fe371d80d609395e6683abee2928edf9eab29bb1eadddafd",
    "generate_zero.out": "0cb9436bbc9a306e1b16e17c1e861d4dbaa3a232da6cd0274e658e0bc24b5c84",
    "importance.out": "5704bc9e569023081e530907870c121985c71468a02bb3e7b05897ae66f3b983",
    "importance_zero.out": "f49fd059e6b261a68f333b5ca9482ebe93b1f05b0e60e9a25b00eda5be4d885a",
    "logit.json": "8feff4b1ae6e9c20cf6194b0b27e8101b0bc26bd258c9d114b23af51db549e82",
    "report.json": "2520a2fccecb0f5d8e28bf0b84b97e910c0ed821f5789ba913612f2650f1c4db",
    "score_forest.out": "5390b0100e551be88b3bf783720a6ed8d7edb30dbf7918cacb7603005ffe8198",
    "score_logistic.out": "f5b406705665af60248189f288524cfe2bcebdcec2dd5e4760ea3dd6ee68fda9",
    "score_zero.out": "d19ba78f16dd8e89a0aacde1651e794f88586063bcccb4e3333962ee235dc0f6",
    "scores_forest.csv": "ad24f8936bc54c5e762a8cc740def654ed8c223c0bc53f7caaea411172132034",
    "scores_logit.csv": "2601250c897e81c77e1161f263ea69fc74f85b8c8fdd70c75528a733c25695a5",
    "scores_zero.csv": "4a52c9f4afa79b8e90c795d99d7958a1658ad80664337ba5caa6f68408887135",
    "train.csv": "a24c7683e9fbb66334044cc59d2ba00a59068d48b060f9021979ba4a7a7f9f59",
    "train_forest.out": "52cb9e6544a88986f03c3da317d347fa6ef80dcba9db8b2f8ea4c68094cac606",
    "train_logistic.out": "2747670e62bd070c6abca3d811c1d30a0995b943f24f12f1e6749844b206ced4",
    "train_zero.out": "f59639f193e2592e4606d24b7e86c5da8717e9a58fd21308aa14e93f1fc6a087",
    "zero.csv": "a14a20e61b0659c068d0572683d3d71beb9edce3b6a98ec2a664306e1846650d",
    "zero_forest.json": "9efc4862ae27db50093720f7e03bc5b1529ac2724f7f96164e870a1b0b8ba107",
}


@pytest.fixture(scope="module")
def output_hashes(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    for name, text in CONFIGS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    captured = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in COMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(list(argv))
            assert code == 0, f"smerisk {' '.join(argv)} exited {code}"
            captured[name] = stdout.getvalue().encode("utf-8")
    finally:
        os.chdir(previous)
    for path in Path(workdir).iterdir():
        if path.name not in CONFIGS:
            captured[path.name] = path.read_bytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in captured.items()}


def test_every_output_has_a_golden_hash(output_hashes):
    assert sorted(output_hashes) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_matches_golden_hash(name, output_hashes):
    assert output_hashes[name] == GOLDEN_SHA256[name]
