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

# (name of the stdout capture, argv); files written by a command are
# hashed under their own names
COMMANDS = (
    ("generate_train.out", ("generate", "--n", "400", "--seed", "42", "--out", "train.csv")),
    ("generate_book.out", ("generate", "--n", "500", "--seed", "9", "--signal", "1.5", "--out", "book.csv")),
    ("compare_config.out", ("compare", "--config", "cfg.json", "--json", "report.json")),
    ("compare_data.out", ("compare", "--data", "train.csv", "--trees", "15", "--seed", "3")),
    ("train_forest.out", ("train", "--model", "forest", "--data", "train.csv", "--out", "forest.json")),
    ("train_logistic.out", ("train", "--model", "logistic", "--data", "train.csv", "--out", "logit.json")),
    ("score_forest.out", ("score", "--model", "forest.json", "--data", "book.csv", "--out", "scores_forest.csv")),
    ("score_logistic.out", ("score", "--model", "logit.json", "--data", "book.csv", "--out", "scores_logit.csv")),
    ("importance.out", ("importance", "--model", "forest.json")),
    # zero signal grows the deepest trees: 21,548 nodes, depth 27
    ("generate_zero.out", ("generate", "--n", "600", "--seed", "5", "--signal", "0.0", "--out", "zero.csv")),
    ("train_zero.out", ("train", "--model", "forest", "--data", "zero.csv", "--out", "zero_forest.json")),
    ("score_zero.out", ("score", "--model", "zero_forest.json", "--data", "book.csv", "--out", "scores_zero.csv")),
    ("importance_zero.out", ("importance", "--model", "zero_forest.json")),
)

GOLDEN_SHA256 = {
    "book.csv": "2ea45811cdb99740e5a64a5d94a7602a01e53db32d2216799ba5b03578b70691",
    "compare_config.out": "32970552becbbae30567e3d17c0ac0eadc1b17a7608a8ae30ff1d60c701db65d",
    "compare_data.out": "0d264152459f0707990ecea1399141559d7ed67d2e54437ce9a2d9f389bb7649",
    "forest.json": "8f78a620374de874f28259bdb0f5d76af321727d40f255cad27d07ed076f3537",
    "generate_book.out": "848e30f5398bee6203b80a011c353c53aaf25b9619dfcdfbd3f470922271e0ca",
    "generate_train.out": "420e521396554261fe371d80d609395e6683abee2928edf9eab29bb1eadddafd",
    "generate_zero.out": "0cb9436bbc9a306e1b16e17c1e861d4dbaa3a232da6cd0274e658e0bc24b5c84",
    "importance.out": "dd034246b97ee0c9d3bda9a70fdaa2d6f8b2766b06a559a60fc43244f0c49cd1",
    "importance_zero.out": "e1b45c101f33d6405d9d8d5422701ee6d8e1093593002c20a587aebb1110a610",
    "logit.json": "dbd2088274c3fed35a7df1ca043d3164253c5abf2fc2c317225a775b559b2b93",
    "report.json": "b1f230fa510c2a464213841364252657d408fc02ddf52551c8bb974199163f3a",
    "score_forest.out": "5390b0100e551be88b3bf783720a6ed8d7edb30dbf7918cacb7603005ffe8198",
    "score_logistic.out": "f5b406705665af60248189f288524cfe2bcebdcec2dd5e4760ea3dd6ee68fda9",
    "score_zero.out": "d19ba78f16dd8e89a0aacde1651e794f88586063bcccb4e3333962ee235dc0f6",
    "scores_forest.csv": "58173415e830f17d3c09558304cb2be8d34e99f0e5edcbf716e53a064323d2cb",
    "scores_logit.csv": "2601250c897e81c77e1161f263ea69fc74f85b8c8fdd70c75528a733c25695a5",
    "scores_zero.csv": "39682fc8e9bc52579e89200ae68e368d27ca149e6e5ac2135cd90b7c6b70c2d6",
    "train.csv": "a24c7683e9fbb66334044cc59d2ba00a59068d48b060f9021979ba4a7a7f9f59",
    "train_forest.out": "52cb9e6544a88986f03c3da317d347fa6ef80dcba9db8b2f8ea4c68094cac606",
    "train_logistic.out": "2747670e62bd070c6abca3d811c1d30a0995b943f24f12f1e6749844b206ced4",
    "train_zero.out": "f59639f193e2592e4606d24b7e86c5da8717e9a58fd21308aa14e93f1fc6a087",
    "zero.csv": "a14a20e61b0659c068d0572683d3d71beb9edce3b6a98ec2a664306e1846650d",
    "zero_forest.json": "ffbfb14e68a9ccc88c96afe07a97bc13e0d8970642221cf24d47bb322babbc67",
}


@pytest.fixture(scope="module")
def output_hashes(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    (workdir / "cfg.json").write_text(CONFIG, encoding="utf-8")
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
        if path.name != "cfg.json":
            captured[path.name] = path.read_bytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in captured.items()}


def test_every_output_has_a_golden_hash(output_hashes):
    assert sorted(output_hashes) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_matches_golden_hash(name, output_hashes):
    assert output_hashes[name] == GOLDEN_SHA256[name]
