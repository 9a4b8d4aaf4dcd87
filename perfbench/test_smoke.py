"""Smoke test of the benchmark itself: every workload at tiny sizes,
untraced and traced, through the same code the full benchmark runs."""

import json
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_prints_every_metric_with_its_unit(workload, trace, capsys):
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, sizes=workloads.TINY)
    printed = capsys.readouterr().out.splitlines()

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate = 0.0 fraction (0 of" in "\n".join(printed)
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(
            line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}") for line in printed
        )


def test_score_check_rejects_a_label_that_disagrees_with_its_probability(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("Predicted_Prob,Predicted_Label\n0.25,0\n0.75,0\n", encoding="utf-8")
    assert workloads.check_scores(str(scores), 2) == [f"{scores}: row 1 label 0 disagrees with p = 0.75"]
    assert workloads.check_scores(str(scores), 3) == [f"{scores}: 2 scored rows, expected 3"]


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "compare_default", "--seed", "1", "--seconds", "1"]) == 1
    assert capsys.readouterr().out == ""
    assert not Path(tmp_path, ".perfbench").exists()
