"""smerisk benchmark: time the CLI end to end on one workload and seed.

    python3 perfbench/run.py --workload compare_default --seed 42 --seconds 40 --trace 0

Run from the root of a source checkout; smerisk is imported from ``src/``.
The workload is set up (untimed by the passes), then passes run one after
another, each in a fresh child process, until they have taken
``--seconds``. Set-up is repeated, alternating with the first passes, and
timed on its own. Every pass's outputs are checked, and their sha256 must
agree across the passes of one seed.

The host's speed drifts by up to 1.8x, so the benchmark also times a
fixed reference workload (``reference.py``) before the first step and
after every set-up and pass, and reports the run's median times rescaled
by the reference's median to the reference host speed. Raw medians are
printed beside them.

``--trace 0`` reports the end-to-end metrics (``END_TO_END_UNITS``).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.LAYER_UNITS``; spans go to
``.perfbench/trace-<workload>-<seed>.json``.

Seeds: 42 reproduces the README operating point. Seed 1009 is held out:
use it only to confirm a claim made on other seeds.

The last line of stdout is the result as one JSON object with the keys
correct, attempted, failed and metrics. Exit code 1 means the benchmark
itself could not run (for example, no ``src/smerisk`` beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs at least SETUP_REPEATS times and, while it is cheap, until
# SETUP_BUDGET_S is spent, so a 0.15 s set-up gets a steadier median.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 7
SETUP_BUDGET_S = 2.0
CHILD_TIMEOUT_S = 150
HELD_OUT_SEED = 1009

END_TO_END_UNITS = {"norm_wall_s": "s", "norm_rows_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Pinned to one thread: the matrices are at most 10,000 x 6, so BLAS
# threads only add scheduling noise on a small machine.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark cannot produce a result at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, cwd: Path) -> dict:
    """Run child.py with ``spec``; a crash or timeout becomes an error entry."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"{spec['mode']} step timed out after {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"errors": [f"{spec['mode']} step exited with code {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {name: child_env()[name] for name in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes=workloads.FULL) -> dict:
    """Set up, measure and check one workload; prints progress and returns
    the result object."""
    src = ROOT / "src"
    if not (src / "smerisk" / "cli.py").is_file():
        raise BenchmarkError(f"no smerisk sources at {src}; run from a smerisk checkout")
    plan = workloads.plan(workload, seed, sizes)
    base = {"workload": workload, "seed": seed, "sizes": asdict(sizes), "src": str(src)}
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups, passes, refs = run_steps(base, work, seconds, trace, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first_hashes = next((p["hashes"] for p in passes if not p["errors"]), None)
    for i, p in enumerate(passes, 1):
        if not p["errors"] and p["hashes"] != first_hashes:
            p["errors"].append("outputs differ from the first good pass of this seed")
        status = "ok" if not p["errors"] else "FAILED: " + "; ".join(p["errors"])
        wall = f"{p['wall_s']:.4f} s" if "wall_s" in p else "no time"
        print(f"pass {i}{' (traced)' if p.get('traced') else ''}: {wall}, {status}")
    for name, digest in (first_hashes or {}).items():
        print(f"sha256 {name} {digest}")

    failed = sum(1 for p in passes if p["errors"])
    error_rate = failed / len(passes)
    print(f"error_rate = {error_rate} fraction ({failed} of {len(passes)} passes failed)")
    ref = statistics.median(refs)
    print(f"reference chunk = {ref * 1e3:.4g} ms, median of {len(refs)} "
          f"(nominal {reference.NOMINAL_CHUNK_S * 1e3:.4g} ms)")
    if not trace:
        raw = _median_of(passes, "wall_s")
        print(f"raw wall_s = {raw:.6g} s, rows_per_s = {plan.rows / raw:.6g} rows/s, "
              f"setup_s = {statistics.median(s['setup_s'] for s in setups):.6g} s")
    metrics = (
        layer_metrics(setups, passes) if trace
        else end_to_end_metrics(plan, setups, passes, reference.NOMINAL_CHUNK_S / ref)
    )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}


def run_steps(base: dict, work: Path, seconds: float, trace: bool, out_dir: Path) -> tuple[list, list, list]:
    """Set up once, then run passes until they have taken ``seconds``.

    The remaining set-up repeats (none for a traced run) alternate with
    the first passes, so that passes and set-ups both sample the whole run
    rather than two halves of it; set-up time does not count towards
    ``seconds``, the reference measured after each pass does. Traced runs
    alternate untraced and traced passes and need at least one of each.
    Returns the set-ups, the passes and the reference chunk times.
    """
    refs = [reference.measure()]

    def measured(step: dict) -> dict:
        refs.append(reference.measure())
        return step

    setups = [measured(run_setup(base, work, trace, out_dir, None))]
    print("env " + json.dumps(environment(setups[0]["numpy"]), sort_keys=True))
    passes = []
    pass_time = 0.0
    while not passes or (trace and len(passes) < 2) or pass_time < seconds:
        start = time.perf_counter()
        passes.append(measured(run_pass(base, work, trace and len(passes) % 2 == 1, out_dir)))
        pass_time += time.perf_counter() - start
        if _more_setups_wanted(setups, trace):
            setups.append(measured(run_setup(base, work, trace, out_dir, setups[0])))
    while _more_setups_wanted(setups, trace):
        setups.append(measured(run_setup(base, work, trace, out_dir, setups[0])))
    return setups, passes, refs


def _more_setups_wanted(setups: list[dict], trace: bool) -> bool:
    if trace:
        return not setups
    if len(setups) < SETUP_REPEATS:
        return True
    return len(setups) < SETUP_MAX_REPEATS and sum(s["setup_s"] for s in setups) < SETUP_BUDGET_S


def run_setup(base: dict, work: Path, trace: bool, out_dir: Path, first: dict | None) -> dict:
    """One set-up in a fresh process; it must succeed and write the same
    files as the ``first`` set-up."""
    spec = dict(base, mode="setup")
    if trace:
        spec["trace_path"] = str(out_dir / f"trace-{base['workload']}-{base['seed']}-setup.json")
    setup = run_child(spec, work)
    if setup["errors"]:
        raise BenchmarkError(f"set-up failed: {'; '.join(setup['errors'])}")
    if first is not None and setup["hashes"] != first["hashes"]:
        raise BenchmarkError("set-up repeats wrote different files for the same seed")
    print(f"setup: {setup['setup_s']:.4f} s")
    return setup


def run_pass(base: dict, work: Path, traced: bool, out_dir: Path) -> dict:
    spec = dict(base, mode="pass")
    if traced:
        spec["trace_path"] = str(out_dir / f"trace-{base['workload']}-{base['seed']}.json")
    result = run_child(spec, work)
    result.setdefault("hashes", {})
    result["traced"] = traced
    return result


def _median_of(passes: list[dict], key: str) -> float:
    good = [p[key] for p in passes if not p["errors"]]
    values = good or [p[key] for p in passes if key in p]
    if not values:
        raise BenchmarkError(f"no pass produced {key}: {passes[0]['errors']}")
    return statistics.median(values)


def end_to_end_metrics(plan: workloads.Plan, setups: list[dict], passes: list[dict], scale: float) -> dict:
    """Medians of the run; times are multiplied by ``scale``, the nominal
    over the measured reference chunk time."""
    wall = _median_of(passes, "wall_s") * scale
    values = {
        "norm_wall_s": wall,
        "norm_rows_per_s": plan.rows / wall,
        "peak_rss_mb": _median_of(passes, "peak_rss_mb"),
        "setup_s": statistics.median(s["setup_s"] for s in setups) * scale,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


# No pass saves a model or writes a CSV file: these come from the traced
# set-up (score_book's writes the 10,000-row book).
SETUP_LAYERS = ("experiment.save_model_s", "dataset.write_csv_s", "dataset.write_csv_rows_per_s")


def layer_metrics(setups: list[dict], passes: list[dict]) -> dict:
    """Medians over the traced passes, except ``SETUP_LAYERS``."""
    traced = [p for p in passes if p["traced"] and "layers" in p]
    untraced = [p for p in passes if not p["traced"]]
    if not traced:
        raise BenchmarkError(f"no traced pass completed: {passes[-1]['errors']}")
    values = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    values.update({name: setups[0]["layers"][name] for name in SETUP_LAYERS})
    values["trace.overhead_ratio"] = _median_of(traced, "wall_s") / _median_of(untraced, "wall_s")
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed (42: README operating point; {HELD_OUT_SEED}: held out)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to spend on passes and the reference runs between them; set-up excluded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
