"""One benchmark step in a fresh process: a workload's set-up or one pass.

Usage: python3 child.py '<json spec>', run in the workload's work
directory. The spec names the mode ("setup" or "pass"), the workload, its
seed and sizes, the smerisk source directory and, for a traced step, the
file to write spans to. The last line on stdout is the step's result as
JSON. A fresh process per pass keeps the peak RSS figure per pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import tracing
import workloads


def sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """High-water resident set of this process. VmHWM belongs to the
    process image, so, unlike ru_maxrss, it cannot carry the parent's peak
    across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_commands(commands) -> list[str]:
    """Run CLI commands in order through smerisk.cli.main, looked up at
    call time so a traced wrapper is used; stop at the first failure."""
    import smerisk.cli

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            try:
                code = smerisk.cli.main(list(argv))
            except Exception as exc:  # a traceback is a failed pass, not a crashed benchmark
                return [f"smerisk {argv[0]} raised {type(exc).__name__}: {exc}"]
            if code != 0:
                return [f"smerisk {argv[0]} exited with code {code}"]
    return []


def run_setup(plan: workloads.Plan, trace_path: str | None) -> dict:
    start = time.perf_counter()
    import numpy
    import smerisk.cli  # noqa: F401  (importing smerisk is part of set-up)

    tracer = tracing.Tracer() if trace_path else None
    if tracer:
        tracer.install()
    for name, text in plan.files.items():
        Path(name).write_text(text, encoding="utf-8")
    errors = run_commands(plan.setup)
    setup_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if not errors:
        errors = workloads.check_setup(plan)
    result = {
        "setup_s": setup_s,
        "errors": errors,
        "hashes": {} if errors else {name: sha256(name) for name in plan.setup_outputs},
        "numpy": numpy.__version__,
    }
    if tracer:
        tracer.write(trace_path)
        result["layers"] = tracer.layer_metrics()
    return result


def run_pass(plan: workloads.Plan, trace_path: str | None) -> dict:
    import smerisk.cli  # noqa: F401  (imported before the clock starts)

    for name in plan.outputs:
        Path(name).unlink(missing_ok=True)
    tracer = tracing.Tracer() if trace_path else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    errors = run_commands(plan.timed)
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    peak = peak_rss_mb()
    if not errors:
        try:
            errors = workloads.check_outputs(plan)
        except Exception as exc:  # a check that cannot even read the output is a failed check
            errors = [f"output check raised {type(exc).__name__}: {exc}"]
    hashes = {name: sha256(name) for name in plan.outputs if Path(name).is_file()}
    result = {"wall_s": wall_s, "peak_rss_mb": peak, "errors": errors, "hashes": hashes}
    if tracer:
        tracer.write(trace_path)
        result["layers"] = tracer.layer_metrics()
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    plan = workloads.plan(spec["workload"], spec["seed"], workloads.Sizes(**spec["sizes"]))
    step = run_setup if spec["mode"] == "setup" else run_pass
    print(json.dumps(step(plan, spec.get("trace_path"))))


if __name__ == "__main__":
    main()
