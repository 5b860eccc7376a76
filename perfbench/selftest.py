"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Requires the speed clock to leave its samples out of a task's time and
to stop its timer, runs every workload at its tiny scale and requires
every verdict to agree with its reference, runs one traced pass and requires every per-layer
metric and no wrapper left behind, and checks that a deliberately wrong
reference is counted as a failure rather than hidden.  Last, it requires
run.py to refuse, without printing a result, in a directory that holds
only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def clock_leaves_samples_out() -> None:
    before = signal.getsignal(signal.SIGALRM)
    with speed.Clock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * speed.SAMPLE_EVERY_S:
            pass
        end = time.perf_counter()
        clock.add(start, end)
    inside = [e - s for s, e in zip(clock._starts, clock._ends) if start <= s <= end]
    _require(len(inside) >= 5, f"only {len(inside)} speed samples in a busy task")
    _require(abs(end - start - sum(inside) - clock.raw()[0]) < 1e-9,
             "a task's raw time does not leave its speed samples out")
    _require(clock.calibrated()[0] > 0, "calibrated time is not positive")
    _require(signal.getsignal(signal.SIGALRM) == before
             and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
             "the speed timer is still running")


def tiny_workloads_pass() -> None:
    for name in workloads.WORKLOADS:
        result = worker.measure(name, 7, 0.0, False, "tiny", ROOT)
        _require(result["attempted"] >= 2 * result["tasks"] > 0, f"{name}: too few tasks run")
        _require(result["failed"] == 0, f"{name}: {result['problems'][:3]}")


def traced_pass_reports_every_layer() -> None:
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    for name in workloads.WORKLOADS:
        result = worker.measure(name, 7, 0.0, True, "tiny", ROOT)
        _require(result["failed"] == 0, f"traced {name}: {result['problems'][:3]}")
        missing = set(declared) ^ set(result["layer_metrics"])
        _require(not missing, f"traced {name}: per-layer metrics differ from BENCHMARK.json: {missing}")
        _require(result["layer_share"] >= 0.9, f"traced {name}: layers hold {result['layer_share']:.3f}")
    from tracing import Tracer

    _require(Tracer.leftovers() == [], "wrappers left installed")


def wrong_reference_is_counted() -> None:
    program = worker.import_program(ROOT)
    tasks = workloads.build("complexes", 7, "tiny", program)
    target = next(i for i, t in enumerate(tasks) if t.name == "homology Q(2,2)")
    # the circle Q_2(2) with its degree-1 class removed from the reference
    tasks[target].check = workloads._homology_check("Q", 2, 2, [1])
    result = worker.measure("complexes", 7, 0.0, False, "tiny", ROOT, tasks=tasks)
    passes = result["attempted"] // len(tasks)
    _require(result["failed"] == passes, f"wrong reference gave {result['failed']} failures")
    _require(all("homology Q(2,2)" in p for p in result["problems"]), "failure not reported")


def bare_directory_is_refused() -> None:
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".*", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "shapes", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        _require(done.returncode != 0, "run.py succeeded without the program's sources")
        _require('"correct"' not in done.stdout, "run.py printed a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    clock_leaves_samples_out()
    tiny_workloads_pass()
    traced_pass_reports_every_layer()
    wrong_reference_is_counted()
    bare_directory_is_refused()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
