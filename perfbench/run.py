"""operadkit benchmark: time to verdict and memory, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: complexes, operad-tables and
shapes (see BENCHMARK.json for why each was chosen).  Each run starts
fresh worker processes (worker.py): five that only set up, to time
set-up, and one that sets up and then measures.  The worker sends one CLI
task at a time through operadkit.cli.main(argv), a closed loop with one
client on one core.

A task's time to verdict is its best over the run's passes, whose number
the workload and --seconds fix; interference on a shared host only ever
slows a task down.  With --trace 0 the summary lines give, in clock time:
  wall_s          seconds for one pass over the task list: the sum of
                  the tasks' times to verdict
  verdict_p50_ms  median time to verdict over the tasks
  verdict_p90_ms  90th percentile (nearest rank) of the same samples
and the result carries the end-to-end metrics:
  cal_wall_s, cal_verdict_p50_ms, cal_verdict_p90_ms
                  the same three from calibrated task times, which the
                  host's drifting speed moves far less (speed.py)
  peak_rss_mb     peak resident memory of the measuring worker
  setup_s         median set-up time: interpreter start, import, input
                  generation, writing input documents and warm-up, each
                  set-up calibrated by the median of the speed samples
                  its worker took (the summary gives it in clock time
                  too, as setup_clock_s)
With --trace 1 it carries the per-layer metrics of one traced pass.

Every verdict is checked against an independent reference (reference.py);
a task fails if it raises, exits with an unexpected code, disagrees with
the reference, or prints other stdout than its first pass did.  Lines
before the last one are a readable summary; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 5
DEADLINE_S = 170.0


def _worker(args, setup_only: bool, deadline: float):
    """Run a worker; return (set-up clock seconds, calibrated set-up
    seconds, result dict or None).

    Set-up runs from the spawn to the worker's READY line, which carries
    the worker's perf_counter reading (on Linux the system-wide monotonic
    clock, the same one this process reads) and the factor that calibrates
    the worker's set-up to the reference speed (speed.py)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))[0]
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    _, ready_at, factor = lines[0].split()
    setup_s = float(ready_at) - start
    return setup_s, setup_s * float(factor), None if setup_only else json.loads(lines[-1])


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "operadkit" / "__init__.py").is_file():
        print(f"no operadkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = [_worker(args, True, deadline)[:2] for _ in range(SETUP_ONLY_RUNS)]
        clock_s, cal_s, result = _worker(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    setups.append((clock_s, cal_s))
    clock_setups, cal_setups = zip(*setups)

    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    passes = len(result["walls"])
    tasks = result["tasks"]

    def per_task(times):
        """Each task's best over the passes: one sample per task."""
        return [min(times[i::tasks]) for i in range(tasks)]

    raw, cal = per_task(result["times"]), per_task(result["cal_times"])
    print(f"workload {args.workload}  seed {args.seed}  tasks {result['tasks']}  "
          f"passes {passes}  attempted {attempted}  failed {failed}  "
          f"failed_share {failed / attempted:.4f}")
    if args.trace:
        metrics = result["layer_metrics"]
        print(f"traced wall {result['traced_wall']:.3f} s  layer self share "
              f"{result['layer_share']:.4f}  benchmark's own {result['bench_s']:.3f} s")
    else:
        metrics = {
            "cal_wall_s": sum(cal),
            "cal_verdict_p50_ms": 1000.0 * statistics.median(cal),
            "cal_verdict_p90_ms": 1000.0 * percentile(cal, 0.9),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(cal_setups),
        }
        clock = {
            "wall_s": (sum(raw), "s"),
            "verdict_p50_ms": (1000.0 * statistics.median(raw), "ms"),
            "verdict_p90_ms": (1000.0 * percentile(raw, 0.9), "ms"),
            "setup_clock_s": (statistics.median(clock_setups), "s"),
        }
        best = f"{tasks} tasks, best of {passes} passes"
        samples = {"wall_s": best, "verdict_p50_ms": best, "verdict_p90_ms": best,
                   "peak_rss_mb": "1 process",
                   "setup_s": f"{len(setups)} set-ups", "setup_clock_s": f"{len(setups)} set-ups"}
        rows = [(name, value, unit, samples[name]) for name, (value, unit) in clock.items()]
        rows += [(name, value, units[name], samples[name.removeprefix("cal_")])
                 for name, value in metrics.items()]
        rows.append(("failed_share", failed / attempted, "ratio", f"{attempted} task runs"))
        for name, value, unit, count in rows:
            print(f"  {name:<19} {value:12.4f} {unit:<5} samples {count}")
        kernel = result["kernel_s"]
        print(f"  speed kernel {1000.0 * statistics.median(kernel):.3f} ms median, "
              f"{1000.0 * min(kernel):.3f} to {1000.0 * max(kernel):.3f} ms over "
              f"{len(kernel)} samples")
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
