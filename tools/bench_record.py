"""Benchmark runs in two checkouts, recorded in BENCH_<label>.json.

    python3 tools/bench_record.py --parent DIR --change DIR --workload W
        --pairs N --seed S --label L [--trace] [--out DIR]

Runs ``perfbench/run.py`` from the root of each checkout, N pairs of runs
for each workload and seed, with the ``run_seconds`` of this checkout's
BENCHMARK.json: untraced (``--trace 0``), or traced (``--trace 1``) with
``--trace``.  The side that runs first alternates from one pair to the
next (parent first in odd pairs, change first in even ones), so that the
drift of a shared host falls on both sides alike.  ``--workload`` and
``--seed`` may be given more than once.  One line per run is printed as
it ends.

The file keeps each run's last JSON line (run.py's result, which holds
the ``failed`` count) with its exit code.  A traced run also keeps its
layer self share: the layers' self time over the traced wall, as run.py
prints it; perfbench fails a traced pass whose share is under 0.95.  The
file records both checkouts (git commit, whether the tree had
uncommitted changes, and a sha256 over the files under ``src/``),
``os.cpu_count()``, the Python version and, per workload, seed and
metric (the layer self share among them), the medians of both sides, the
parent's quartiles and the number of pairs in which the change read
lower.  An existing file is refused before anything runs, and the file
is created exclusively, so a record is never overwritten.  The tool only
runs perfbench, and changes nothing in either checkout.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SHARE = re.compile(r"layer self share (\d+(?:\.\d+)?)")


def run_seconds() -> float:
    """The ``run_seconds`` of this checkout's BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_py(root: Path, workload: str, seed: int, seconds: float,
           trace: bool = False) -> subprocess.CompletedProcess:
    """One run.py run in the checkout at root, its output captured."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=root, capture_output=True, text=True,
    )


def last_json(stdout: str) -> dict | None:
    """run.py's result: the last line of its stdout as JSON, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def bench_run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run.py run in the checkout at root: its exit code, its clock
    seconds and its result, and if traced its layer self share."""
    start = time.perf_counter()
    proc = run_py(root, workload, seed, seconds, trace)
    run = {"exit_code": proc.returncode, "clock_s": time.perf_counter() - start,
           "result": last_json(proc.stdout)}
    if trace:
        found = SHARE.search(proc.stdout)
        run["layer_share"] = float(found.group(1)) if found else None
    return run


def checkout(root: Path) -> dict:
    """The git commit and dirtiness of a checkout, and a digest of its
    sources."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def summary(runs: list[dict]) -> list[dict]:
    """Per workload, seed and metric: both sides' medians, the parent's
    quartiles and how many complete pairs read lower on the change."""
    values: dict[tuple, dict] = {}
    for run in runs:
        metrics = {name: metric["value"]
                   for name, metric in (run["result"] or {}).get("metrics", {}).items()}
        if run.get("layer_share") is not None:
            metrics["layer_share"] = run["layer_share"]
        for name, value in metrics.items():
            key = (run["workload"], run["seed"], name)
            values.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = value
    out = []
    for (workload, seed, name), pairs in values.items():
        both = [p for p in pairs.values() if len(p) == 2]
        if not both:
            continue
        parent = [p["parent"] for p in both]
        change = [p["change"] for p in both]
        quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
        out.append({
            "workload": workload, "seed": seed, "metric": name, "pairs": len(both),
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": [quartiles[0], quartiles[2]],
            "change_lower": sum(p["change"] < p["parent"] for p in both),
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    path = args.out / f"BENCH_{args.label}.json"
    if path.exists():
        print(f"{path} exists; a record is never overwritten", file=sys.stderr)
        return 2
    seconds = run_seconds()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for seed in args.seed:
        for workload in args.workload:
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    run = bench_run(roots[side], workload, seed, seconds, args.trace)
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "side": side, **run})
                    result = run["result"] or {}
                    if args.trace:
                        name, value = "layer_share", run["layer_share"]
                    else:
                        name = "cal_wall_s"
                        value = result.get("metrics", {}).get(name, {}).get("value")
                    shown = "-" if value is None else f"{value:.4f}"
                    print(f"{workload}\tseed {seed}\t{pair}\t{side}\t{name} {shown}\t"
                          f"exit {run['exit_code']}\tfailed {result.get('failed')}", flush=True)
    record = {
        "label": args.label,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "run_seconds": seconds,
        "trace": args.trace,
        "checkouts": {side: checkout(root) for side, root in roots.items()},
        "runs": runs,
        "summary": summary(runs),
    }
    with open(path, "x") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
