"""The traced layer self share of one benchmark workload in two checkouts.

    python3 tools/traced_share.py --parent DIR --change DIR --workload W [--pairs N]

Runs ``perfbench/run.py --trace 1`` from the root of each checkout, N
times each (10 by default), alternating parent then change, so that the
drift of a shared host falls on both sides alike.  Every run uses seed 3
and the ``run_seconds`` of this checkout's BENCHMARK.json.  For each run
it prints a line with the pair number, the side, the layer self share
(the layers' self time over the traced wall, as run.py prints it), the
``failed`` count and run.py's first ``FAILED`` line, if any: perfbench
fails a traced pass whose layer self share is under 0.95.  Then it prints
the median share of each side.  It only runs perfbench, and changes
nothing in either checkout.
"""

from __future__ import annotations

import argparse
import re
import statistics
import sys
from pathlib import Path

from bench_record import last_json, run_py, run_seconds

SEED = 3
SHARE = re.compile(r"layer self share (\d+(?:\.\d+)?)")


def traced_run(root: Path, workload: str, seconds: float) -> tuple:
    """(share or None, failed count or None, first FAILED line or "") of
    one traced run in the checkout at root."""
    proc = run_py(root, workload, SEED, seconds, trace=True)
    found = SHARE.search(proc.stdout)
    share = float(found.group(1)) if found else None
    failed = (last_json(proc.stdout) or {}).get("failed")
    problem = next((l for l in proc.stderr.splitlines() if l.startswith("FAILED")), "")
    if proc.returncode != 0 and not problem:
        problem = f"run.py exited with code {proc.returncode}"
    return share, failed, problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = run_seconds()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shares: dict[str, list[float]] = {side: [] for side in sides}
    for pair in range(1, args.pairs + 1):
        for side, root in sides.items():
            share, failed, problem = traced_run(root, args.workload, seconds)
            if share is not None:
                shares[side].append(share)
            shown = "-" if share is None else f"{share:.4f}"
            print(f"{pair}\t{side}\t{shown}\tfailed {failed}\t{problem}".rstrip(), flush=True)
    for side, values in shares.items():
        median = f"{statistics.median(values):.4f}" if values else "-"
        print(f"median {side}\t{median}\tover {len(values)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
