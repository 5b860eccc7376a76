"""The exit code and the sha256 of stdout of every task of one benchmark
workload, one line per task.

    python3 tools/stdout_digests.py --workload W --seed S [--scale full|tiny]

The task list comes from perfbench/workloads.py, which this script only
reads.  The task documents are written into one fixed directory outside
the checkout, because each report's ``inputs`` digest covers the argv and
so the document's path; with a fixed path the digests of two checkouts
can be compared line by line.  Every task runs in-process through
``operadkit.cli.main``, with operadkit imported from this checkout's
``src/``.  Each line is the task name, the exit code and the digest,
separated by tabs.  Run it in two checkouts and diff the outputs to see
that a change keeps every task's stdout and exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = Path(tempfile.gettempdir()) / "operadkit-stdout-digests"

sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    program = worker.import_program(ROOT)
    tasks = workloads.build(args.workload, args.seed, args.scale, program)
    workdir = DOCUMENTS / f"{args.workload}-{args.seed}-{args.scale}"
    try:
        argvs = worker.write_documents(tasks, workdir)
        for task, task_argv in zip(tasks, argvs):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = program.cli.main(task_argv)
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(f"{task.name}\t{code}\t{digest}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
