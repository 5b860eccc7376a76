"""tools/stdout_digests.py prints one line per benchmark task: its name, an
exit code of the documented three, and a sha256 of its stdout."""

import re
import subprocess
import sys
from pathlib import Path

import pytest
import workloads

import operadkit

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stdout_digests_lists_every_task(workload):
    tasks = workloads.build(workload, 1, "tiny", operadkit)
    argv = [sys.executable, str(ROOT / "tools" / "stdout_digests.py"),
            "--workload", workload, "--seed", "1", "--scale", "tiny"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = [line.split("\t") for line in run.stdout.splitlines()]
    assert [name for name, _, _ in lines] == [task.name for task in tasks]
    assert {code for _, code, _ in lines} <= {"0", "1", "2"}
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, _, digest in lines)
