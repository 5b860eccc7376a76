"""tools/bench_record.py writes one BENCH_<label>.json of alternating
benchmark runs in two checkouts, untraced or traced, and never overwrites
one.  perfbench is not run: the function that runs it is replaced."""

import importlib.util
import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
        (tmp_path / side / "src" / "m.py").write_text(f"side = {side!r}\n")


def test_bench_record_layout_and_refusal(tmp_path, monkeypatch):
    tool = _tool()
    calls = []

    def fake_run(root, workload, seed, seconds, trace):
        assert trace is False
        calls.append((root.name, workload, seed, seconds))
        wall = {"parent": 2.0, "change": 1.0}[root.name] + len(calls) / 100
        metrics = {"cal_wall_s": {"value": wall, "unit": "s"}}
        return {"exit_code": 0, "clock_s": 0.5,
                "result": {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}}

    monkeypatch.setattr(tool, "bench_run", fake_run)
    _checkouts(tmp_path)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--run", "shapes:3", "--run", "complexes:1", "--pairs", "2",
            "--label", "t", "--out", str(tmp_path)]
    assert tool.main(argv) == 0

    path = tmp_path / "BENCH_t.json"
    record = json.loads(path.read_text())
    assert set(record) == {"label", "created", "python", "cpu_count", "run_seconds",
                           "trace", "checkouts", "runs", "summary"}
    assert record["trace"] is False
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert (record["label"], record["python"], record["cpu_count"], record["run_seconds"]) == (
        "t", platform.python_version(), os.cpu_count(), seconds)
    parent, change = record["checkouts"]["parent"], record["checkouts"]["change"]
    assert set(parent) == {"commit", "dirty", "src_sha256"}
    assert parent["src_sha256"] != change["src_sha256"]
    # each --run in the order given, its own seed with each workload, and
    # the side that goes first alternating from pair to pair
    assert [(r["workload"], r["seed"], r["pair"], r["side"]) for r in record["runs"]] == [
        ("shapes", 3, 1, "parent"), ("shapes", 3, 1, "change"),
        ("shapes", 3, 2, "change"), ("shapes", 3, 2, "parent"),
        ("complexes", 1, 1, "parent"), ("complexes", 1, 1, "change"),
        ("complexes", 1, 2, "change"), ("complexes", 1, 2, "parent"),
    ]
    assert all(c[3] == seconds for c in calls)
    assert record["runs"][0]["result"]["metrics"]["cal_wall_s"]["value"] == 2.01
    shapes = record["summary"][0]
    assert shapes == {"workload": "shapes", "seed": 3, "metric": "cal_wall_s", "pairs": 2,
                      "parent_median": 2.025, "change_median": 1.025,
                      "parent_quartiles": shapes["parent_quartiles"], "change_lower": 2}

    # a second record under the same label is refused before anything runs
    written = path.read_bytes()
    calls.clear()
    assert tool.main(argv) == 2
    assert calls == []
    assert path.read_bytes() == written


def test_bench_record_traced_runs_keep_the_layer_share(tmp_path, monkeypatch):
    # with --trace, run.py runs with --trace 1; each run keeps the layer
    # self share that run.py prints, and its failed count with its result
    tool = _tool()
    shares = iter([0.9512, 0.9534, 0.9487, 0.9521])

    def fake_run_py(root, workload, seed, seconds, trace=False):
        assert trace is True
        share = next(shares)
        failed = int(share < 0.95)
        out = {"correct": not failed, "attempted": 9, "failed": failed,
               "metrics": {"operads.self_s": {"value": 0.5, "unit": "s"}}}
        stdout = (f"workload {workload}  seed {seed}\n"
                  f"traced wall 1.000 s  layer self share {share:.4f}  benchmark's own 0.1 s\n"
                  f"{json.dumps(out)}\n")
        return subprocess.CompletedProcess([], int(bool(failed)), stdout, "")

    monkeypatch.setattr(tool, "run_py", fake_run_py)
    _checkouts(tmp_path)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--run", "shapes:3", "--pairs", "2", "--label", "t",
            "--out", str(tmp_path), "--trace"]
    assert tool.main(argv) == 0

    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["trace"] is True
    assert [(r["pair"], r["side"], r["layer_share"], r["result"]["failed"], r["exit_code"])
            for r in record["runs"]] == [
        (1, "parent", 0.9512, 0, 0), (1, "change", 0.9534, 0, 0),
        (2, "change", 0.9487, 1, 1), (2, "parent", 0.9521, 0, 0),
    ]
    share = next(s for s in record["summary"] if s["metric"] == "layer_share")
    assert (share["parent_median"], share["change_median"], share["change_lower"]) == (
        0.95165, 0.95105, 1)
    assert {s["metric"] for s in record["summary"]} == {"layer_share", "operads.self_s"}


def test_bench_record_refuses_a_run_that_is_not_workload_and_seed(tmp_path, monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(tool, "bench_run", lambda *a: pytest.fail("a run was started"))
    _checkouts(tmp_path)
    for bad in ("shapes", "shapes:", ":3", "shapes:x", "shapes:-1"):
        argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                "--run", bad, "--pairs", "1", "--label", "t", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as info:
            tool.main(argv)
        assert info.value.code == 2
        assert "expected WORKLOAD:SEED" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()
