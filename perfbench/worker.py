"""One workload run, in a fresh process started by run.py.

Set-up imports operadkit from the checkout's src/, generates the tasks from
the seed, writes their input documents and warms up on the workload's tiny
scale.  It then prints READY with its clock reading and measures: a closed
loop with one client sends one task at a time through
operadkit.cli.main(argv), capturing stdout.  The last line printed is a
JSON result for run.py.

Each task's time is kept raw and calibrated to a reference speed by a
kernel that a timer runs while the tasks do (speed.py).  Passes repeat
the same task list.  Without tracing, the number of passes is fixed by
the workload and --seconds (workloads.passes), not by how fast the
passes ran, so every run takes the best of as many samples per task;
only a host far slower than usual cuts a run short.  With tracing, two
untraced passes are followed by one traced pass of the same tasks, and
the tracing overhead is the traced pass against the second.

Verdicts are checked after the measured passes, once peak memory has
been read, so the checking never adds to the program's numbers.  Every
later pass, traced or not, must reproduce the first pass's stdout digest
and exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import KERNEL_REF_S, Clock, kernel_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_program(root: Path):
    """operadkit from this checkout's src/, never an installed copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import operadkit
    import operadkit.cli

    if Path(operadkit.__file__).resolve().parent != (src / "operadkit").resolve():
        raise ImportError(f"operadkit was imported from {operadkit.__file__}, not {src}")
    return operadkit


def write_documents(tasks, workdir: Path) -> list[list[str]]:
    """argv of each task, with the path of its document when it has one."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, task in enumerate(tasks):
        argv = list(task.argv)
        if task.doc is not None:
            path = workdir / f"in{i}.json"
            path.write_text(json.dumps(task.doc))
            argv.insert(1, str(path))
        argvs.append(argv)
    return argvs


class Run:
    """Passes over one task list, with failure accounting."""

    def __init__(self, cli, tasks, argvs, outdir: Path):
        self.cli = cli
        self.tasks = tasks
        self.argvs = argvs
        self.outdir = outdir
        self.first = [None] * len(tasks)  # (digest, exit code) of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, text: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(text)

    def one_pass(self, tracer=None):
        """Run every task once; return (its Clock, stdout bytes).

        Each task starts on a collected heap, as in a fresh CLI process, so
        no task pays for a collection of garbage that earlier ones left.
        The collection runs outside the task's time."""
        with Clock(calibrate=tracer is None) as clock:
            out_bytes = self._tasks(clock, tracer)
        return clock, out_bytes

    def _tasks(self, clock: Clock, tracer) -> int:
        out_bytes = 0
        first_pass = self.first[0] is None
        for i, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.task = i
            out, err = io.StringIO(), io.StringIO()
            code = None
            gc.collect()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception:
                    crash = traceback.format_exc(limit=3)
                end = time.perf_counter()
            clock.add(start, end)
            self.attempted += 1
            name = self.tasks[i].name
            if code is None:
                self.fail(f"{name}: raised\n{crash}")
                continue
            data = out.getvalue().encode()
            out_bytes += len(data)
            seen = (hashlib.sha256(data).hexdigest(), code)
            if first_pass:
                self.first[i] = seen
                (self.outdir / f"out{i}.json").write_bytes(data)
            elif seen != self.first[i]:
                self.fail(f"{name}: stdout digest or exit code differs from the first pass")
        return out_bytes

    def check_verdicts(self, passes: int) -> None:
        """Check first-pass outputs against the references.  A wrong verdict
        counts once per pass that produced it."""
        for i, task in enumerate(self.tasks):
            if self.first[i] is None:
                continue
            code = self.first[i][1]
            try:
                report = json.loads((self.outdir / f"out{i}.json").read_text())
                problem = task.check(code, report)
            except Exception as e:  # a malformed report is a failed verdict
                problem = f"unreadable report ({e!r})"
            if problem:
                for _ in range(passes):
                    self.fail(f"{task.name}: {problem}")


def measure(workload, seed, seconds, trace, scale, root: Path, tasks=None, ready=None):
    """Set up and run one workload; return the result dict.

    `tasks` replaces the generated task list (the self-test uses it), and
    `ready` is called when set-up is done, with the speed samples that the
    warm-up took.
    """
    program = import_program(root)
    if tasks is None:
        tasks = workloads.build(workload, seed, scale, program)
    workdir = HERE / ".work" / f"{workload}-{seed}-{scale}"
    try:
        argvs = write_documents(tasks, workdir)
        warm = workloads.build(workload, seed, "tiny", program)
        # the benchmark's own objects (tasks, references) leave the
        # collector's view, so each task's collections see only its heap
        gc.collect()
        gc.freeze()
        warm_clock = Run(program.cli, warm, write_documents(warm, workdir / "warm"),
                         workdir / "warm").one_pass()[0]
        if ready is not None:
            ready(warm_clock.samples)
        run = Run(program.cli, tasks, argvs, workdir)
        count = 2 if trace else workloads.passes(workload, scale, seconds)
        passes = []
        started = time.perf_counter()
        while len(passes) < count:
            passes.append(run.one_pass()[0])
            # a host slowed far beyond the usual drift cuts the run short
            # rather than overrun its time
            longest = max(sum(clock.raw()) for clock in passes)
            if len(passes) >= 2 and time.perf_counter() - started + longest > 1.5 * seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "walls": [sum(clock.raw()) for clock in passes],
            "times": [t for clock in passes for t in clock.raw()],
            "cal_times": [t for clock in passes for t in clock.calibrated()],
            "kernel_s": [k for clock in passes for k in clock.samples],
            "peak_rss_mb": peak_rss_mb,
        }
        if trace:
            dump = HERE / ".out" / f"trace-{workload}-{scale}.json.gz"
            result.update(traced(run, result["walls"][-1], dump))
        run.check_verdicts(len(passes) + (1 if trace else 0))
        result.update(attempted=run.attempted, failed=run.failed, problems=run.problems,
                      tasks=len(tasks))
        return result
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def traced(run: Run, untraced_wall: float, dump_path: Path) -> dict:
    """One traced pass, then the trace's own checks and the per-layer metrics.

    The traced wall must be accounted for by the layers' self times plus
    the benchmark's own time inside the trace, within 5 percent.  The
    traced pass takes no speed samples, which the spans would contain, so
    its overhead ratio compares raw walls.
    """
    tracer = Tracer()
    tracer.install()
    try:
        clock, out_bytes = run.one_pass(tracer)
    finally:
        tracer.remove()
    for name in tracer.leftovers():
        run.fail(f"wrapper left installed after the traced pass: {name}")
    wall = sum(clock.raw())
    layers = sum(tracer.layer_self().values())
    unaccounted = (wall - layers - tracer.bench_s) / wall
    if abs(unaccounted) > 0.05 or layers < 0.95 * wall:
        run.fail(f"trace accounts badly: layers {layers:.3f} s, benchmark "
                 f"{tracer.bench_s:.3f} s, traced wall {wall:.3f} s")
    metrics = tracer.metrics()
    metrics["cli.stdout_bytes"] = out_bytes
    metrics["trace.overhead_ratio"] = wall / untraced_wall
    metrics["trace.unaccounted_share"] = unaccounted
    dump_path.parent.mkdir(exist_ok=True)
    tracer.dump(dump_path)
    return {"layer_metrics": metrics, "layer_share": layers / wall,
            "traced_wall": wall, "bench_s": tracer.bench_s}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    first = kernel_seconds()

    def ready(warm_samples):
        """READY, the clock reading, and the factor that calibrates set-up:
        the reference kernel time over the median of the samples taken
        from the worker's start to here."""
        kernel = statistics.median([first, *warm_samples, kernel_seconds()])
        print(f"READY {time.perf_counter()!r} {KERNEL_REF_S / kernel!r}", flush=True)
        if args.setup_only:
            raise SystemExit(0)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     "full", Path(args.root).resolve(), ready=ready)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
