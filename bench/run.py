"""Benchmark of the hoeffding CLI: four seeded workloads, checked outputs.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME "all" runs the four workloads in turn, each for S seconds, and prints
one block and one result line per workload.

One client runs the workload's CLI invocations one after another (a closed
loop); a pass is one round of them.  With --trace 0, passes repeat until S
seconds have gone by (at least three), and the end-to-end metrics are the
median over passes of:

  wall_s       spawn-to-exit wall time, summed over the pass's invocations
  setup_s      spawn until the first call into a compute module, summed; it
               is also sampled after each pass by starting each invocation
               again and stopping it at that call
  cpu_s        user + system CPU of each CLI process and the pool workers
               it reaps (os.wait4), summed
  peak_rss_mb  the largest peak RSS of an invocation in the pass (MiB)

error_rate (failed / attempted invocations) is printed with them and appears
in the result as "attempted" and "failed".  With --trace 1, untraced passes
run for S seconds, then two traced passes; the first gives the per-layer
metrics (bench/layers.py) and the second must repeat its counters exactly.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter as clock

from layers import DETERMINISTIC, PER_LAYER, Tally
from workloads import WORKLOADS, Invocation, build

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(BENCH_DIR, "probe.py")
MIN_PASSES = 3
# Set-up is short and noisy: after each pass, each invocation is also
# started this many times up to its first compute call.
SETUP_SAMPLES_PER_PASS = 4
# A single invocation is a few seconds; this only stops a hung process.
INVOCATION_LIMIT_S = 60.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))


@dataclass
class Result:
    code: int
    wall_s: float
    setup_s: float | None  # None when the CLI reached no compute call
    cpu_s: float
    rss_mb: float
    report: bytes
    summary_path: str


class Runner:
    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("HOEFFDING_JOBS", None)
        self.package = os.path.join(root, "src", "hoeffding", "__init__.py")

    def invoke(self, argv: list[str], mode: str = "run") -> Result:
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        summary_path = os.path.join(self.workdir, "probe.json")
        for stale in (summary_path, summary_path + ".spans"):
            if os.path.exists(stale):
                os.remove(stale)
        cmd = [sys.executable, PROBE, summary_path, mode, *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            # the session holds the CLI and its pool workers
            watchdog = threading.Timer(INVOCATION_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t1 = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            report = fh.read()
        try:
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
        except FileNotFoundError:
            summary = {}
        first = summary.get("first_compute")
        if summary and os.path.abspath(summary["package"]) != os.path.abspath(self.package):
            raise SystemExit(f"error: the CLI imported {summary['package']}, not {self.package}")
        if proc.returncode not in (0, 1):
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                sys.stdout.write(f"  {argv[0]} exited {proc.returncode}: {fh.read()[-2000:]}\n")
        return Result(
            proc.returncode,
            t1 - t0,
            None if first is None else first - t0,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            report,
            summary_path,
        )


def _check(inv: Invocation, res: Result) -> str | None:
    try:
        return inv.check(res.code, res.report)
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return f"unreadable report: {exc!r}"


class Pass:
    """One round of the workload's invocations."""

    def __init__(self) -> None:
        self.results: list[Result] = []
        self.digests: list[str] = []
        self.errors: list[str] = []

    def e2e(self) -> dict[str, float]:
        return {
            "wall_s": sum(r.wall_s for r in self.results),
            "cpu_s": sum(r.cpu_s for r in self.results),
            "peak_rss_mb": max(r.rss_mb for r in self.results),
        }


def run_pass(runner: Runner, invocations: list[Invocation], side_error: str | None,
             tally: Tally | None = None) -> Pass:
    """Run each invocation once; with a tally, traced, adding to the tally."""
    done = Pass()
    for inv in invocations:
        res = runner.invoke(inv.argv, "run" if tally is None else "trace")
        error = side_error or _check(inv, res)
        if error is None and tally is not None:
            tally.add_invocation(res.summary_path, len(res.report), inv.jobs)
        done.results.append(res)
        done.digests.append(hashlib.sha256(res.report).hexdigest())
        if error is not None:
            done.errors.append(f"{inv.label}: {error}")
    return done


def _percentile_note(values: list[float]) -> str:
    # the highest percentile that still has at least ten samples above it
    n = len(values)
    if n < 11:
        return f"n={n}; too few samples for a tail percentile"
    pct = int(100 * (n - 10) / n)
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"n={n}; p{pct} {cut:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hoeffding", "cli.py")):
        print("error: run from the root of a hoeffding checkout (src/hoeffding missing)",
              file=sys.stderr)
        return 2
    code = 0
    work = os.path.join(BENCH_DIR, ".work")
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        workdir = os.path.join(work, f"{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            code = max(code, _run(args, name, Runner(root, workdir)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(work)
    except OSError:  # another run still uses it
        pass
    return code


def _run(args: argparse.Namespace, name: str, runner: Runner) -> int:
    workload = build(name, args.seed, os.path.relpath(runner.workdir, runner.root))
    print(f"workload {workload.name}, seed {args.seed}")
    for inv in workload.invocations:
        print(f"  hoeffding {' '.join(inv.argv)}")

    # Untimed: compile bytecode and fault in the interpreter before timing.
    runner.invoke(["--help"])
    side_error = None
    for argv, expected in workload.side_checks:
        res = runner.invoke(argv)
        if res.code != expected:
            side_error = f"untimed `{' '.join(argv[:1])}` exited {res.code}, expected {expected}"

    passes: list[Pass] = []
    setups: list[list[float]] = [[] for _ in workload.invocations]
    setup_errors: list[str] = []
    started = clock()
    while len(passes) < MIN_PASSES or clock() - started < args.seconds:
        done = run_pass(runner, workload.invocations, side_error)
        passes.append(done)
        for inv, res, samples in zip(workload.invocations, done.results, setups):
            runs = [res] + [runner.invoke(inv.argv, "setup") for _ in range(SETUP_SAMPLES_PER_PASS)]
            for run in runs:
                if run.setup_s is None:
                    setup_errors.append(f"{inv.label}: a run reached no compute call")
                else:
                    samples.append(run.setup_s)

    attempted = sum(len(p.results) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    errors = [e for p in passes for e in p.errors] + setup_errors[:1]
    digests = {tuple(p.digests) for p in passes}
    if len(digests) != 1:
        errors.append("reports differ between passes of one input")
    samples = {name: [p.e2e()[name] for p in passes] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    # the k-th set-up samples of the invocations, summed like wall_s
    samples["setup_s"] = [sum(ks) for ks in zip(*setups)] or [0.0]
    e2e = {name: statistics.median(samples[name]) for name, _ in END_TO_END}

    for name, unit in END_TO_END:
        print(f"  {name:<12} {e2e[name]:.6f} {unit:<4} median; {_percentile_note(samples[name])}")
    print("  wall_s by pass: " + " ".join(f"{v:.3f}" for v in samples["wall_s"]))
    print(f"  {'error_rate':<12} {failed / attempted:.6f} fraction ({failed}/{attempted} invocations)")
    for i, inv in enumerate(workload.invocations):
        wall = statistics.median(p.results[i].wall_s for p in passes)
        print(f"  {inv.label}: median wall {wall:.4f} s, report sha256 {passes[0].digests[i]}")

    if args.trace:
        metrics, trace_errors = _traced(runner, workload, side_error, e2e["wall_s"])
        errors += trace_errors
        units = dict(PER_LAYER)
    else:
        metrics, units = e2e, dict(END_TO_END)
    for error in errors[:20]:
        print(f"  FAILED {error}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def _traced(runner: Runner, workload, side_error: str | None, untraced_wall: float):
    tallies, walls, errors = [], [], []
    for _ in range(2):
        tally = Tally()
        done = run_pass(runner, workload.invocations, side_error, tally)
        errors += [f"traced {e}" for e in done.errors]
        tallies.append(tally)
        walls.append(done.e2e()["wall_s"])
    first = tallies[0].metrics(walls[0] / untraced_wall)
    second = tallies[1].metrics(walls[1] / untraced_wall)
    for name in DETERMINISTIC:
        if first[name] != second[name]:
            errors.append(f"counter {name} differs between traced runs: {first[name]} vs {second[name]}")
    print(f"  traced: {tallies[0].spans} spans, wall {walls[0]:.3f} s and {walls[1]:.3f} s")
    print("  self time by module (s): " + ", ".join(
        f"{m} {v:.3f}" for m, v in sorted(tallies[0].module_self().items(), key=lambda kv: -kv[1])))
    for label, value, calls in tallies[0].top_self(8):
        print(f"    {label:<52} {value:8.3f} s  {calls:>9} calls")
    for name, unit in PER_LAYER:
        print(f"  {name:<44} {first[name]:.6g} {unit}")
    return first, errors


if __name__ == "__main__":
    sys.exit(main())
