#!/usr/bin/env python3
"""Benchmark harness for the belltest command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the `src/` tree there.

With --trace 0 it runs the workload as a closed loop with one client: it
starts `python -m belltest ...` one child at a time and cycles through the
workload's command list until S seconds have gone by. Every child
gets PYTHONPATH=src, no BELLTEST_SEED and an explicit --seed, and runs in a
scratch directory inside the checkout that is removed at the end. It reports
the end-to-end metrics of BENCHMARK.json.

With --trace 1 it replays the same command list in process through
`belltest.cli.main` with tracing on (see tracing.py) and reports the
per-layer metrics, together with the start-up stages measured in fresh
interpreters.

Each invocation's outputs are checked; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Details (run
context, every sample, SHA-256 of every output, the spans) go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SCRATCH = ROOT / ".perfbench_tmp"

SETUP_SAMPLES = 7
"""Fresh interpreters timed per start-up stage; the median is reported."""

SETUP_EVERY_S = 2.0
"""While commands run, time one fresh `import belltest` this often, so that
set-up samples span the run as the command samples do."""

IMPORT = "import belltest"

CHILD_TIMEOUT_S = 150.0


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("BELLTEST_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[float, int, float, bytes, bytes]:
    """Run one child to completion: wall seconds, exit code, max RSS in MB,
    stdout, stderr. RSS comes from os.wait4 on this child alone."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes()


def _timed_python(code: str, cwd: Path, env: dict[str, str]) -> float:
    wall, rc, _, _, err = spawn([sys.executable, "-c", code], cwd, env)
    if rc != 0:
        raise RuntimeError(f"python -c {code!r} exited {rc}: {err.decode(errors='replace')}")
    return wall


def startup_stages(cwd: Path, env: dict[str, str], full: bool) -> dict[str, list[float]]:
    """Fresh-interpreter wall times, interleaved so the stages share noise."""
    stages: dict[str, list[float]] = {"pass": [], "import numpy": [], IMPORT: []} if full else {IMPORT: []}
    for code in stages:  # untimed: fills __pycache__ and the file cache
        _timed_python(code, cwd, env)
    for _ in range(SETUP_SAMPLES if full else 0):
        for code, samples in stages.items():
            samples.append(_timed_python(code, cwd, env))
    return stages


def numpy_loaded_by_eval(cwd: Path, env: dict[str, str]) -> int:
    argv = [sys.executable, "-X", "importtime", "-m", "belltest", "eval", "--ineq", "ternary"]
    _, rc, _, _, err = spawn(argv, cwd, env)
    if rc != 0:
        raise RuntimeError(f"eval exited {rc}: {err.decode(errors='replace')}")
    modules = {line.rsplit("|", 1)[-1].strip() for line in err.decode().splitlines()}
    return int("numpy" in modules)


def measure_cli(
    commands, seconds: float, cwd: Path, env: dict[str, str], ledger, setup: list[float]
) -> tuple[dict, dict]:
    """Passes over the command list, one child at a time, until the deadline
    (at least one whole pass); appends set-up samples taken between commands
    to `setup`."""
    samples: list[list[float]] = [[] for _ in commands]
    peak_rss = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while time.perf_counter() < deadline or passes == 0:
        for command, times in zip(commands, samples):
            if passes and time.perf_counter() >= deadline:
                break
            if time.perf_counter() >= start + len(setup) * SETUP_EVERY_S:
                setup.append(_timed_python(IMPORT, cwd, env))
            wall, rc, rss, stdout, _ = spawn([sys.executable, "-m", "belltest", *command.argv], cwd, env)
            times.append(wall)
            peak_rss = max(peak_rss, rss)
            ledger.judge(command, rc, stdout, cwd)
        passes += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(_timed_python(IMPORT, cwd, env))
    # Every time is a mean over the whole run, not a median of samples: on a
    # shared host whose speed flips between two levels every second or so, a
    # median jumps between the levels where a mean moves with their mix.
    # wall_s is the time one pass over the list takes, from each command's
    # mean. The typical invocation is the geometric mean over commands of
    # those means: a median over commands of unequal length would rest on
    # the one or two commands in the middle, and a mix of sizes leaves the
    # noisiest ones (two-thread mc, the largest surface) there.
    means = [statistics.fmean(times) for times in samples]
    work: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    for command, times in zip(commands, samples):
        work[command.unit] += command.work * len(times)
        busy[command.unit] += math.fsum(times)
    metrics = {
        "wall_s": math.fsum(means),
        "cmd_geomean_s": statistics.geometric_mean(means),
        "peak_rss_mb": peak_rss,
    }
    record = {
        "passes": passes,
        "cmd_samples": sum(len(times) for times in samples),
        "per_s": {f"{unit}_per_s": work[unit] / busy[unit] for unit in work},
        "samples_s": {" ".join(c.argv): times for c, times in zip(commands, samples)},
    }
    return metrics, record


def _context(tracing: bool, workers: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "max_workers": workers,
        "cpu": cpu,
        "tracing": tracing,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "belltest" / "__init__.py").is_file():
        print(f"error: no belltest package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workers = min(2, len(os.sched_getaffinity(0)))
    env = _child_env()
    ledger = workloads.Ledger()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        commands = workloads.build(args.workload, args.seed, scratch, workers)
        stages = startup_stages(scratch, env, full=bool(args.trace))
        if args.trace:
            metrics, tracer, record = tracing.measure(commands, args.seconds, scratch, ledger, args.seed)
            interp = statistics.median(stages["pass"])
            numpy_s = statistics.median(stages["import numpy"])
            metrics.update({
                "startup.interp_s": interp,
                "startup.import_numpy_s": numpy_s - interp,
                "startup.import_belltest_s": statistics.median(stages[IMPORT]) - numpy_s,
                "startup.numpy_loaded_by_eval": numpy_loaded_by_eval(scratch, env),
            })
        else:
            metrics, record = measure_cli(commands, args.seconds, scratch, env, ledger, stages[IMPORT])
            metrics["setup_s"] = statistics.median(stages[IMPORT])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(declared):
        print(f"error: emitted metrics {sorted(set(metrics) ^ set(declared))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 3

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        context=_context(bool(args.trace), workers),
        startup_samples_s=stages,
        metrics=metrics,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=ledger.reasons,
        sha256=ledger.digests,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracing.write_spans(tracer, OUT / f"{stem}-spans.csv.gz")

    for reason in ledger.reasons[:10]:
        print(f"FAIL {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {record['passes']} passes, "
          f"{ledger.attempted} invocations, {len(stages[IMPORT])} set-up samples, "
          f"fail_ratio {ledger.failed}/{ledger.attempted}")
    for name, rate in record.get("per_s", {}).items():
        print(f"  {name:40s} {rate:.6g} 1/s")
    for name in declared:
        print(f"  {name:40s} {metrics[name]:.6g} {declared[name]}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
