#!/usr/bin/env python3
"""Check that the harness and BENCHMARK.json agree, by running the harness.

    python3 perfbench/selfcheck.py

Runs every workload briefly (one pass) with tracing off and on, and fails
unless the metric names each run emits are exactly those BENCHMARK.json
lists, with its units, and every run reports no failed invocation. Also
checks that the workload names match; that names, units, bounds and
reasons in BENCHMARK.json keep to their limits; that an unknown workload
is refused; that the harness exits non-zero with no result in a directory
holding only the benchmark's own files; and that predictions.json names
only declared metrics and workloads. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_BOUND = 0.25


def _harness(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    problems: list[str] = []
    declared_workloads = [w["name"] for w in spec["workloads"]]
    if sorted(declared_workloads) != sorted(workloads.WORKLOADS):
        problems.append(f"workloads {declared_workloads} != harness {list(workloads.WORKLOADS)}")
    metrics = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    for name in [*declared_workloads, *metrics["end_to_end"], *metrics["per_layer"]]:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    problems.extend(
        f"bad unit {unit!r}" for kind in metrics.values() for unit in kind.values() if not UNIT.fullmatch(unit)
    )
    problems.extend(
        f"workload {w['name']}: why must be one line of at most 200 characters"
        for w in spec["workloads"]
        if len(w["why"]) > 200 or "\n" in w["why"]
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems.extend(
        f"bound of {name} outside (0, {MAX_BOUND}]" for name, b in bounds.items() if not 0 < b <= MAX_BOUND
    )
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must be declared with the largest bound")

    predicted = set()
    for row in predictions["predictions"]:
        predicted.update(row["layer_metrics"])
        for kind, known in (
            ("layer_metrics", metrics["per_layer"]),
            ("end_to_end", metrics["end_to_end"]),
            ("workloads", declared_workloads),
        ):
            problems.extend(f"predictions.json: unknown {kind} {n!r}" for n in row[kind] if n not in known)
    problems.extend(f"no prediction for {n!r}" for n in metrics["per_layer"] if n not in predicted)

    for workload in declared_workloads:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _harness(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != metrics[kind]:
                problems.append(f"{label}: emitted {emitted} != BENCHMARK.json {metrics[kind]}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            print(f"ok {label}: {result['attempted']} invocations", flush=True)

    proc = _harness(ROOT, "--workload", "no-such-workload", "--seed", "1", "--seconds", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("an unknown workload was not refused")

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _harness(bare, "--workload", declared_workloads[0], "--seed", "1", "--seconds", "1")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the harness printed a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
