"""The library names the benchmark harness reads must keep working.

Replays the cli-startup workload, plus one scan, through perfbench's traced
in-process replay, so that removing or renaming what perfbench/workloads.py
or perfbench/tracing.py calls fails here as well as in the benchmark.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def _check_scan(stdout: bytes, files: dict[str, bytes]) -> str | None:
    best = json.loads(stdout)["best_lhs"]
    return None if abs(best - (-1.5)) <= workloads.OPTIMUM_TOL else f"best_lhs {best}"


def test_traced_replay_of_cli_startup_and_a_scan_has_no_failure(tmp_path):
    commands = workloads.build("cli-startup", 1, tmp_path, workers=1)
    commands.append(workloads.Command(("scan", "--step", "15", "--rounds", "0"), _check_scan))
    ledger = workloads.Ledger()
    tracer = tracing.Tracer()
    # As in tracing.measure, an untraced pass comes first: it loads the
    # lazily imported layers, which the tracer wraps only once loaded.
    tracing.replay(commands, tmp_path, ledger, None)
    with tracer.installed():
        tracing.replay(commands, tmp_path, ledger, tracer)
    assert ledger.attempted == 2 * len(commands)
    assert ledger.failed == 0, ledger.reasons
    assert any(span.name == "optimizer.grid_scan" and span.ok for span in tracer.spans)
