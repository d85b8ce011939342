"""The library names the benchmark harness reads must keep working.

Replays the cli-startup workload, plus one scan with and one without a
surface file, and one mc command shaped like the mc-scan workload's, through
perfbench's traced in-process replay, and runs its traced bootstrap probe,
so that removing or renaming what perfbench/workloads.py or perfbench/tracing.py
calls fails here as well as in the benchmark.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import workloads  # noqa: E402

from belltest import montecarlo, qm  # noqa: E402
from belltest.inequalities import quad_from_differences  # noqa: E402


def _check_scan(stdout: bytes, files: dict[str, bytes]) -> str | None:
    best = json.loads(stdout)["best_lhs"]
    return None if abs(best - (-1.5)) <= workloads.OPTIMUM_TOL else f"best_lhs {best}"


def _check_surface_scan(stdout: bytes, files: dict[str, bytes]) -> str | None:
    data = files["s.csv"]
    if not data.startswith(workloads.SURFACE_HEADER):
        return "s.csv lacks the surface header"
    rows = data.count(b"\n") - 1
    return _check_scan(stdout, files) if rows == 12**3 else f"s.csv has {rows} rows"


def test_traced_replay_of_cli_startup_and_a_scan_has_no_failure(tmp_path):
    commands = workloads.build("cli-startup", 1, tmp_path, workers=1)
    commands.append(workloads.Command(("scan", "--step", "15", "--rounds", "0"), _check_scan))
    commands.append(workloads.Command(
        ("scan", "--step", "15", "--rounds", "0", "--surface", "s.csv"),
        _check_surface_scan, outputs=("s.csv",),
    ))
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
    assert any(span.name == "optimizer.write_surface" and span.ok for span in tracer.spans)


def test_traced_replay_of_an_mc_command_matches_the_library(tmp_path):
    # As in workloads._mc_sampling: the command's files and lhs must match an
    # in-process run. phi_deg is a float, as --phi parses it, so the manifest
    # echoes 25.0 in both.
    plan = montecarlo.RunPlan(
        quad=quad_from_differences(30.0, 30.0, 30.0, 90.0),
        pairs_per_setting=3_000_000,
        seed=11,
        source=qm.RealSource(qm.CascadeGeometry(eta=0.4, phi_deg=25.0)),
    )
    counters = montecarlo.run_experiment(plan)
    want_counters = montecarlo.counters_csv(counters).encode("utf-8")
    want_manifest = montecarlo.run_manifest(plan, counters).encode("utf-8")
    cross = montecarlo.merge_counters(counters["ab"], counters["bpa"], counters["bap"])
    want_lhs = montecarlo.evaluate_symmetric_detection(cross, counters["apbp"]).report.lhs

    def check(stdout: bytes, files: dict[str, bytes]) -> str | None:
        if files["c.csv"] != want_counters:
            return "counters CSV differs from in-process run_experiment"
        if files["m.txt"] != want_manifest:
            return "manifest differs from in-process run_manifest"
        return None if json.loads(stdout)["lhs"] == want_lhs else "lhs differs"

    argv = ("mc", "--pairs", "3000000", "--seed", "11", "--source", "qm-real",
            "--diffs", "30,30,30,90", "--eta", "0.4", "--phi", "25", "--workers", "2",
            "--counters", "c.csv", "--manifest", "m.txt")
    command = workloads.Command(argv, check, outputs=("c.csv", "m.txt"))
    ledger = workloads.Ledger()
    tracer = tracing.Tracer()
    with tracer.installed():
        tracing.replay([command], tmp_path, ledger, tracer)
    assert ledger.failed == 0, ledger.reasons
    names = {span.name: span for span in tracer.spans}
    assert names["montecarlo.run_experiment"].note == 2
    assert "montecarlo.evaluate_symmetric_detection" in names


def test_bootstrap_probe_reads_its_resamples():
    # tracing.bootstrap_metrics divides by the estimator spans under each
    # bootstrap, so a bootstrap that stopped calling the estimator fails here
    # with ZeroDivisionError, not only in the benchmark's traced run.
    metrics = tracing.bootstrap_metrics(tracing.Tracer(), 1)
    assert 0.0 < metrics["montecarlo.bootstrap_useful_ratio"] <= 1.0
    assert metrics["montecarlo.bootstrap_s"] > 0.0
