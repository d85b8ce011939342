"""In-process traced replay of a workload, for the per-layer metrics.

The replay runs a workload's command lines through `belltest.cli.main` in
this process. While tracing, every public function of the layer modules is
wrapped at each name a caller looks it up by, so nothing under `src/` is
edited. Each call records a span (name, start, end, parent, invocation id);
spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the part of it that child spans cover.

Import this module only after `src/` is on sys.path.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import io
import itertools
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import belltest
from belltest import cli, montecarlo, qm
from belltest.inequalities import quad_from_differences

from workloads import Command, Ledger

LAYERS = ("cli", "lhv", "qm", "inequalities", "montecarlo", "optimizer")

UNWRAPPED = frozenset({"montecarlo.derive_seed"})
"""A seed hash called twice per chunk: tracing it would double the span count
of the sampling loop without marking a layer boundary."""

BOOTSTRAP_PAIRS = 10_000_000
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_REPEATS = 5

KEPT_PASSES = 2
"""Traced passes whose spans are kept for the spans file. Later passes only
feed the medians, which keeps memory flat however many passes fit."""


def _run_experiment_note(args: tuple, kwargs: dict, result: Any) -> int:
    return kwargs.get("workers", args[1] if len(args) > 1 else 1)


def _grid_scan_note(args: tuple, kwargs: dict, result: Any) -> tuple[int, int | None]:
    step = kwargs.get("step_deg", args[2] if len(args) > 2 else 1.0)
    points = np.arange(0.0, 180.0, float(step)).size ** 3
    return points, None if result.surface is None else len(result.surface)


NOTES: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "montecarlo.run_experiment": _run_experiment_note,
    "optimizer.grid_scan": _grid_scan_note,
}
"""Per-function extras stored on a span: worker count, grid and surface sizes."""


class Span(NamedTuple):
    id: int
    parent: int | None
    invocation: int
    name: str
    start: float
    end: float
    ok: bool
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the layer functions while installed and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.invocation = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            thread = threading.get_ident()
            stack = self._stacks.get(thread)
            if stack is None:
                stack = self._stacks[thread] = []
            if stack:
                parent = stack[-1]
            else:
                # A pool thread's call belongs to the span its submitter is in.
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            span_id = next(self._ids)
            stack.append(span_id)
            ok, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = note(args, kwargs, result) if note is not None and ok else None
                self.spans.append(Span(span_id, parent, self.invocation, name, start, end, ok, extra))

        return traced

    @contextlib.contextmanager
    def installed(self):
        package = [m for n, m in sys.modules.items() if n == "belltest" or n.startswith("belltest.")]
        try:
            for layer in LAYERS:
                module = getattr(belltest, layer)
                for attr, fn in list(vars(module).items()):
                    name = f"{layer}.{attr}"
                    if (
                        attr.startswith("_")
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or name in UNWRAPPED
                    ):
                        continue
                    traced = self._wrap(name, fn)
                    for target in package:
                        for bound, value in list(vars(target).items()):
                            if value is fn:
                                self._patches.append((target, bound, fn))
                                setattr(target, bound, traced)
            yield self
        finally:
            while self._patches:
                target, bound, fn = self._patches.pop()
                setattr(target, bound, fn)


@dataclass
class Replay:
    wall_s: float
    stdout_bytes: int
    file_bytes: int


def replay(commands: list[Command], scratch: Path, ledger: Ledger, tracer: Tracer | None) -> Replay:
    """Run each command line once through cli.main; judge every output."""
    wall = 0.0
    stdout_bytes = file_bytes = 0
    home = os.getcwd()
    os.chdir(scratch)
    try:
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.invocation += 1
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = cli.main(list(command.argv))
                wall += time.perf_counter() - start
            stdout = out.getvalue().encode("utf-8")
            stdout_bytes += len(stdout)
            file_bytes += sum(
                (scratch / name).stat().st_size for name in command.outputs if (scratch / name).exists()
            )
            ledger.judge(command, code, stdout, scratch)
    finally:
        os.chdir(home)
    return Replay(wall, stdout_bytes, file_bytes)


def _bootstrap_inputs(seed: int) -> tuple[montecarlo.CoincidenceCounters, montecarlo.CoincidenceCounters]:
    plan = montecarlo.RunPlan(
        quad=quad_from_differences(120.0, 120.0, 120.0, 0.0),
        pairs_per_setting=BOOTSTRAP_PAIRS,
        seed=seed,
        source=qm.RealSource(qm.CascadeGeometry(eta=0.2, phi_deg=30.0)),
    )
    counters = montecarlo.run_experiment(plan)
    cross = montecarlo.merge_counters(counters["ab"], counters["bpa"], counters["bap"])
    return cross, counters["apbp"]


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    covered, reach = 0.0, span.start
    for start, end in sorted((c.start, c.end) for c in children):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_metrics(spans: list[Span], run: Replay) -> dict[str, float]:
    """Per-layer counts and times of one traced replay."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)
    names = {span.id: span.name for span in spans}

    def total(name: str) -> float:
        return math.fsum(span.duration for span in by_name[name])

    def self_time(prefix: str) -> float:
        return math.fsum(
            span.duration - _covered(span, children[span.id])
            for span in spans
            if span.name.startswith(prefix)
        )

    def under(name: str, parent: str) -> list[Span]:
        return [span for span in by_name[name] if names.get(span.parent) == parent]

    grid = refine = surface_build = 0.0
    grid_points = surface_rows = 0
    for scan in by_name["optimizer.grid_scan"]:
        # grid_scan scores its coarse optimum with objective() first, so the
        # first objective call ends the vectorized grid (and surface) phase.
        split = min(
            (c.start for c in children[scan.id] if c.name == "optimizer.objective"),
            default=scan.end,
        )
        grid += split - scan.start
        refine += scan.end - split
        points, rows = scan.note
        grid_points += points
        if rows is not None:
            surface_rows += rows
            surface_build += split - scan.start

    experiments = by_name["montecarlo.run_experiment"]
    return {
        "cli.self_s": self_time("cli."),
        "cli.stdout_bytes": run.stdout_bytes,
        "cli.file_bytes": run.file_bytes,
        "lhv.verify_theorem_s": total("lhv.verify_theorem"),
        "lhv.assignments": len(under("lhv.bell_functional", "lhv.verify_theorem")),
        "lhv.load_model_s": total("lhv.load_model"),
        "lhv.pair_probabilities_s": total("lhv.pair_probabilities"),
        "qm.detection_rates_calls": len(by_name["qm.detection_rates"]),
        "qm.detection_rates_s": total("qm.detection_rates"),
        "qm.event_distribution_s": total("qm.event_distribution"),
        "inequalities.calls": sum(len(v) for k, v in by_name.items() if k.startswith("inequalities.")),
        "inequalities.self_s": self_time("inequalities."),
        "montecarlo.chunks": len(by_name["montecarlo.sample_chunk"]),
        "montecarlo.sample_chunk_self_s": self_time("montecarlo.sample_chunk"),
        "montecarlo.sample_pair_events_self_s": self_time("montecarlo.sample_pair_events"),
        "montecarlo.run_experiment_s.w1": math.fsum(s.duration for s in experiments if s.note == 1),
        "montecarlo.run_experiment_s.w2": math.fsum(s.duration for s in experiments if s.note == 2),
        "montecarlo.distribution_for_s": total("montecarlo.distribution_for"),
        "montecarlo.estimate_s": math.fsum(
            s.duration for s in under("montecarlo.evaluate_symmetric_detection", "cli.main")
        ),
        "montecarlo.counters_csv_s": total("montecarlo.counters_csv"),
        "montecarlo.manifest_s": total("montecarlo.run_manifest"),
        "optimizer.grid_points": grid_points,
        "optimizer.grid_phase_s": grid,
        "optimizer.refine_phase_s": refine,
        "optimizer.objective_calls": len(by_name["optimizer.objective"]),
        "optimizer.objective_s": total("optimizer.objective"),
        "optimizer.surface_rows": surface_rows,
        "optimizer.surface_build_s": surface_build,
    }


def bootstrap_metrics(tracer: Tracer, seed: int) -> dict[str, float]:
    """The 1000-resample bootstrap as a library-only probe: no command line
    reaches it. Successful resamples are those whose estimate did not raise."""
    cross, primed = _bootstrap_inputs(seed)
    seconds, useful = [], []
    for _ in range(BOOTSTRAP_REPEATS):
        first = len(tracer.spans)
        tracer.invocation += 1
        with tracer.installed():
            montecarlo.bootstrap_std_error(cross, primed, resamples=BOOTSTRAP_RESAMPLES, seed=seed)
        probe = tracer.spans[first:]
        seconds.append(math.fsum(s.duration for s in probe if s.name == "montecarlo.bootstrap_std_error"))
        resamples = [s for s in probe if s.name == "montecarlo.evaluate_symmetric_detection"]
        useful.append(sum(s.ok for s in resamples) / len(resamples))
    return {
        "montecarlo.bootstrap_s": statistics.median(seconds),
        "montecarlo.bootstrap_useful_ratio": statistics.median(useful),
    }


def measure(
    commands: list[Command], seconds: float, scratch: Path, ledger: Ledger, seed: int
) -> tuple[dict[str, float], Tracer, dict[str, Any]]:
    """Alternate untraced and traced replays for `seconds`; median per metric."""
    tracer = Tracer()
    untraced: list[float] = []
    per_pass: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    # A pair of replays can take half a minute; start one only if it fits.
    while not per_pass or time.perf_counter() + pair_s < deadline:
        pair_start = time.perf_counter()
        untraced.append(replay(commands, scratch, ledger, None).wall_s)
        first = len(tracer.spans)
        with tracer.installed():
            run = replay(commands, scratch, ledger, tracer)
        metrics = layer_metrics(tracer.spans[first:], run)
        metrics["trace_overhead_s"] = run.wall_s - untraced[-1]
        per_pass.append(metrics)
        if len(per_pass) > KEPT_PASSES:
            del tracer.spans[first:]
        pair_s = time.perf_counter() - pair_start
    medians = {
        name: (statistics.median_low if isinstance(value, int) else statistics.median)(
            p[name] for p in per_pass
        )
        for name, value in per_pass[0].items()
    }
    medians.update(bootstrap_metrics(tracer, seed))
    record = {"passes": len(per_pass), "untraced_pass_s": untraced, "per_pass": per_pass}
    return medians, tracer, record


def write_spans(tracer: Tracer, path: Path) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write("id,parent,invocation,name,start,end,ok\n")
        for s in tracer.spans:
            parent = "" if s.parent is None else s.parent
            handle.write(f"{s.id},{parent},{s.invocation},{s.name},{s.start!r},{s.end!r},{int(s.ok)}\n")
