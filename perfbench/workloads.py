"""Seeded command lists for the benchmark workloads, with their output checks.

A workload is a fixed list of `belltest` command lines. The seed picks only
the inputs (angles, detector geometry, Monte Carlo seeds and the lhv model
file); the amount of work in the list does not depend on it. Each command
carries a check of its outputs against values computed in process with the
library, so a wrong answer counts as a failed invocation.

Import this module only after `src/` is on sys.path.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from belltest import lhv, montecarlo, qm
from belltest.core import SinglesProbabilities, cos_double_angle
from belltest.inequalities import (
    SettingsQuad,
    bell_1965,
    chsh,
    detection_inequality,
    detection_inequality_symmetric,
    quad_from_differences,
    ternary_inequality,
    ternary_inequality_symmetric,
)

WORKLOADS = ("cli-startup", "mc-scan")

MODEL_FILE = "model.txt"
MC_PAIRS = 4_000_000_000
"""Emissions per setting pair: about 3815 chunks per pair, 15k per command."""

LHS_TOL = 1e-12
OPTIMUM_TOL = 1e-9

SURFACE_HEADER = b"a,b,a_prime,b_prime,lhs\n"

# stdout, {output file name: bytes} -> failure reason, or None when correct
Check = Callable[[bytes, dict[str, bytes]], "str | None"]


@dataclass(frozen=True)
class Command:
    """One `belltest` invocation, the files it writes and how to judge them."""

    argv: tuple[str, ...]
    check: Check
    outputs: tuple[str, ...] = ()
    work: int = 1
    """Units of work done, counted in `unit`."""
    unit: str = "commands"
    """What `work` counts: commands, emissions, grid_points or surface_rows."""


class Ledger:
    """Judges each invocation; counts attempts and failures.

    Keeps the SHA-256 of every stdout and output file, keyed by command line,
    so that byte identity can be compared across runs and commits. A repeat
    of a command whose outputs differ from its first run fails.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, dict[str, str]] = {}
        self.reasons: list[str] = []

    def judge(self, command: Command, code: int, stdout: bytes, scratch: Path) -> None:
        """Record one invocation; reads and then deletes its output files."""
        self.attempted += 1
        files = {}
        for name in command.outputs:
            path = scratch / name
            if path.exists():
                files[name] = path.read_bytes()
                path.unlink()
        digests = {"stdout": hashlib.sha256(stdout).hexdigest()}
        digests.update((name, hashlib.sha256(data).hexdigest()) for name, data in files.items())
        key = " ".join(command.argv)
        first = self.digests.setdefault(key, digests)

        missing = [name for name in command.outputs if name not in files]
        if code != 0:
            reason = f"exit code {code}"
        elif missing:
            reason = f"missing output {missing[0]}"
        else:
            try:
                reason = command.check(stdout, files)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is None and digests != first:
            reason = "outputs differ from an earlier run of the same command"
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{key}: {reason}")


def build(workload: str, seed: int, scratch: Path, workers: int) -> list[Command]:
    """The workload's command list for this seed; writes the lhv model file.

    workers is the largest --workers value any command may use.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-startup":
        return _cli_startup(rng)
    if workload == "mc-scan":
        (scratch / MODEL_FILE).write_text(_model_text(rng), encoding="utf-8")
        return [
            *_mc_sampling(rng, scratch, workers),
            *_scans(rng, (("ternary", "0.5"), ("detection", "0.5"),
                          ("ternary", "0.25"), ("detection", "0.25")), rounds=6, surface=False),
            *_scans(rng, (("ternary", "3"), ("detection", "2")), rounds=0, surface=True),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _num(value: float) -> str:
    return f"{value:.3f}"


def _angles(rng: random.Random) -> tuple[str, ...]:
    return tuple(_num(rng.uniform(0.0, 180.0)) for _ in range(4))


def _symmetric_diffs(rng: random.Random) -> tuple[str, ...]:
    # quad_from_differences realizes d,d,d,d4 exactly when d4 is d or 3d.
    d = float(_num(rng.uniform(5.0, 85.0)))
    d4 = d if rng.random() < 0.5 else 3.0 * d
    return (_num(d),) * 3 + (_num(d4),)


def _geometry(rng: random.Random, force_f: bool | None = None) -> tuple[str, ...]:
    flags = ("--eta", _num(rng.uniform(0.1, 1.0)), "--phi", _num(rng.uniform(10.0, 90.0)))
    if force_f is None:
        force_f = rng.random() < 0.5
    return flags + ("--force-F", "1") if force_f else flags


def _geometry_of(argv: tuple[str, ...]) -> qm.CascadeGeometry:
    def value(flag: str) -> float | None:
        return float(argv[argv.index(flag) + 1]) if flag in argv else None

    return qm.CascadeGeometry(eta=value("--eta"), phi_deg=value("--phi"), f_override=value("--force-F"))


def _model_text(rng: random.Random) -> str:
    """An lhv model file: 81 positive weights over keys in (+, 0, -) order."""
    raw = [rng.uniform(0.05, 1.0) for _ in range(81)]
    total = math.fsum(raw)
    keys = ("".join(key) for key in itertools.product("+0-", repeat=4))
    return "".join(f"{key} {weight / total!r}\n" for key, weight in zip(keys, raw))


def _parse_report(stdout: bytes) -> dict:
    text = stdout.decode("utf-8")
    if text.lstrip().startswith("{"):
        return json.loads(text)
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return {key: float(value) if key.endswith("lhs") else value for key, value in rows[0].items()}


def _close(name: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{name} {got!r} differs from the library value {want!r}"


# ---------------------------------------------------------------------------
# cli-startup: verify-theorem and every eval form, JSON and CSV
# ---------------------------------------------------------------------------

_HALF = SinglesProbabilities(p_plus=0.5, p_zero=0.0, p_minus=0.5)
_SYMMETRIC_FORMS = ("ternary-sym", "detection-sym")
_REAL_FORMS = ("detection", "detection-sym")


def _check_verify(stdout: bytes, files: dict[str, bytes]) -> str | None:
    value = json.loads(stdout)["min_functional_value"]
    return None if value == -1 else f"min_functional_value is {value!r}, expected -1"


def _eval_lhs(ineq: str, quad: SettingsQuad, geom: qm.CascadeGeometry | None) -> float:
    """The closed-form lhs, computed directly from the library functions."""
    a, b, ap, bp = quad.axes_degrees()
    c1, c2, c3 = cos_double_angle(a - b), cos_double_angle(bp - a), cos_double_angle(b - ap)
    if ineq == "ternary":
        report = ternary_inequality(c1, c2, c3, qm.ideal_pair_probabilities(ap - bp), _HALF, _HALF)
    elif ineq == "ternary-sym":
        pair = qm.ideal_pair_probabilities(ap - bp)
        report = ternary_inequality_symmetric(c1, pair.pp, pair.mm, (0.5, 0.5, 0.5, 0.5))
    elif ineq == "bell65":
        report = bell_1965(c1, c2, c3)
    elif ineq == "chsh":
        report = chsh(c1, c2, c3, cos_double_angle(ap - bp))
    elif ineq == "detection":
        single = geom.single_rate
        report = detection_inequality(
            rates_ab=qm.detection_rates(a, b, geom),
            rates_bpa=qm.detection_rates(a, bp, geom),
            rates_bap=qm.detection_rates(ap, b, geom),
            rates_apbp=qm.detection_rates(ap, bp, geom),
            singles_ap=(single, single),
            singles_bp=(single, single),
        )
    else:
        cross = qm.detection_rates(a, b, geom)
        primed = qm.detection_rates(ap, bp, geom)
        single = geom.single_rate
        report = detection_inequality_symmetric(
            e_cross=cross.d_pp - cross.d_pm - cross.d_mp + cross.d_mm,
            total_cross=math.fsum(cross.doubles()),
            d_pp_primed=primed.d_pp,
            d_mm_primed=primed.d_mm,
            total_primed=math.fsum(primed.doubles()),
            d_plus_primed=single,
            d_minus_primed=single,
            singles_total_primed=2.0 * single,
        )
    return report.lhs


def _cli_startup(rng: random.Random) -> list[Command]:
    commands = [Command(("verify-theorem",), _check_verify)]
    for ineq in ("ternary", "ternary-sym", "bell65", "chsh", "detection", "detection-sym"):
        for fmt in ("json", "csv"):
            if ineq in _SYMMETRIC_FORMS:
                diffs = _symmetric_diffs(rng)
                angle_flags = ("--diffs", ",".join(diffs))
                quad = quad_from_differences(*map(float, diffs))
            else:
                axes = _angles(rng)
                angle_flags = ("--angles", ",".join(axes))
                quad = SettingsQuad.of(*map(float, axes))
            argv = ("eval", "--ineq", ineq) + angle_flags + ("--format", fmt)
            geom = None
            if ineq in _REAL_FORMS:
                argv += ("--source", "qm-real") + _geometry(rng)
                geom = _geometry_of(argv)
            want = _eval_lhs(ineq, quad, geom)

            def check(stdout: bytes, files: dict[str, bytes], want: float = want) -> str | None:
                return _close("lhs", _parse_report(stdout)["lhs"], want, LHS_TOL)

            commands.append(Command(argv, check))
    return commands


# ---------------------------------------------------------------------------
# mc-scan, first part: four sources at one and at `workers` threads
# ---------------------------------------------------------------------------


def _mc_sampling(rng: random.Random, scratch: Path, workers: int) -> list[Command]:
    model = lhv.load_model(scratch / MODEL_FILE)
    sources = (
        ("qm-real", _geometry(rng, force_f=True)),
        ("qm-real", _geometry(rng, force_f=False)),
        ("qm-ideal", ()),
        ("lhv", ("--model", MODEL_FILE)),
    )
    commands = []
    for index, (name, source_flags) in enumerate(sources):
        diffs = _symmetric_diffs(rng)
        mc_seed = rng.randrange(2**31)
        argv = (
            "mc", "--pairs", str(MC_PAIRS), "--seed", str(mc_seed),
            "--source", name, "--diffs", ",".join(diffs),
        ) + source_flags
        if name == "qm-real":
            source: montecarlo.Source = qm.RealSource(_geometry_of(argv))
        elif name == "qm-ideal":
            source = qm.IdealSource()
        else:
            source = montecarlo.LhvSource(model)
        plan = montecarlo.RunPlan(
            quad=quad_from_differences(*map(float, diffs)),
            pairs_per_setting=MC_PAIRS,
            seed=mc_seed,
            source=source,
        )
        counters = montecarlo.run_experiment(plan)
        want_counters = montecarlo.counters_csv(counters).encode("utf-8")
        want_manifest = montecarlo.run_manifest(plan, counters).encode("utf-8")
        cross = montecarlo.merge_counters(counters["ab"], counters["bpa"], counters["bap"])
        want_lhs = montecarlo.evaluate_symmetric_detection(cross, counters["apbp"]).report.lhs
        for n_workers in sorted({1, workers}):
            stem = f"mc{index}-w{n_workers}"
            outputs = (f"{stem}.counters.csv", f"{stem}.manifest.txt")

            def check(
                stdout: bytes,
                files: dict[str, bytes],
                outputs: tuple[str, str] = outputs,
                want: tuple[bytes, bytes, float] = (want_counters, want_manifest, want_lhs),
            ) -> str | None:
                if files[outputs[0]] != want[0]:
                    return "counters CSV differs from in-process run_experiment"
                if files[outputs[1]] != want[1]:
                    return "manifest differs from in-process run_manifest"
                return _close("lhs", _parse_report(stdout)["lhs"], want[2], LHS_TOL)

            commands.append(
                Command(
                    argv + ("--workers", str(n_workers),
                            "--counters", outputs[0], "--manifest", outputs[1]),
                    check,
                    outputs=outputs,
                    work=len(montecarlo.PAIR_LABELS) * MC_PAIRS,
                    unit="emissions",
                )
            )
    return commands


# ---------------------------------------------------------------------------
# mc-scan, second part: fine scan grids, then coarse surface files
# ---------------------------------------------------------------------------


def _grid_size(step: str) -> int:
    return np.arange(0.0, 180.0, float(step)).size


def _scans(
    rng: random.Random, grid: tuple[tuple[str, str], ...], rounds: int, surface: bool
) -> list[Command]:
    commands = []
    for ineq, step in grid:
        argv = ("scan", "--ineq", ineq, "--step", step, "--rounds", str(rounds))
        if ineq == "ternary":
            argv += ("--source", "qm-ideal")
            want = -1.5
        else:
            argv += ("--source", "qm-real") + _geometry(rng)
            # With b' = a' the detection form is F (c1 + c2 + c3) + 1 - F,
            # and the three-fringe sum has minimum -1.5 at 120-degree steps.
            want = 1.0 - 2.5 * _geometry_of(argv).f_factor
        n = _grid_size(step)
        outputs: tuple[str, ...] = ()
        if surface:
            outputs = (f"surface-{ineq}-{step}.csv",)
            argv += ("--surface", outputs[0])

        def check(
            stdout: bytes,
            files: dict[str, bytes],
            want: float = want,
            outputs: tuple[str, ...] = outputs,
            rows: int = n**3,
        ) -> str | None:
            for name in outputs:
                data = files[name]
                if not data.startswith(SURFACE_HEADER):
                    return f"{name} lacks the surface header"
                found = data.count(b"\n") - 1
                if found != rows:
                    return f"{name} has {found} rows, expected {rows}"
            return _close("best_lhs", _parse_report(stdout)["best_lhs"], want, OPTIMUM_TOL)

        unit = "surface_rows" if surface else "grid_points"
        commands.append(Command(argv, check, outputs=outputs, work=n**3, unit=unit))
    return commands
