"""Command-line front end: verify-theorem, eval, mc, and scan.

Reports go to stdout as JSON (default) or CSV. Exit codes: 0 success,
1 invalid input, 2 internal-consistency failure (an enumeration that
finds a local-bound violation, which would mean the code is broken).
Every command is deterministic given its argv alone (mc's --seed
defaults to 0). verify-theorem prints lhv's TheoremReport, the one home
of the functional's 81 values.

Each command loads only the layers it runs: this module loads core,
inequalities and qm, all that eval needs, and never numpy; lhv loads
inside verify-theorem and mc --source lhv, montecarlo (which imports
numpy) inside the mc handler, and optimizer inside the scan handler. So
only mc loads numpy, and eval, scan and mc at a qm source skip lhv's
compile from source (2.2 ms, best of 20 on 2 vCPUs,
PYTHONDONTWRITEBYTECODE=1).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import TYPE_CHECKING, Any, Sequence

from . import qm
from .core import BellTestError, ValidationError, require_in_range
from .inequalities import (
    FORMS,
    INEQUALITIES,
    MAX_REFINE_ROUNDS,
    MAX_STEP_DEG,
    MAX_SURFACE_AXIS_POINTS,
    MIN_STEP_DEG,
    MIN_SURFACE_STEP_DEG,
    SettingsQuad,
    form_for,
    quad_from_differences,
    require_symmetric,
)

if TYPE_CHECKING:
    from . import montecarlo

DEFAULT_DIFFS = (120.0, 120.0, 120.0, 0.0)
DEFAULT_ETA = 0.2
DEFAULT_PHI = 30.0


def _fail(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return 1


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors follow the CLI error contract:
    one JSON line on stderr and exit 1 (2 is reserved)."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.exit(_fail(f"{self.prog}: {message}"))


def _print_json(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2))


def _print_report_csv(fields: dict[str, Any]) -> None:
    header = ",".join(fields)
    row = ",".join(
        json.dumps(value) if isinstance(value, bool) else repr(value) if isinstance(value, float) else str(value)
        for value in fields.values()
    )
    print(header)
    print(row)


def _emit(
    args: argparse.Namespace, source: object, fields: dict[str, Any], inputs: dict[str, Any]
) -> None:
    """Print the report of eval, mc or scan: the fields as CSV, or as JSON
    followed by the inputs and, for a qm-real source, its geometry and the
    effective f_factor, the only geometry that moves eval and scan. JSON has
    no infinity, so a non-finite field (mc's sigma_distance at zero spread;
    margin keeps the sign) prints as null there."""
    if args.format == "csv":
        _print_report_csv(fields)
        return
    if isinstance(source, qm.RealSource):
        inputs = {**inputs, **source.geometry._asdict(), "f_factor": source.f_factor}
    finite = {
        name: None if isinstance(value, float) and not math.isfinite(value) else value
        for name, value in fields.items()
    }
    _print_json({**finite, "inputs": inputs})


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _resolve_quad(args: argparse.Namespace) -> SettingsQuad:
    if args.angles is not None and args.diffs is not None:
        raise ValidationError("--angles and --diffs are mutually exclusive")
    if args.angles is not None:
        values = _parse_float_list(args.angles, "--angles")
        if len(values) != 4:
            raise ValidationError(f"--angles expects 4 values (a,b,a',b'), got {len(values)}")
        return SettingsQuad.of(*values)
    diffs = list(DEFAULT_DIFFS)
    if args.diffs is not None:
        values = _parse_float_list(args.diffs, "--diffs")
        if len(values) == 3:
            values.append(0.0)
        if len(values) != 4:
            raise ValidationError(f"--diffs expects 3 or 4 values, got {len(values)}")
        diffs = values
    d1, d2, d3, _ = diffs
    if getattr(args, "ineq", None) == "bell65" and math.isfinite(d1 + d3):
        # Three free pairs, no primed-pair constraint: directly realizable.
        # Where a' = d1 + d3 is not finite, quad_from_differences names the fault.
        return SettingsQuad.of(0.0, d1, d1 + d3, d2)
    return quad_from_differences(*diffs)


def _resolve_source(args: argparse.Namespace) -> montecarlo.Source:
    """The --source of eval, mc or scan (only mc offers lhv)."""
    if args.source == "qm-ideal":
        return qm.IdealSource()
    if args.source == "qm-real":
        return qm.RealSource(
            qm.CascadeGeometry(eta=args.eta, phi_deg=args.phi, f_override=args.force_f)
        )
    if args.model is None:
        raise ValidationError("--source lhv requires --model FILE")
    from . import lhv, montecarlo

    return montecarlo.LhvSource(lhv.load_model(args.model))


def _quad_echo(quad: SettingsQuad) -> dict[str, Any]:
    return {**quad._asdict(), "differences": list(quad.differences())}


# ---------------------------------------------------------------------------
# verify-theorem
# ---------------------------------------------------------------------------


def _cmd_verify_theorem(args: argparse.Namespace) -> int:
    from . import lhv

    report = lhv.verify_theorem()
    values = report.functional_values
    payload = {
        "min_functional_value": report.min_functional_value,
        "all_satisfied": report.all_satisfied,
        "cases_match_expected": report.cases_match_expected,
        "n_assignments": len(values),
        "tight_assignments": [s.key() for s in report.argmin_assignments],
        "case_bounds": [
            {**case._asdict(), "a_prime": case.a_prime.symbol, "b_prime": case.b_prime.symbol}
            for case in report.case_bounds
        ],
        "functional_values": {
            s.key(): value for s, value in zip(lhv.enumerate_assignments(), values)
        },
    }
    _print_json(payload)
    return 0 if (report.all_satisfied and report.cases_match_expected) else 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    quad = _resolve_quad(args)
    source = _resolve_source(args)
    report = form_for(args.ineq, source).evaluate(quad, source)
    inputs = {"ineq": args.ineq, "source": args.source, "quad": _quad_echo(quad)}
    _emit(args, source, report._asdict(), inputs)
    return 0


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def _cmd_mc(args: argparse.Namespace) -> int:
    from . import montecarlo

    require_in_range("--pairs", args.pairs, 1, montecarlo.MAX_PAIRS_PER_SETTING)
    if args.workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")
    quad = _resolve_quad(args)
    require_symmetric(quad, "mc (symmetric estimator)")
    plan = montecarlo.RunPlan(
        quad=quad,
        pairs_per_setting=args.pairs,
        seed=args.seed,
        source=_resolve_source(args),
    )
    counters = montecarlo.run_experiment(plan, workers=args.workers)
    cross = montecarlo.merge_counters(
        counters["ab"], counters["bpa"], counters["bap"]
    )
    estimated = montecarlo.evaluate_symmetric_detection(cross, counters["apbp"])

    if args.counters is not None:
        with open(args.counters, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(montecarlo.counters_csv(counters))
    if args.manifest is not None:
        with open(args.manifest, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(montecarlo.run_manifest(plan, counters))

    fields = estimated.report._asdict()
    fields["std_error"] = estimated.std_error
    fields["sigma_distance"] = estimated.sigma_distance
    inputs: dict[str, Any] = {
        "source": args.source,
        "quad": _quad_echo(quad),
        "pairs_per_setting": args.pairs,
        "seed": args.seed,
        "workers": args.workers,
    }
    if args.source == "lhv":
        inputs["model"] = args.model
    _emit(args, plan.source, fields, inputs)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _cmd_scan(args: argparse.Namespace) -> int:
    from . import optimizer

    require_in_range("--step", args.step, MIN_STEP_DEG, MAX_STEP_DEG)
    if args.surface is not None and args.step < MIN_SURFACE_STEP_DEG:
        raise ValidationError(
            f"--surface needs --step >= {MIN_SURFACE_STEP_DEG} (at most "
            f"{MAX_SURFACE_AXIS_POINTS}^3 rows), got {args.step}"
        )
    require_in_range("--rounds", args.rounds, 0, MAX_REFINE_ROUNDS)
    source = _resolve_source(args)
    result = optimizer.grid_scan(
        args.ineq,
        source,
        step_deg=args.step,
        refine_rounds=args.rounds,
    )
    if args.surface is not None:
        optimizer.write_surface(args.surface, args.ineq, source, args.step)

    fields = {
        **result.best_quad._asdict(),
        "best_lhs": result.best_lhs,
        "best_factor": result.best_factor,
    }
    inputs = {
        "ineq": args.ineq,
        "source": args.source,
        "step_deg": args.step,
        "refine_rounds": args.rounds,
    }
    _emit(args, source, fields, inputs)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_angle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--angles",
        help="four axes a,b,a',b' in degrees (axes are 180-degree periodic)",
    )
    parser.add_argument(
        "--diffs",
        help="pair differences d1,d2,d3[,d4=0] for (a,b),(b',a),(b,a'),(a',b'); "
        "default 120,120,120,0",
    )


def _add_geometry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--eta", type=float, default=DEFAULT_ETA,
        help="detector quantum efficiency in (0,1] (illustrative default: 0.2)",
    )
    parser.add_argument(
        "--phi", type=float, default=DEFAULT_PHI,
        help="detector half-aperture in degrees, (0,90] (illustrative default: 30)",
    )
    parser.add_argument(
        "--force-F", dest="force_f", type=float, default=None,
        help="override the aperture depolarization factor (e.g. 1 for the undamped fringe)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="belltest",
        description="Ternary-outcome Bell inequality toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify-theorem",
        help="enumerate all 81 deterministic assignments and check the -1 bound",
    )
    p_verify.set_defaults(handler=_cmd_verify_theorem)

    p_eval = sub.add_parser("eval", help="evaluate one inequality from closed forms")
    p_eval.add_argument("--ineq", choices=tuple(FORMS), required=True)
    p_eval.add_argument("--source", choices=("qm-ideal", "qm-real"), default="qm-ideal")
    _add_angle_flags(p_eval)
    _add_geometry_flags(p_eval)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(handler=_cmd_eval)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo coincidence experiment")
    p_mc.add_argument("--pairs", type=int, default=1_000_000,
                      help="emitted pairs per setting pair")
    p_mc.add_argument("--seed", type=int, default=0, help="master seed")
    p_mc.add_argument("--source", choices=("qm-real", "qm-ideal", "lhv"), default="qm-real")
    p_mc.add_argument("--model", default=None, help="four-axis model file for --source lhv")
    p_mc.add_argument("--workers", type=int, default=1,
                      help="accepted for compatibility; chunks are drawn in one thread "
                      "and the counts never depend on it")
    _add_angle_flags(p_mc)
    _add_geometry_flags(p_mc)
    p_mc.add_argument("--counters", default=None, help="write per-pair counts CSV here")
    p_mc.add_argument("--manifest", default=None, help="write the run manifest here")
    p_mc.add_argument("--format", choices=("json", "csv"), default="json")
    p_mc.set_defaults(handler=_cmd_mc)

    p_scan = sub.add_parser("scan", help="grid-search setting quads for maximal violation")
    p_scan.add_argument("--ineq", choices=INEQUALITIES, default="ternary")
    p_scan.add_argument("--source", choices=("qm-ideal", "qm-real"), default="qm-ideal")
    p_scan.add_argument(
        "--step", type=float, default=1.0,
        help=f"grid step in degrees, [{MIN_STEP_DEG}, {MAX_STEP_DEG}]",
    )
    p_scan.add_argument("--rounds", type=int, default=6,
                        help=f"coordinate refinement rounds, [0, {MAX_REFINE_ROUNDS}]")
    _add_geometry_flags(p_scan)
    p_scan.add_argument("--surface", default=None,
                        help="write grid samples CSV here (use coarse --step)")
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.set_defaults(handler=_cmd_scan)

    return parser


_VALUE_LIST_FLAGS = ("--angles", "--diffs")
_NEGATIVE_LIST = re.compile(r"-[0-9.]")


def _attach_negative_lists(argv: Sequence[str]) -> list[str]:
    """Rewrite "--angles -30,400,..." as "--angles=-30,400,...".

    argparse takes a value that starts with "-" for an option unless it is
    a single number, so a value list led by a negative number needs the
    "=" form; this gives it that form for --angles and --diffs.
    """
    tokens: list[str] = []
    for token in argv:
        if tokens and tokens[-1] in _VALUE_LIST_FLAGS and _NEGATIVE_LIST.match(token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    return tokens


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BellTestError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"io error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
