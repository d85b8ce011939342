"""Evaluators for the ternary-outcome Bell inequalities and comparators.

The central constraint, bounded below by -1 for every local model, comes in
four flavors that share one term rule: three cross-setting correlations (or
three times one shared one), minus 2 per like-outcome (++ or --) coincidence
term at the primed setting pair, plus the primed-side detected singles. The
flavors are the general form, a symmetric reduced form, and measurable
variants of both built from detection-rate ratios (which cancel the unknown
emission count). Bell's original 1965 three-correlation inequality and the
CHSH inequality are provided for comparison. FORMS names all six and the
quantum source that feeds each.

At both qm sources the four ternary forms are one closed form, F S + 1,
with S = E1 + E2 + E3 - E4 over the ideal correlations Ek = cos 2(x1 - x2)
and F the source's depolarization factor (1 at qm-ideal). eta, the solid
angle and the angular correlation cancel, so only mc's counts and error
bars see them. FORMS evaluates the four forms by that rule; the merged quad
reads 1 - 2.5 F and the free quad 1 - 2 sqrt(2) F. The term-rule
evaluators below take arbitrary inputs and counts.

Both measurable forms are CHSH plus one: E1 + E2 + E3 - E4 + 1, where Ek is
each pair's normalized coincidence correlation E/T0 and (a', b') takes the
negated slot. Each side's singles ratios D+/t0 and D-/t0, with t0 = D+ + D-,
sum to 1, so the singles are checked, then counted as 2: they can select an
error but never move the lhs. The symmetric measurable form also rejects
inconsistent inputs: |E| above T0 at the cross pair, D++ + D-- above T0 at
the primed pair, or a singles total other than D+ + D-.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Literal, Sequence

from . import qm
from .core import (
    PAIRS,
    DetectionRates,
    PairProbabilities,
    Record,
    SinglesProbabilities,
    UndefinedRatioError,
    ValidationError,
    coincidence_total,
    cos_double_angle,
    detection_expectation,
    normalize_degrees,
    require_nonnegative,
)

VIOLATION_EPS = 1e-12
"""Margins beyond this far below zero count as genuine violations."""

LOCAL_BOUND = -1.0
"""Lower bound obeyed by every local model, for all four ternary forms."""

CHSH_BOUND = 2.0

# Angle-scan limits, used by optimizer.grid_scan and the scan command. They
# live in this module so the command-line parser can read them without
# importing optimizer.

MAX_AXIS_POINTS = 2048
"""Budget on grid values per axis of a scan's coarse phase, which scores a
few rows of n values in O(n) memory (3 ms at n = 2048, in process on 2 vCPUs)."""

MIN_STEP_DEG = 180.0 / MAX_AXIS_POINTS
"""Smallest grid step whose axis fits MAX_AXIS_POINTS."""

MAX_SURFACE_AXIS_POINTS = 256
"""Budget on grid values per axis for a written surface: n^3 = 2^24 rows, about 1 GB."""

MIN_SURFACE_STEP_DEG = 180.0 / MAX_SURFACE_AXIS_POINTS
"""Smallest grid step whose surface fits MAX_SURFACE_AXIS_POINTS per axis."""

MAX_STEP_DEG = 45.0

MAX_REFINE_ROUNDS = 64
"""Most refinement rounds a scan runs. Each round halves the search span, so
after 64 rounds even a MAX_STEP_DEG span is below 2.5e-18 degrees, far under
the float spacing of angles near 180 (2.8e-14): further rounds cannot move
the incumbent and only cost 25 objective calls each."""


class InequalityReport(Record):
    """Outcome of evaluating one inequality at one set of inputs.

    margin is the signed distance to the bound in the direction of
    satisfaction, so violated always means margin < -1e-12 regardless of
    the inequality's sense. violation_factor is lhs / bound whenever
    that ratio exceeds 1 (both the -1.5 and the sqrt(2)-style factors
    come out of this single definition), else 1.
    """

    name: str
    lhs: float
    bound: float
    margin: float
    violation_factor: float
    violated: bool


def _report(name: str, lhs: float, bound: float, sense: Literal["ge", "le"]) -> InequalityReport:
    margin = lhs - bound if sense == "ge" else bound - lhs
    ratio = lhs / bound if bound != 0.0 else 0.0
    # every field positional, so Record skips its keyword binding
    return InequalityReport(
        name, lhs, bound, margin, ratio if ratio > 1.0 else 1.0, margin < -VIOLATION_EPS
    )


def _require_unit_range(
    names: Sequence[str], values: Sequence[float], low: float = -1.0
) -> list[float]:
    """values as floats once each lies in [low, 1] within VIOLATION_EPS, else the first outside
    is named; low is -1 for correlations, 0 for probabilities."""
    checked = []
    for name, value in zip(names, values):
        if not low - VIOLATION_EPS <= value <= 1.0 + VIOLATION_EPS:
            raise ValidationError(f"{name} must lie in [{low:g}, 1], got {value!r}")
        checked.append(float(value))
    return checked


def _ternary_report(
    name: str, cross: Sequence[float], like_primed: Sequence[float], singles: Sequence[float]
) -> InequalityReport:
    """The ternary forms' term rule: sum(cross) - 2 sum(like_primed) + sum(singles), by one fsum.

    The measurable forms pass one like fraction, (D++ + D--)/T0, and singles (2.0,)."""
    lhs = math.fsum((*cross, *(-2.0 * p for p in like_primed), *singles))
    return _report(name, lhs, LOCAL_BOUND, "ge")


class SettingsQuad(Record):
    """The four polarizer axes in degrees: a and a' on side 1, b and b' on side 2.

    Each axis must be finite and is stored normalized to [0, 180).
    """

    a: float
    b: float
    a_prime: float
    b_prime: float

    def __post_init__(self) -> None:
        axes = self.__dict__
        for name in self._fields:
            axes[name] = normalize_degrees(axes[name])

    @classmethod
    def of(cls, a: float, b: float, a_prime: float, b_prime: float) -> "SettingsQuad":
        """The constructor, under the name existing callers use."""
        return cls(a, b, a_prime, b_prime)

    def axes_degrees(self) -> tuple[float, float, float, float]:
        return self._values()

    def pair_axes(self) -> tuple[tuple[float, float], ...]:
        """(side-1, side-2) axes of each setting pair, in core.PAIRS order."""
        return tuple((getattr(self, x1), getattr(self, x2)) for x1, x2 in PAIRS.values())

    def differences(self) -> tuple[float, float, float, float]:
        """Axis differences a - b, b' - a, b - a', a' - b' (mod 180) of the four pairs; each
        may read 180 - d where quad_from_differences got d, the same fringe (cos 2 theta is even)."""
        a, b, ap, bp = self.axes_degrees()
        return (
            normalize_degrees(a - b),
            normalize_degrees(bp - a),
            normalize_degrees(b - ap),
            normalize_degrees(ap - bp),
        )


def quad_from_differences(
    d1: float, d2: float, d3: float, d4: float = 0.0
) -> SettingsQuad:
    """Construct axes realizing the pair differences (d1, d2, d3, d4).

    d1 = (a,b), d2 = (b',a), d3 = (b,a'), d4 = (a',b'). Only three axes
    are free, so the four differences must be mutually consistent; the
    sign branches for b' and a' are searched in a fixed order and the
    first branch whose primed-pair fringe matches cos(2 d4) wins. The quad
    has a = 0, b = d1, b' = +-d2 and a' = b +- d3, so SettingsQuad.differences
    (a - b, b' - a, b - a', a' - b', mod 180) may echo 180 - d: (120, 120,
    120, 0) echoes (60, 60, 60, 0) and (22.5, 22.5, 22.5, 67.5) echoes
    (157.5, 157.5, 157.5, 67.5). cos 2 theta is even, so the fringes match.
    """
    if not all(math.isfinite(d) for d in (d1, d2, d3, d4)):
        raise ValidationError(f"differences must be finite, got ({d1}, {d2}, {d3}, {d4})")
    too_large = f"differences ({d1}, {d2}, {d3}, {d4}) are too large to realize"
    a = 0.0
    b = float(d1)
    doubled_d4 = 2.0 * float(d4)
    if not math.isfinite(doubled_d4):
        raise ValidationError(too_large)
    target = math.cos(math.radians(doubled_d4))
    for bp_sign in (1.0, -1.0):
        for ap_sign in (1.0, -1.0):
            bp = bp_sign * float(d2)
            ap = b + ap_sign * float(d3)
            doubled = 2.0 * (ap - bp)
            if not math.isfinite(doubled):
                raise ValidationError(too_large)
            if abs(math.cos(math.radians(doubled)) - target) <= 1e-9:
                return SettingsQuad.of(a, b, ap, bp)
    raise ValidationError(
        f"differences ({d1}, {d2}, {d3}, {d4}) are not realizable by four coplanar axes"
    )


def ternary_inequality(
    e_ab: float,
    e_bpa: float,
    e_bap: float,
    pair_apbp: PairProbabilities,
    singles_ap: SinglesProbabilities,
    singles_bp: SinglesProbabilities,
) -> InequalityReport:
    """General form of the ternary-outcome inequality (bound -1).

    lhs = e(a,b) + e(b',a) + e(b,a') - 2 p++(a',b') - 2 p--(a',b')
          + p+(a') + p-(a') + p+(b') + p-(b').
    """
    return _ternary_report(
        "ternary",
        _require_unit_range(("e_ab", "e_bpa", "e_bap"), (e_ab, e_bpa, e_bap)),
        (pair_apbp.pp, pair_apbp.mm),
        (singles_ap.p_plus, singles_ap.p_minus, singles_bp.p_plus, singles_bp.p_minus),
    )


def ternary_inequality_symmetric(
    e_cross: float,
    p_pp_primed: float,
    p_mm_primed: float,
    singles: Sequence[float],
) -> InequalityReport:
    """Symmetric reduced form: 3 e - 2 p++ - 2 p-- + sum of four singles.

    Valid when all three cross pairs share one axis difference (the
    symmetry local theories are assumed to share with the quantum
    model).
    """
    if len(singles) != 4:
        raise ValidationError(f"expected 4 singles probabilities, got {len(singles)}")
    (e,) = _require_unit_range(("e_cross",), (e_cross,))
    p_pp, p_mm, *singles_terms = _require_unit_range(
        ("p_pp_primed", "p_mm_primed", *(f"singles[{k}]" for k in range(4))),
        (p_pp_primed, p_mm_primed, *singles),
        low=0.0,
    )
    return _ternary_report("ternary-sym", (3.0 * e,), (p_pp, p_mm), singles_terms)


def bell_1965(e_ab: float, e_bpa: float, e_apb: float) -> InequalityReport:
    """Bell's original 1965 inequality: sum of three correlations >= -1.

    The -1 is not a local bound: it assumes perfect correlation at equal
    primed axes, and the local vertices ++-- and --++ (a, a', b, b') reach -3.
    """
    lhs = math.fsum(_require_unit_range(("e_ab", "e_bpa", "e_apb"), (e_ab, e_bpa, e_apb)))
    return _report("bell65", lhs, LOCAL_BOUND, "ge")


def _require_total(total: float, what: str) -> float:
    if total <= 0.0:
        raise UndefinedRatioError(f"{what} is zero; ratio undefined")
    return total


def _ratio(numerator: float, denominator: float, what: str) -> float:
    return numerator / _require_total(denominator, what)


def detection_inequality(
    rates_ab: DetectionRates,
    rates_bpa: DetectionRates,
    rates_bap: DetectionRates,
    rates_apbp: DetectionRates,
    singles_ap: tuple[float, float],
    singles_bp: tuple[float, float],
) -> InequalityReport:
    """Measurable form of the general inequality, built from rate ratios.

    Correlations become E/T0 per cross pair, coincidence cells become
    D/T0 at the primed pair, and singles become D/t0 per primed side.
    Every term is a ratio, so a uniform rescaling of all rates (an
    unknown emission count) drops out. The lhs is E1 + E2 + E3 - E4 + 1
    with (a',b') negated. Each side's singles ratios sum to 1, so the
    singles are checked (t0 > 0), then counted as 2.
    """
    cross_terms = [
        _ratio(detection_expectation(r), coincidence_total(r), f"coincidence total ({label})")
        for label, r in (("ab", rates_ab), ("bpa", rates_bpa), ("bap", rates_bap))
    ]
    primed_total = coincidence_total(rates_apbp)
    for side, arg, singles in (("a'", "singles_ap", singles_ap), ("b'", "singles_bp", singles_bp)):
        if len(singles) != 2:
            raise ValidationError(f"{arg} must hold 2 values (D+, D-), got {len(singles)}")
        require_nonnegative((f"{arg}[0]", f"{arg}[1]"), singles)
        d_plus, d_minus = singles
        _require_total(d_plus + d_minus, f"singles total ({side})")
    like = _ratio(rates_apbp.d_pp + rates_apbp.d_mm, primed_total, "coincidence total (a'b')")
    return _ternary_report("detection", cross_terms, (like,), (2.0,))


def detection_inequality_symmetric(
    e_cross: float,
    total_cross: float,
    d_pp_primed: float,
    d_mm_primed: float,
    total_primed: float,
    d_plus_primed: float,
    d_minus_primed: float,
    singles_total_primed: float,
) -> InequalityReport:
    """Symmetric measurable form: 3 E/T0 - 2 (D++ + D--)/T0 + 2 D+/t0 + 2 D-/t0.

    With t0 = D+ + D- the singles ratios sum to 1, so the singles are
    checked (t0 > 0), then counted as 2, and the lhs is 3 E/T0 (cross) -
    E/T0 (primed) + 1. Only e_cross may be negative; every argument must
    be finite; counts may be ints. The inputs must be consistent within a
    relative slack of VIOLATION_EPS (of the total named): |e_cross| <=
    total_cross, d_pp_primed + d_mm_primed <= total_primed, and
    singles_total_primed = d_plus_primed + d_minus_primed.
    """
    if not math.isfinite(e_cross):
        raise ValidationError(f"e_cross must be finite, got {e_cross!r}")
    require_nonnegative(
        ("total_cross", "d_pp_primed", "d_mm_primed", "total_primed",
         "d_plus_primed", "d_minus_primed", "singles_total_primed"),
        (total_cross, d_pp_primed, d_mm_primed, total_primed,
         d_plus_primed, d_minus_primed, singles_total_primed),
    )
    for rule, excess, total in (
        ("|e_cross| <= total_cross", abs(e_cross) - total_cross, total_cross),
        ("d_pp_primed + d_mm_primed <= total_primed",
         d_pp_primed + d_mm_primed - total_primed, total_primed),
        ("singles_total_primed = d_plus_primed + d_minus_primed",
         abs(singles_total_primed - (d_plus_primed + d_minus_primed)), singles_total_primed),
    ):
        if excess > VIOLATION_EPS * total:
            raise ValidationError(f"inputs break {rule} by {excess!r}")
    cross = 3.0 * _ratio(e_cross, total_cross, "cross coincidence total")
    like = _ratio(d_pp_primed + d_mm_primed, total_primed, "primed coincidence total")
    _require_total(d_plus_primed + d_minus_primed, "primed singles total")
    return _ternary_report("detection-sym", (cross,), (like,), (2.0,))


def chsh(e_ab: float, e_bpa: float, e_bap: float, e_apbp: float) -> InequalityReport:
    """CHSH inequality |e1 + e2 + e3 - e4| <= 2 on four correlations.

    The caller chooses which measured pair feeds the negated slot; at
    the standard optimal settings that is the one odd-angle pair.
    """
    *cross, e_primed = _require_unit_range(
        ("e_ab", "e_bpa", "e_bap", "e_apbp"), (e_ab, e_bpa, e_bap, e_apbp)
    )
    lhs = abs(math.fsum((*cross, -e_primed)))
    return _report("chsh", lhs, CHSH_BOUND, "le")


# ---------------------------------------------------------------------------
# The form table: which source feeds each inequality and how it reads the
# quantum closed forms at a setting quad.
# ---------------------------------------------------------------------------


def _correlations(quad: SettingsQuad) -> list[float]:
    """Ideal correlations cos 2(x1 - x2) at the four pairs, in core.PAIRS order.

    The first three are the cross pairs, the last the primed pair (a',b').
    """
    return [cos_double_angle(x1 - x2) for x1, x2 in quad.pair_axes()]


def require_symmetric(quad: SettingsQuad, what: str) -> None:
    """Reject a quad whose three cross pairs do not share one fringe value."""
    c1, c2, c3, _ = _correlations(quad)
    if max(abs(c1 - c2), abs(c1 - c3)) > 1e-9:
        raise ValidationError(
            f"{what} assumes one shared cross difference; use --diffs d,d,d[,d4]"
        )


def _chsh_plus_one(
    name: str, symmetric: bool = False
) -> Callable[[SettingsQuad, Any], InequalityReport]:
    """The evaluate of ternary form name at a qm source: F (E1 + E2 + E3 - E4) + 1,
    the F-scaled correlations and the 1 summed by one fsum."""

    def evaluate(quad: SettingsQuad, source: qm.IdealSource | qm.RealSource) -> InequalityReport:
        if symmetric:
            require_symmetric(quad, f"--ineq {name}")
        e1, e2, e3, e4 = _correlations(quad)
        f = source.f_factor
        lhs = math.fsum((f * e1, f * e2, f * e3, -f * e4, 1.0))
        return _report(name, lhs, LOCAL_BOUND, "ge")

    return evaluate


def _bell65(quad: SettingsQuad, source: qm.IdealSource) -> InequalityReport:
    return bell_1965(*_correlations(quad)[:3])


def _chsh(quad: SettingsQuad, source: qm.IdealSource) -> InequalityReport:
    return chsh(*_correlations(quad))


def _plane(source: qm.IdealSource | qm.RealSource) -> tuple[float, float]:
    f = source.f_factor
    return f, 1.0 - f


class Form(Record):
    """How one named inequality is evaluated from quantum closed forms.

    source is the qm source class whose predictions feed it. The four
    ternary forms' evaluate reads F S + 1 (see the module docstring); a
    symmetric form's first rejects a quad whose three cross pairs do not
    share one axis difference (see require_symmetric). An angle scan
    optimizes the forms with a plane: with b' = a', E4 = 1, and
    plane(source) gives (scale, offset) = (F, 1 - F) with
    lhs = scale * (cos 2(a-b) + cos 2(a'-a) + cos 2(b-a')) + offset and
    scale >= 0, which the scan's row bound needs.
    """

    source: type[qm.IdealSource] | type[qm.RealSource]
    evaluate: Callable[[SettingsQuad, Any], InequalityReport]
    plane: Callable[[Any], tuple[float, float]] | None = None


FORMS: dict[str, Form] = {
    "ternary": Form(qm.IdealSource, _chsh_plus_one("ternary"), _plane),
    "ternary-sym": Form(qm.IdealSource, _chsh_plus_one("ternary-sym", symmetric=True)),
    "bell65": Form(qm.IdealSource, _bell65),
    "chsh": Form(qm.IdealSource, _chsh),
    "detection": Form(qm.RealSource, _chsh_plus_one("detection"), _plane),
    "detection-sym": Form(qm.RealSource, _chsh_plus_one("detection-sym", symmetric=True)),
}

INEQUALITIES = tuple(name for name, form in FORMS.items() if form.plane is not None)
"""The forms an angle scan optimizes."""


def form_for(name: str, source: object) -> Form:
    """The table entry for name, once source is the kind that entry needs."""
    form = FORMS.get(name)
    if form is None:
        raise ValidationError(f"unknown inequality {name!r}; expected one of {tuple(FORMS)}")
    if not isinstance(source, form.source):
        raise ValidationError(f"the {name} inequality needs the {form.source.kind} source")
    return form
