"""Evaluators for the ternary-outcome Bell inequalities and comparators.

The central constraint bounds a combination of three cross-setting
correlations, the like-outcome coincidence probabilities at the primed
setting pair, and the primed-side detected-singles probabilities below
by -1 for every local model. It comes in four flavors: the general
form, a symmetric reduced form, and measurable variants of both built
from detection-rate ratios (which cancel the unknown emission count).
Bell's original 1965 three-correlation inequality and the CHSH
inequality are provided for comparison. FORMS names all six and says, for
each, which quantum source feeds it and how its inputs follow from the
closed forms at a setting quad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Literal, Sequence

from . import qm
from .core import (
    PAIRS,
    DetectionRates,
    PairProbabilities,
    SinglesProbabilities,
    UndefinedRatioError,
    ValidationError,
    coincidence_total,
    cos_double_angle,
    detection_expectation,
    normalize_degrees,
)

VIOLATION_EPS = 1e-12
"""Margins beyond this far below zero count as genuine violations."""

LOCAL_BOUND = -1.0
"""Lower bound obeyed by every local model, for all four ternary forms."""

CHSH_BOUND = 2.0

# Angle-scan limits, used by optimizer.grid_scan and the scan command. They
# live in this numpy-free module so the command-line parser can read them
# without importing optimizer (and numpy).

MAX_AXIS_POINTS = 2048
"""Budget on grid values per axis: one n x n float64 plane stays under 32 MiB."""

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
the incumbent and only cost 125 objective calls each."""


@dataclass(frozen=True)
class InequalityReport:
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
    violated: bool
    violation_factor: float


def _report(name: str, lhs: float, bound: float, sense: Literal["ge", "le"]) -> InequalityReport:
    margin = lhs - bound if sense == "ge" else bound - lhs
    ratio = lhs / bound if bound != 0.0 else 0.0
    return InequalityReport(
        name=name,
        lhs=lhs,
        bound=bound,
        margin=margin,
        violated=margin < -VIOLATION_EPS,
        violation_factor=ratio if ratio > 1.0 else 1.0,
    )


def _check_expectation(name: str, value: float) -> float:
    if not -1.0 - VIOLATION_EPS <= value <= 1.0 + VIOLATION_EPS:
        raise ValidationError(f"{name} must lie in [-1, 1], got {value!r}")
    return float(value)


def _check_probability(name: str, value: float) -> float:
    if not -VIOLATION_EPS <= value <= 1.0 + VIOLATION_EPS:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SettingsQuad:
    """The four polarizer axes in degrees: a and a' on side 1, b and b' on side 2.

    Each axis must be finite and is stored normalized to [0, 180).
    """

    a: float
    b: float
    a_prime: float
    b_prime: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "a_prime", "b_prime"):
            object.__setattr__(self, name, normalize_degrees(getattr(self, name)))

    @classmethod
    def of(cls, a: float, b: float, a_prime: float, b_prime: float) -> "SettingsQuad":
        """The constructor, under the name existing callers use."""
        return cls(a, b, a_prime, b_prime)

    def axes_degrees(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.a_prime, self.b_prime)

    def pair_axes(self) -> tuple[tuple[float, float], ...]:
        """(side-1, side-2) axes of each setting pair, in core.PAIRS order."""
        return tuple((getattr(self, x1), getattr(self, x2)) for x1, x2 in PAIRS.values())

    def differences(self) -> tuple[float, float, float, float]:
        """Axis differences for the pairs (a,b), (b',a), (b,a'), (a',b')."""
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
    first branch whose primed-pair fringe matches cos(2 d4) wins.
    """
    if not all(math.isfinite(d) for d in (d1, d2, d3, d4)):
        raise ValidationError(f"differences must be finite, got ({d1}, {d2}, {d3}, {d4})")
    a = 0.0
    b = float(d1)
    target = math.cos(math.radians(2.0 * float(d4)))
    for bp_sign in (1.0, -1.0):
        for ap_sign in (1.0, -1.0):
            bp = bp_sign * float(d2)
            ap = b + ap_sign * float(d3)
            doubled = 2.0 * (ap - bp)
            if not math.isfinite(doubled):
                raise ValidationError(
                    f"differences ({d1}, {d2}, {d3}, {d4}) are too large to realize"
                )
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
    lhs = math.fsum(
        (
            _check_expectation("e_ab", e_ab),
            _check_expectation("e_bpa", e_bpa),
            _check_expectation("e_bap", e_bap),
            -2.0 * pair_apbp.pp,
            -2.0 * pair_apbp.mm,
            singles_ap.p_plus,
            singles_ap.p_minus,
            singles_bp.p_plus,
            singles_bp.p_minus,
        )
    )
    return _report("ternary", lhs, LOCAL_BOUND, "ge")


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
    lhs = math.fsum(
        (
            3.0 * _check_expectation("e_cross", e_cross),
            -2.0 * _check_probability("p_pp_primed", p_pp_primed),
            -2.0 * _check_probability("p_mm_primed", p_mm_primed),
            *(_check_probability(f"singles[{k}]", s) for k, s in enumerate(singles)),
        )
    )
    return _report("ternary-sym", lhs, LOCAL_BOUND, "ge")


def bell_1965(e_ab: float, e_bpa: float, e_apb: float) -> InequalityReport:
    """Bell's original 1965 inequality: sum of three correlations >= -1."""
    lhs = math.fsum(
        (
            _check_expectation("e_ab", e_ab),
            _check_expectation("e_bpa", e_bpa),
            _check_expectation("e_apb", e_apb),
        )
    )
    return _report("bell65", lhs, LOCAL_BOUND, "ge")


def _ratio(numerator: float, denominator: float, what: str) -> float:
    if denominator <= 0.0:
        raise UndefinedRatioError(f"{what} is zero; ratio undefined")
    return numerator / denominator


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
    unknown emission count) drops out.
    """
    cross_terms = [
        _ratio(detection_expectation(r), coincidence_total(r), f"coincidence total ({label})")
        for label, r in (("ab", rates_ab), ("bpa", rates_bpa), ("bap", rates_bap))
    ]
    primed_total = coincidence_total(rates_apbp)
    singles_terms = []
    for side, (d_plus, d_minus) in (("a'", singles_ap), ("b'", singles_bp)):
        if d_plus < 0.0 or d_minus < 0.0:
            raise ValidationError(f"singles rates for {side} must be >= 0")
        total = d_plus + d_minus
        singles_terms.append(_ratio(d_plus, total, f"singles total ({side})"))
        singles_terms.append(_ratio(d_minus, total, f"singles total ({side})"))
    lhs = math.fsum(
        (
            *cross_terms,
            -2.0 * _ratio(rates_apbp.d_pp, primed_total, "coincidence total (a'b')"),
            -2.0 * _ratio(rates_apbp.d_mm, primed_total, "coincidence total (a'b')"),
            *singles_terms,
        )
    )
    return _report("detection", lhs, LOCAL_BOUND, "ge")


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
    """Symmetric measurable form: 3 E/T0 - 2 D++/T0 - 2 D--/T0 + 2 D+/t0 + 2 D-/t0."""
    lhs = math.fsum(
        (
            3.0 * _ratio(e_cross, total_cross, "cross coincidence total"),
            -2.0 * _ratio(d_pp_primed, total_primed, "primed coincidence total"),
            -2.0 * _ratio(d_mm_primed, total_primed, "primed coincidence total"),
            2.0 * _ratio(d_plus_primed, singles_total_primed, "primed singles total"),
            2.0 * _ratio(d_minus_primed, singles_total_primed, "primed singles total"),
        )
    )
    return _report("detection-sym", lhs, LOCAL_BOUND, "ge")


def chsh(e_ab: float, e_bpa: float, e_bap: float, e_apbp: float) -> InequalityReport:
    """CHSH inequality |e1 + e2 + e3 - e4| <= 2 on four correlations.

    The caller chooses which measured pair feeds the negated slot; at
    the standard optimal settings that is the one odd-angle pair.
    """
    lhs = abs(
        math.fsum(
            (
                _check_expectation("e_ab", e_ab),
                _check_expectation("e_bpa", e_bpa),
                _check_expectation("e_bap", e_bap),
                -_check_expectation("e_apbp", e_apbp),
            )
        )
    )
    return _report("chsh", lhs, CHSH_BOUND, "le")


def excess_violation_ratio(factor_new: float, factor_ref: float) -> float:
    """How much farther one violation factor goes beyond no-violation.

    Defined as (factor_new - 1) / (factor_ref - 1); the 1.5-vs-sqrt(2)
    comparison gives about 1.207. That is not "20.7% more violation":
    the factor lhs / bound moves when a constant is added to an
    inequality. The fringe threshold F*, the depolarization factor above
    which a form is violated, does not. The detection form is 1 - 2.5 F
    at the merged-primed 120-degree quad, so it needs F > 0.8, while
    CHSH and the detection form at the free quad (0, 67.5, 135, 112.5),
    1 - 2 sqrt(2) F, need only F > 1 / sqrt(2). By F* the merged-primed
    configuration is less robust to fringe loss than CHSH, not more.
    """
    if factor_new < 1.0 or factor_ref < 1.0:
        raise ValidationError("violation factors are at least 1 by construction")
    if factor_ref <= 1.0:
        raise ValidationError("reference factor must exceed 1 for the ratio to be defined")
    return (factor_new - 1.0) / (factor_ref - 1.0)


# ---------------------------------------------------------------------------
# The form table: which source feeds each inequality and how the quantum
# closed forms at a setting quad become its inputs.
# ---------------------------------------------------------------------------

_IDEAL_SINGLES = SinglesProbabilities(p_plus=0.5, p_zero=0.0, p_minus=0.5)
"""An ideal polarizer sends every photon to + or - with equal odds."""


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


def _ternary(quad: SettingsQuad, source: qm.IdealSource) -> InequalityReport:
    *cross, _ = _correlations(quad)
    ap, bp = quad.pair_axes()[-1]
    return ternary_inequality(
        *cross, qm.ideal_pair_probabilities(ap - bp),
        _IDEAL_SINGLES, _IDEAL_SINGLES,
    )


def _ternary_sym(quad: SettingsQuad, source: qm.IdealSource) -> InequalityReport:
    ap, bp = quad.pair_axes()[-1]
    pair = qm.ideal_pair_probabilities(ap - bp)
    e_cross = _correlations(quad)[0]
    return ternary_inequality_symmetric(e_cross, pair.pp, pair.mm, (0.5, 0.5, 0.5, 0.5))


def _bell65(quad: SettingsQuad, source: qm.IdealSource) -> InequalityReport:
    return bell_1965(*_correlations(quad)[:3])


def _chsh(quad: SettingsQuad, source: qm.IdealSource) -> InequalityReport:
    return chsh(*_correlations(quad))


def _detection(quad: SettingsQuad, source: qm.RealSource) -> InequalityReport:
    geom = source.geometry
    single = geom.single_rate
    rates = [qm.detection_rates(x1, x2, geom) for x1, x2 in quad.pair_axes()]
    return detection_inequality(*rates, singles_ap=(single, single), singles_bp=(single, single))


def _detection_sym(quad: SettingsQuad, source: qm.RealSource) -> InequalityReport:
    cross_axes, *_, primed_axes = quad.pair_axes()
    geom = source.geometry
    single = geom.single_rate
    cross = qm.detection_rates(*cross_axes, geom)
    primed = qm.detection_rates(*primed_axes, geom)
    return detection_inequality_symmetric(
        e_cross=detection_expectation(cross),
        total_cross=coincidence_total(cross),
        d_pp_primed=primed.d_pp,
        d_mm_primed=primed.d_mm,
        total_primed=coincidence_total(primed),
        d_plus_primed=single,
        d_minus_primed=single,
        singles_total_primed=2.0 * single,
    )


def _ternary_plane(source: qm.IdealSource) -> tuple[float, float]:
    return 1.0, 0.0


def _detection_plane(source: qm.RealSource) -> tuple[float, float]:
    f = source.geometry.f_factor
    return f, 1.0 - f


@dataclass(frozen=True)
class Form:
    """How one named inequality is evaluated from quantum closed forms.

    source is the qm source class whose predictions feed it. A symmetric
    form assumes its three cross pairs share one axis difference (see
    require_symmetric). An angle scan optimizes the forms with a plane:
    with b' = a' their primed-pair and singles terms are constants, and
    plane(source) gives (scale, offset) with lhs = scale * (cos 2(a-b)
    + cos 2(a'-a) + cos 2(b-a')) + offset. evaluate checks no condition.
    """

    source: type[qm.IdealSource] | type[qm.RealSource]
    symmetric: bool
    evaluate: Callable[[SettingsQuad, Any], InequalityReport]
    plane: Callable[[Any], tuple[float, float]] | None = None


FORMS: dict[str, Form] = {
    "ternary": Form(qm.IdealSource, symmetric=False, evaluate=_ternary, plane=_ternary_plane),
    "ternary-sym": Form(qm.IdealSource, symmetric=True, evaluate=_ternary_sym),
    "bell65": Form(qm.IdealSource, symmetric=False, evaluate=_bell65),
    "chsh": Form(qm.IdealSource, symmetric=False, evaluate=_chsh),
    "detection": Form(qm.RealSource, symmetric=False, evaluate=_detection, plane=_detection_plane),
    "detection-sym": Form(qm.RealSource, symmetric=True, evaluate=_detection_sym),
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
