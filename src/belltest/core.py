"""Ternary outcomes, polarizer axes, setting pairs, and the shared probability algebra.

Everything downstream (local models, quantum predictions, inequalities,
Monte Carlo) is built on the value types defined here. Outcomes are
ternary: +1 for a photon that emerges along the ordinary axis, 0 for a
photon absorbed by the polarizer or left undetected, -1 for the
extraordinary axis. All types are immutable and all operations are pure
functions, so concurrent use needs no coordination.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

SUM_TOL = 1e-9
"""Absolute tolerance on probability sums (closed-form inputs are exact)."""

CELL_TOL = 1e-12
"""Slack granted to individual cells for floating-point round-off."""


class BellTestError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BellTestError, ValueError):
    """Inputs violate a probability, range, or shape contract."""


class UndefinedRatioError(BellTestError, ZeroDivisionError):
    """A normalizing total (coincidences or singles) is zero."""


def require_in_range(
    name: str, value: float, low: float, high: float, *, low_open: bool = False
) -> None:
    """Reject value unless low <= value <= high (low < value when low_open).

    NaN fails both comparisons, so it is rejected too. The bounds are
    printed as given: pass ints where the message should read (0, 1].
    """
    if not (low < value <= high if low_open else low <= value <= high):
        bracket = "(" if low_open else "["
        raise ValidationError(f"{name} must be in {bracket}{low}, {high}], got {value}")


class Outcome(enum.IntEnum):
    """Ternary result of one photon meeting one two-channel polarizer."""

    PLUS = 1
    ZERO = 0
    MINUS = -1

    @property
    def symbol(self) -> str:
        return {Outcome.PLUS: "+", Outcome.ZERO: "0", Outcome.MINUS: "-"}[self]

    @classmethod
    def from_symbol(cls, ch: str) -> "Outcome":
        try:
            return {"+": cls.PLUS, "0": cls.ZERO, "-": cls.MINUS}[ch]
        except KeyError:
            raise ValidationError(f"unknown outcome symbol {ch!r}") from None


OUTCOMES: tuple[Outcome, ...] = (Outcome.PLUS, Outcome.ZERO, Outcome.MINUS)
"""Canonical outcome order used for enumeration and cell layouts."""


def normalize_degrees(degrees: float) -> float:
    """Reduce a polarizer orientation to [0, 180); axes are pi-periodic."""
    degrees = float(degrees)
    if not math.isfinite(degrees):
        raise ValidationError(f"angle must be finite, got {degrees!r}")
    r = math.fmod(degrees, 180.0)
    if r < 0.0:
        r += 180.0
    if r >= 180.0:  # fmod round-off can land exactly on the period
        r = 0.0
    return r


def cos_double_angle(diff_deg: float) -> float:
    """cos of twice an angle difference given in degrees.

    The single trig helper shared by every module, so that values
    compared across computation paths agree bit for bit.
    """
    return math.cos(math.radians(2.0 * float(diff_deg)))


CELL_NAMES: tuple[str, ...] = ("pp", "pm", "mp", "mm", "pz", "zp", "mz", "zm", "zz")
"""Canonical cell order: p = +1, m = -1, z = 0; first letter is side 1."""

PAIRS: dict[str, tuple[str, str]] = {
    "ab": ("a", "b"),
    "bpa": ("a", "b_prime"),
    "bap": ("a_prime", "b"),
    "apbp": ("a_prime", "b_prime"),
}
"""The four setting pairs in canonical order: label -> (side-1 axis, side-2 axis).

Labels follow the paper's pairs (a,b), (b',a), (b,a'), (a',b'); axis names
are the SettingsQuad and DeterministicAssignment field names."""

_LETTER = {Outcome.PLUS: "p", Outcome.ZERO: "z", Outcome.MINUS: "m"}
_LETTER_OUTCOME = {v: k for k, v in _LETTER.items()}

CELL_OUTCOMES: tuple[tuple[Outcome, Outcome], ...] = tuple(
    (_LETTER_OUTCOME[name[0]], _LETTER_OUTCOME[name[1]]) for name in CELL_NAMES
)


def _cell_name(i: Outcome, j: Outcome) -> str:
    return _LETTER[i] + _LETTER[j]


@dataclass(frozen=True)
class PairProbabilities:
    """Nine-cell joint outcome distribution for one pair of settings.

    Cells must be probabilities and sum to one: a PairProbabilities
    describes every emitted pair, including absorbed/undetected photons.
    """

    pp: float
    pm: float
    mp: float
    mm: float
    pz: float = 0.0
    zp: float = 0.0
    mz: float = 0.0
    zm: float = 0.0
    zz: float = 0.0

    def __post_init__(self) -> None:
        for name in CELL_NAMES:
            value = getattr(self, name)
            if not (-CELL_TOL <= value <= 1.0 + CELL_TOL):
                raise ValidationError(f"cell {name} out of [0, 1]: {value!r}")
        total = math.fsum(self.cells())
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"cells sum to {total!r}, expected 1")

    def cells(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in CELL_NAMES)

    def prob(self, i: Outcome, j: Outcome) -> float:
        return getattr(self, _cell_name(i, j))


# The per-emission sample space handed to the Monte Carlo sampler is the
# same nine-cell object; the alias names the role, not a new type.
EventDistribution = PairProbabilities


@dataclass(frozen=True)
class SinglesProbabilities:
    """One side's outcome distribution: detected +, absorbed, detected -."""

    p_plus: float
    p_zero: float
    p_minus: float

    def __post_init__(self) -> None:
        for name in ("p_plus", "p_zero", "p_minus"):
            value = getattr(self, name)
            if not (-CELL_TOL <= value <= 1.0 + CELL_TOL):
                raise ValidationError(f"{name} out of [0, 1]: {value!r}")
        total = math.fsum((self.p_plus, self.p_zero, self.p_minus))
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"singles sum to {total!r}, expected 1")


@dataclass(frozen=True)
class DetectionRates:
    """Measurable transmission-and-detection rates per emitted pair.

    Doubles d_xy are joint detection rates for the four +/- outcome
    combinations; singles are per-side detection rates. Unlike
    PairProbabilities these do not sum to one: most pairs escape the
    apertures entirely. Physical values are probabilities, but every
    consumer works on ratios in which the emission count cancels, so
    uniformly rescaled (unnormalized) rates are accepted too. What is
    enforced: nonnegativity, and coincidences never exceeding the
    matching singles.
    """

    d_pp: float
    d_pm: float
    d_mp: float
    d_mm: float
    d_plus_1: float
    d_minus_1: float
    d_plus_2: float
    d_minus_2: float

    _FIELDS = ("d_pp", "d_pm", "d_mp", "d_mm",
               "d_plus_1", "d_minus_1", "d_plus_2", "d_minus_2")

    def __post_init__(self) -> None:
        for name in self._FIELDS:
            value = getattr(self, name)
            if not (value >= -CELL_TOL) or not math.isfinite(value):
                raise ValidationError(f"{name} must be finite and >= 0: {value!r}")
        checks = (
            ("d_pp + d_pm", self.d_pp + self.d_pm, "d_plus_1", self.d_plus_1),
            ("d_mp + d_mm", self.d_mp + self.d_mm, "d_minus_1", self.d_minus_1),
            ("d_pp + d_mp", self.d_pp + self.d_mp, "d_plus_2", self.d_plus_2),
            ("d_pm + d_mm", self.d_pm + self.d_mm, "d_minus_2", self.d_minus_2),
        )
        for label, coincidences, single_name, single in checks:
            if coincidences > single + CELL_TOL:
                raise ValidationError(
                    f"{label} = {coincidences!r} exceeds {single_name} = {single!r}"
                )

    def doubles(self) -> tuple[float, float, float, float]:
        return (self.d_pp, self.d_pm, self.d_mp, self.d_mm)

    def scaled(self, factor: float) -> "DetectionRates":
        """All eight fields multiplied by a common positive factor."""
        return DetectionRates(*(getattr(self, n) * factor for n in self._FIELDS))


def expectation(pair: PairProbabilities) -> float:
    """Correlation of the detected outcomes: p(++) - p(+-) - p(-+) + p(--)."""
    return pair.pp - pair.pm - pair.mp + pair.mm


def marginals(pair: PairProbabilities) -> tuple[SinglesProbabilities, SinglesProbabilities]:
    """Per-side outcome distributions obtained by summing rows and columns."""
    side1 = SinglesProbabilities(
        p_plus=math.fsum((pair.pp, pair.pm, pair.pz)),
        p_zero=math.fsum((pair.zp, pair.zm, pair.zz)),
        p_minus=math.fsum((pair.mp, pair.mm, pair.mz)),
    )
    side2 = SinglesProbabilities(
        p_plus=math.fsum((pair.pp, pair.mp, pair.zp)),
        p_zero=math.fsum((pair.pz, pair.mz, pair.zz)),
        p_minus=math.fsum((pair.pm, pair.mm, pair.zm)),
    )
    return side1, side2


def coincidence_total(rates: DetectionRates) -> float:
    """Total double-detection probability (all four +/- combinations)."""
    return math.fsum(rates.doubles())


def singles_total(d_plus: float, d_minus: float) -> float:
    """Total single-detection probability for one side."""
    for name, value in (("d_plus", d_plus), ("d_minus", d_minus)):
        if not (-CELL_TOL <= value <= 1.0 + CELL_TOL):
            raise ValidationError(f"{name} out of [0, 1]: {value!r}")
    return d_plus + d_minus


def detection_expectation(rates: DetectionRates) -> float:
    """Correlation of detected coincidences: D(++) - D(+-) - D(-+) + D(--)."""
    return rates.d_pp - rates.d_pm - rates.d_mp + rates.d_mm


def normalize_coincidences(rates: DetectionRates) -> PairProbabilities:
    """Joint outcome distribution conditioned on double detection.

    Divides each double by the coincidence total, which cancels the
    unknown emission count; all zero-outcome cells are zero by
    construction. Undefined when no coincidences occur.
    """
    total = coincidence_total(rates)
    if total <= 0.0:
        raise UndefinedRatioError("coincidence total is zero; ratios undefined")
    return PairProbabilities(
        pp=rates.d_pp / total,
        pm=rates.d_pm / total,
        mp=rates.d_mp / total,
        mm=rates.d_mm / total,
    )
