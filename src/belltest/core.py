"""Ternary outcomes, polarizer axes, setting pairs, and the shared probability algebra.

Everything downstream (local models, quantum predictions, inequalities,
Monte Carlo) is built on the value types defined here. Outcomes are
ternary: +1 for a photon that emerges along the ordinary axis, 0 for a
photon absorbed by the polarizer or left undetected, -1 for the
extraordinary axis. All types are immutable and all operations are pure
functions, so concurrent use needs no coordination.

Every value type in the package is a Record: a frozen class whose fields
are its annotations, in order, with defaults from class attributes. Record
gives them one generic constructor (then __post_init__ for validation),
equality and hashing by exact class and field tuple, a `Name(field=value)`
repr, `_asdict()` (fields by name; echoes read it), and AttributeError
on assignment or deletion. The methods live once on the base class: no
per-class code is generated and `inspect` is never imported, which takes
about 25 ms off every command's start-up.
"""

from __future__ import annotations

import enum
import math
from typing import Any

SUM_TOL = 1e-9
"""Absolute tolerance on probability sums (closed-form inputs are exact)."""

CELL_TOL = 1e-12
"""Round-off slack left in two places: a DetectionRates partner-missed cell
may be this far below 0, and qm.complete_detection_rates' detected mass this
far above 1. Cells and rates must never be negative."""


class Record:
    """Base of the package's frozen value types; see the module docstring.

    _fields is the field-name tuple, _defaults maps defaulted fields to their
    values. An annotation that reads ClassVar[...] or typing.ClassVar[...]
    (every module postpones annotation evaluation, so they are strings)
    names a class constant, not a field.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = [
            name for name, annotation in cls.__dict__.get("__annotations__", {}).items()
            if not str(annotation).startswith(("ClassVar", "typing.ClassVar"))
        ]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            self.__dict__.update(self._by_name(args, kwargs))
        else:  # every field positional, as in the hot loops: no binding work
            self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _by_name(cls, args: tuple[Any, ...], kwargs: dict[str, Any]) -> dict[str, Any]:
        """Field values by name: positional, then keyword, then default values.

        Binding faults raise TypeError in this order: too many positional
        arguments, an unknown or repeated keyword, then the missing fields.
        """
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        free = fields[len(args):]  # the fields a keyword may still name
        for key in kwargs:
            if key not in free:
                problem = "multiple values for" if key in fields else "an unexpected keyword"
                raise TypeError(f"{name}() got {problem} argument {key!r}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        if len(values) < len(fields):  # every key is a field by now
            missing = ", ".join(repr(f) for f in fields if f not in values)
            raise TypeError(f"{name}() missing required arguments: {missing}")
        return values

    def __post_init__(self) -> None:
        """Validate or normalize the fields; the default accepts anything."""

    def _values(self) -> tuple[Any, ...]:
        return tuple([self.__dict__[f] for f in self._fields])

    def _asdict(self) -> dict[str, Any]:
        """Fields by name, in _fields order."""
        return {f: self.__dict__[f] for f in self._fields}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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


def require_nonnegative(names: tuple[str, ...], values: tuple[float, ...]) -> None:
    """Reject the first value that is not finite and >= 0, naming it."""
    for name, value in zip(names, values):
        if not 0.0 <= value < math.inf:  # NaN fails the comparison too
            raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


def require_distribution(what: str, names: tuple[str, ...], cells: tuple[float, ...]) -> None:
    """Reject cells unless each is finite and >= 0 and all sum to 1 within SUM_TOL.

    No per-cell upper bound: each cell is then <= 1 + SUM_TOL, so marginals pass too.
    """
    require_nonnegative(names, cells)
    total = math.fsum(cells)
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"{what} sum to {total!r}, expected 1")


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
_CELL_LABELS = tuple(f"cell {name}" for name in CELL_NAMES)

CELL_OUTCOMES: tuple[tuple[Outcome, Outcome], ...] = tuple(
    (_LETTER_OUTCOME[name[0]], _LETTER_OUTCOME[name[1]]) for name in CELL_NAMES
)


class PairProbabilities(Record):
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
        require_distribution("cells", _CELL_LABELS, self.cells())

    def cells(self) -> tuple[float, ...]:
        return self._values()  # fields are CELL_NAMES

    def prob(self, i: Outcome, j: Outcome) -> float:
        return getattr(self, CELL_NAMES[CELL_OUTCOMES.index((i, j))])


class SinglesProbabilities(Record):
    """One side's outcome distribution: detected +, absorbed, detected -."""

    p_plus: float
    p_zero: float
    p_minus: float

    def __post_init__(self) -> None:
        require_distribution("singles", self._fields, self._values())


class DetectionRates(Record):
    """Measurable transmission-and-detection rates per emitted pair.

    Doubles d_xy are joint detection rates for the four +/- outcome
    combinations; singles are per-side detection rates. Unlike
    PairProbabilities these do not sum to one: most pairs escape the
    apertures entirely. Physical values are probabilities, but every
    consumer works on ratios in which the emission count cancels, so
    uniformly rescaled (unnormalized) rates are accepted too. What is
    enforced: every field is finite and >= 0, and every partner-missed
    cell is >= -CELL_TOL, i.e. coincidences never exceed the matching
    single.
    """

    d_pp: float
    d_pm: float
    d_mp: float
    d_mm: float
    d_plus_1: float
    d_minus_1: float
    d_plus_2: float
    d_minus_2: float

    def __post_init__(self) -> None:
        require_nonnegative(self._fields, self._values())
        for cell, value in self.partner_missed().items():
            if value < -CELL_TOL:
                raise ValidationError(
                    f"partner-missed cell {cell} is {value!r}: coincidences exceed the single rate"
                )

    def doubles(self) -> tuple[float, float, float, float]:
        return self._values()[:4]

    def partner_missed(self) -> dict[str, float]:
        """Completion cells pz, zp, mz, zm: detected on one side, partner missed.

        Each is that side's single rate less its two coincidence cells.
        """
        return {
            "pz": self.d_plus_1 - (self.d_pp + self.d_pm),
            "zp": self.d_plus_2 - (self.d_pp + self.d_mp),
            "mz": self.d_minus_1 - (self.d_mp + self.d_mm),
            "zm": self.d_minus_2 - (self.d_pm + self.d_mm),
        }

    def scaled(self, factor: float) -> "DetectionRates":
        """All eight fields multiplied by a common positive factor."""
        return DetectionRates(*(value * factor for value in self._values()))


def expectation(pair: PairProbabilities) -> float:
    """Correlation of the detected outcomes: pp - pm - mp + mm, of probabilities or counts."""
    return pair.pp - pair.pm - pair.mp + pair.mm


def marginals(pair: PairProbabilities) -> tuple[SinglesProbabilities, SinglesProbabilities]:
    """Per-side outcome distributions: each side's cells summed by that side's letter."""
    cells = tuple(zip(CELL_NAMES, pair.cells()))
    side1, side2 = (
        SinglesProbabilities(*(
            math.fsum(p for name, p in cells if name[side] == _LETTER[o]) for o in OUTCOMES
        ))
        for side in (0, 1)
    )
    return side1, side2


def coincidence_total(rates: DetectionRates) -> float:
    """Total double-detection probability (all four +/- combinations)."""
    return math.fsum(rates.doubles())


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
    return PairProbabilities(*(d / total for d in rates.doubles()))
