"""Local realistic models over four polarizer axes, verified exhaustively.

A local theory predetermines each photon's outcome for every setting it
might meet: side 1 at axis a or a', side 2 at axis b or b'. Such a
theory is a probability distribution over the 81 four-axis outcome
assignments. The key fact, checked here by full enumeration rather than
by linear programming, is that a particular combination of correlations,
coincidence probabilities, and singles probabilities is bounded below by
-1 for every such distribution.
"""

from __future__ import annotations

import functools
import itertools
import math
import os

from .core import (
    CELL_OUTCOMES,
    PAIRS,
    BellTestError,
    Outcome,
    OUTCOMES,
    PairProbabilities,
    Record,
    ValidationError,
    require_distribution,
)


class ModelFileError(BellTestError, ValueError):
    """A four-axis model file is malformed or inconsistent."""


class DeterministicAssignment(Record):
    """Predetermined outcomes for both photons at both possible settings."""

    a: Outcome
    a_prime: Outcome
    b: Outcome
    b_prime: Outcome

    def key(self) -> str:
        """Four-character form over {+, 0, -} in field order."""
        return "".join(o.symbol for o in self._values())

    @classmethod
    def from_key(cls, key: str) -> "DeterministicAssignment":
        if len(key) != 4:
            raise ValidationError(f"assignment key must have 4 characters: {key!r}")
        return cls(*(Outcome.from_symbol(ch) for ch in key))


@functools.lru_cache(maxsize=1)
def enumerate_assignments() -> tuple[DeterministicAssignment, ...]:
    """All 81 assignments in lexicographic (+, 0, -) order."""
    return tuple(
        DeterministicAssignment(a, ap, b, bp)
        for a, ap, b, bp in itertools.product(OUTCOMES, repeat=4)
    )


def assignment_index(assignment: DeterministicAssignment) -> int:
    """Position of an assignment in the canonical enumeration."""
    return enumerate_assignments().index(assignment)


class FourAxisModel(Record):
    """Probability distribution over the 81 deterministic assignments.

    Weights are stored in canonical enumeration order. Existence of such
    a joint distribution is exactly the locality requirement: the first
    photon's outcome cannot depend on the distant polarizer's setting.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != 81:
            raise ValidationError(f"expected 81 weights, got {len(self.weights)}")
        require_distribution("weights", ("weights",) * 81, self.weights)
        self.__dict__["weights"] = tuple(map(float, self.weights))  # builtin floats echo as such

    def weight(self, assignment: DeterministicAssignment) -> float:
        return self.weights[assignment_index(assignment)]

    @classmethod
    def point_mass(cls, assignment: DeterministicAssignment) -> "FourAxisModel":
        weights = [0.0] * 81
        weights[assignment_index(assignment)] = 1.0
        return cls(tuple(weights))

    @classmethod
    def uniform(cls) -> "FourAxisModel":
        return cls(tuple([1.0 / 81.0] * 81))


def random_model(seed: int) -> FourAxisModel:
    """Seeded random model: 81 uniform variates scaled to sum to one."""
    import numpy as np  # the only numpy user here; verify-theorem and eval never load it

    rng = np.random.default_rng(int(seed))
    raw = rng.random(81)
    raw /= raw.sum()
    return FourAxisModel(tuple(float(w) for w in raw))


def pair_probabilities(model: FourAxisModel, side1: str, side2: str) -> PairProbabilities:
    """Marginalize a model onto one setting pair's nine-cell distribution.

    (side1, side2) names the pair's axes as one of the core.PAIRS values.
    """
    if (side1, side2) not in PAIRS.values():
        raise ValidationError(
            f"unknown setting pair {(side1, side2)!r}; expected one of {tuple(PAIRS.values())}"
        )
    cells = dict.fromkeys(CELL_OUTCOMES, 0.0)
    for assignment, weight in zip(enumerate_assignments(), model.weights):
        cells[(getattr(assignment, side1), getattr(assignment, side2))] += weight
    return PairProbabilities(*cells.values())  # CELL_OUTCOMES order is the field order


def bell_functional(assignment: DeterministicAssignment) -> int:
    """Per-assignment value whose mixture average obeys the -1 bound.

    Three cross-setting products, minus 2 for a like-signed (++ or --)
    primed-pair outcome, plus 1 for each primed-side photon that is not
    absorbed. Integer-valued, so the exhaustive minimum is exact.
    """
    a, ap = int(assignment.a), int(assignment.a_prime)
    b, bp = int(assignment.b), int(assignment.b_prime)
    value = a * b + a * bp + ap * b
    if ap == 1 and bp == 1:
        value -= 2
    if ap == -1 and bp == -1:
        value -= 2
    if ap != 0:
        value += 1
    if bp != 0:
        value += 1
    return value


# The nine primed-outcome cases in their conventional order, with the
# expected minimum of the bare three-product sum for each.
CASE_SETTINGS: tuple[tuple[Outcome, Outcome], ...] = (
    (Outcome.PLUS, Outcome.PLUS),
    (Outcome.MINUS, Outcome.MINUS),
    (Outcome.PLUS, Outcome.MINUS),
    (Outcome.MINUS, Outcome.PLUS),
    (Outcome.PLUS, Outcome.ZERO),
    (Outcome.MINUS, Outcome.ZERO),
    (Outcome.ZERO, Outcome.PLUS),
    (Outcome.ZERO, Outcome.MINUS),
    (Outcome.ZERO, Outcome.ZERO),
)

EXPECTED_CASE_BOUNDS: tuple[int, ...] = (-1, -1, -3, -3, -2, -2, -2, -2, -1)


class CaseBound(Record):
    """Minimum of the three-product sum for one fixed primed-outcome pair."""

    a_prime: Outcome
    b_prime: Outcome
    min_three_term: int
    expected: int

    @property
    def matches(self) -> bool:
        return self.min_three_term == self.expected


class TheoremReport(Record):
    """Result of exhaustively evaluating the functional on all 81 assignments."""

    min_functional_value: int
    argmin_assignments: tuple[DeterministicAssignment, ...]
    case_bounds: tuple[CaseBound, ...]
    all_satisfied: bool

    @property
    def cases_match_expected(self) -> bool:
        return all(case.matches for case in self.case_bounds)


def verify_theorem() -> TheoremReport:
    """Enumerate all 81 assignments and report the functional's minimum.

    Also reports, for each of the nine primed-outcome cases, the minimum
    of the bare three-product sum over the unprimed outcomes. A minimum
    below -1 would be reported, not raised: it signals a broken
    functional, and the caller decides how loudly to fail.
    """
    assignments = enumerate_assignments()
    values = functional_values()
    minimum = min(values)
    argmins = tuple(s for s, v in zip(assignments, values) if v == minimum)

    cases = []
    for (ap, bp), expected in zip(CASE_SETTINGS, EXPECTED_CASE_BOUNDS):
        three_term_min = min(
            int(a) * int(b) + int(a) * int(bp) + int(ap) * int(b)
            for a in OUTCOMES
            for b in OUTCOMES
        )
        cases.append(CaseBound(ap, bp, three_term_min, expected))

    return TheoremReport(
        min_functional_value=minimum,
        argmin_assignments=argmins,
        case_bounds=tuple(cases),
        all_satisfied=minimum >= -1,
    )


@functools.lru_cache(maxsize=1)
def functional_values() -> tuple[int, ...]:
    """bell_functional over the canonical enumeration, cached."""
    return tuple(bell_functional(s) for s in enumerate_assignments())


def mixture_functional(model: FourAxisModel) -> float:
    """Weighted average of the functional; at least -1 for any valid model."""
    return math.fsum(w * v for w, v in zip(model.weights, functional_values()))


# ---------------------------------------------------------------------------
# Model files: one "<key> <weight>" line per assignment, keys over {+,0,-}
# in field order (a, a', b, b'), '#' comments and blank lines ignored.
# ---------------------------------------------------------------------------

LOAD_SUM_TOL = 1e-6
"""Looser tolerance for file weights; accepted sums are renormalized."""

MAX_MODEL_BYTES = 1 << 20
"""Largest model file load_model reads (1 MiB); a full 81-line file is about 2 KB."""


def save_model_text(model: FourAxisModel) -> str:
    lines = [
        f"{assignment.key()} {weight!r}"
        for assignment, weight in zip(enumerate_assignments(), model.weights)
    ]
    return "\n".join(lines) + "\n"


def load_model_text(text: str) -> FourAxisModel:
    """Parse a model file, validate it, and renormalize to an exact sum."""
    weights: dict[str, float] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ModelFileError(f"line {lineno}: expected '<key> <weight>', got {raw_line!r}")
        key, value_text = parts
        if len(key) != 4 or any(ch not in "+0-" for ch in key):
            raise ModelFileError(f"line {lineno}: bad assignment key {key!r}")
        if key in weights:
            raise ModelFileError(f"line {lineno}: duplicate key {key!r}")
        try:
            value = float(value_text)
        except ValueError:
            raise ModelFileError(f"line {lineno}: bad weight {value_text!r}") from None
        if not math.isfinite(value) or value < 0.0:
            raise ModelFileError(f"line {lineno}: weight must be finite and >= 0, got {value!r}")
        weights[key] = value

    missing = [s.key() for s in enumerate_assignments() if s.key() not in weights]
    if missing:
        raise ModelFileError(f"missing {len(missing)} keys (first: {missing[0]!r})")
    total = math.fsum(weights.values())
    if abs(total - 1.0) > LOAD_SUM_TOL:
        raise ModelFileError(f"weights sum to {total!r}, expected 1 within {LOAD_SUM_TOL}")
    ordered = tuple(weights[s.key()] / total for s in enumerate_assignments())
    return FourAxisModel(ordered)


def load_model(path: str | os.PathLike[str]) -> FourAxisModel:
    with open(path, "rb") as handle:
        data = handle.read(MAX_MODEL_BYTES + 1)
    if len(data) > MAX_MODEL_BYTES:
        raise ModelFileError(
            f"{os.fspath(path)!r} is larger than {MAX_MODEL_BYTES} bytes; a model file is 81 lines"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{os.fspath(path)!r} is not UTF-8 text: {exc.reason}") from None
    return load_model_text(text)


def save_model(model: FourAxisModel, path: str | os.PathLike[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(save_model_text(model))
